"""Free noncommutative algebra over the rational-function coefficient field.

Words are tuples of generator indices (1-based, indices below the strand
count n); the empty word is the identity.  An NCPoly maps words to nonzero
RatFunc coefficients over a fixed tuple of parameter symbols.  No rewriting
or normal forms happen here: the defining relations of the braid-like
algebras are stored as explicit LHS - RHS elements, and the quotient
structure is only ever probed through representations or through exact
free-algebra certificates.

`*` is the product of two elements, and `c * p` is the one scalar multiple:
c is a RatFunc over p's symbols, an int or a Fraction, written on the left
as the paper writes a(...).  `p * c` raises TypeError.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Iterable, Mapping

from .exactnum import RatFunc, canonical_vars
from .exactnum.scalar import as_int, one_of

Word = tuple[int, ...]


def _merge(out: dict[Word, RatFunc], pairs: Iterable[tuple[Word, RatFunc]]) -> dict[Word, RatFunc]:
    """Add each (word, coefficient) pair into out, dropping every zero sum; the one merge of + and *."""
    for word, coeff in pairs:
        acc = out.get(word)
        acc = coeff if acc is None else acc + coeff
        if acc:
            out[word] = acc
        else:
            out.pop(word, None)
    return out


class NCPoly:
    """Noncommutative polynomial in generators sigma_1 .. sigma_(n-1).

    `p * q` is the product and `c * p` the one scalar multiple.
    """

    __slots__ = ("n", "symbols", "terms")

    def __init__(self, n: int, symbols: tuple[str, ...], terms: Mapping[Word, RatFunc] | None = None):
        self.n = as_int(n, "strand count", floor=2)
        self.symbols = tuple(symbols)
        clean: dict[Word, RatFunc] = {}
        if terms:
            for word, coeff in terms.items():
                for i in word:
                    as_int(i, "generator index", 1, n - 1)
                if coeff.vars != self.symbols:
                    raise ValueError("coefficient field mismatch")
                if coeff:
                    clean[tuple(word)] = coeff
        self.terms = clean

    # -- constructors --------------------------------------------------------

    @classmethod
    def one(cls, n: int, symbols: tuple[str, ...]) -> "NCPoly":
        return cls(n, symbols, {(): RatFunc.const(symbols, 1)})

    @classmethod
    def gen(cls, n: int, i: int, symbols: tuple[str, ...]) -> "NCPoly":
        """The generator sigma_i as an element."""
        i = as_int(i, "generator index", 1, n - 1)
        return cls(n, symbols, {(i,): RatFunc.const(symbols, 1)})

    # -- queries ---------------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self.n == other.n and self.symbols == other.symbols and self.terms == other.terms

    __hash__ = None

    def num_terms(self) -> int:
        return len(self.terms)

    # -- arithmetic --------------------------------------------------------------

    def _check(self, other: "NCPoly") -> None:
        if self.n != other.n:
            raise ValueError(f"mismatched strand counts {self.n} vs {other.n}")
        if self.symbols != other.symbols:
            raise ValueError("mismatched coefficient fields")

    def _like(self, terms: dict[Word, RatFunc]) -> "NCPoly":
        """An element over self's strands and symbols whose terms are already checked and nonzero."""
        res = NCPoly.__new__(NCPoly)
        res.n, res.symbols, res.terms = self.n, self.symbols, terms
        return res

    def __add__(self, other: "NCPoly") -> "NCPoly":
        self._check(other)
        return self._like(_merge(dict(self.terms), other.terms.items()))

    def __neg__(self) -> "NCPoly":
        return self._like({w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        return self + (-other)

    def __mul__(self, other) -> "NCPoly":
        """The product of two elements; a scalar multiple is written c * p."""
        if not isinstance(other, NCPoly):
            return NotImplemented
        self._check(other)
        pairs = [(wa + wb, ca * cb) for wa, ca in self.terms.items() for wb, cb in other.terms.items()]
        return self._like(_merge({}, pairs))

    def __rmul__(self, c) -> "NCPoly":
        """The scalar multiple c * p, for c a RatFunc over p's symbols, an int or a Fraction."""
        if isinstance(c, RatFunc):
            if c.vars != self.symbols:
                raise ValueError("coefficient field mismatch")
        elif type(c) is int or isinstance(c, Fraction):  # a bool is refused, as a float is
            c = RatFunc.const(self.symbols, c)
        else:
            return NotImplemented
        return self._like({w: x * c for w, x in self.terms.items()} if c else {})

    def __pow__(self, k: int) -> "NCPoly":
        out = NCPoly.one(self.n, self.symbols)
        for _ in range(as_int(k, "exponent", floor=0)):
            out = out * self
        return out

    # -- formatting ---------------------------------------------------------------

    def __str__(self) -> str:
        """The terms in a deterministic order: words by length, then lexicographically."""
        if not self.terms:
            return "0"
        parts = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            word = "*".join(f"s{i}" for i in w) if w else "1"
            parts.append(f"({self.terms[w]})*{word}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"NCPoly({self})"


def nc_commutator(p: NCPoly, q: NCPoly) -> NCPoly:
    return p * q - q * p


def flip(p: NCPoly) -> NCPoly:
    """Replace every index j by n - j letterwise; coefficients unchanged."""
    return p._like({tuple(p.n - j for j in w): c for w, c in p.terms.items()})


class RelationSet:
    """Defining relations of one algebra, stored as LHS - RHS elements."""

    def __init__(self, algebra: str, n: int, symbols: tuple[str, ...], elements: list[tuple[str, NCPoly]]):
        self.algebra = algebra
        self.n = n
        self.symbols = symbols
        self.elements = elements


def resolve_params(names: Iterable[str], given: Mapping | None) -> tuple[tuple[str, ...], dict[str, RatFunc]]:
    """Build the coefficient field and one RatFunc per named parameter.

    None (or an absent name) keeps the parameter symbolic as its own symbol;
    a RatFunc is lifted, so a symbol of another name is the RatFunc that
    names it (q=RatFunc.var(("t",), "t")) and the parameter c of A can be set
    to -q; anything else is a constant read by RatFunc.const, so a str is
    always a "p/q" scalar.  An unknown name or a value as_scalar refuses (a
    bool, a float) raises ValueError, which names the parameter.
    """
    given = dict(given or {})
    unknown = set(given) - set(names)
    if unknown:
        raise ValueError(f"unexpected parameters {sorted(unknown)}")
    values = {name: given.get(name) for name in names}
    symbols = canonical_vars(
        {name for name, value in values.items() if value is None}
        | {s for value in values.values() if isinstance(value, RatFunc) for s in value.vars}
    )
    out: dict[str, RatFunc] = {}
    for name, value in values.items():
        if value is None:
            out[name] = RatFunc.var(symbols, name)
        elif isinstance(value, RatFunc):
            out[name] = value.lift(symbols)
        else:
            try:
                out[name] = RatFunc.const(symbols, value)
            except ValueError as exc:
                raise ValueError(f"parameter {name}: {exc}") from exc
    return symbols, out


def site_relations(n: int, symbols: tuple[str, ...], families) -> list[tuple[str, NCPoly]]:
    """(f"{label}({i})", element(s, t)) with s = sigma_i, t = sigma_(i+1), for i = 1 .. n-2.

    families is a sequence of (label, element) pairs; at each site they come
    in the given order.
    """
    out = []
    for i in range(1, n - 1):
        s, t = NCPoly.gen(n, i, symbols), NCPoly.gen(n, i + 1, symbols)
        out.extend((f"{label}({i})", element(s, t)) for label, element in families)
    return out


_BRAID = (("braid", lambda s, t: s * t * s - t * s * t),)
_B_CUBICS = (
    ("bb2", lambda s, t: s**2 * t - s * t**2 - (s**2 - t**2 + t - s)),
    ("bb3", lambda s, t: t**3 * s - t * s**3 - (t**2 * s - t * s**2 + t**3 - s**3 - t**2 + s**2)),
    ("bb4", lambda s, t: t**4 * s - t * s**4 - (t**2 * s - t * s**2 + t**4 - s**4 - t**2 + s**2)),
)
# tau_j = sigma_(n-j) on the same index alphabet: C relation k at site i is the
# flip of B relation k at site n-1-i, i.e. s and t swap
_C_CUBICS = tuple(("cc" + label[2:], lambda s, t, f=f: f(t, s)) for label, f in _B_CUBICS)


def _a_cubics(a: RatFunc, b: RatFunc, c: RatFunc):
    return (
        ("aa1", lambda s, t: nc_commutator(s**2, t) - nc_commutator(s, t**2)),
        ("aa2", lambda s, t: nc_commutator(t * s, s + t) - (a * (s**3 - t**3) + b * (s**2 - t**2) - c * (s - t))),
        ("aa5", lambda s, t: a * (s * t**3 - s**3 * t) + b * (t**2 * s - t * s**2)),
        ("aa3", lambda s, t: a * (t**3 * s - t * s**3) + b * (t**2 * s - t * s**2)),
        ("aa4", lambda s, t: (a * a) * (t**4 * s - t * s**4) - (b * b + a * c) * (t**2 * s - t * s**2)),
    )


# algebra -> (parameter names, blocks(*resolved values)); each block is a
# tuple of per-site families, and the blocks follow one another in the set
_ALGEBRA_TABLE = {
    "Braid": ((), lambda: (_BRAID,)),
    "Hecke": (("q",), lambda q: (_BRAID,)),  # the quadratic is added per generator
    "A": (("a", "b", "c"), lambda a, b, c: (_a_cubics(a, b, c),)),
    "B": ((), lambda: (_BRAID, _B_CUBICS)),
    "C": ((), lambda: (_BRAID, _C_CUBICS)),
}
ALGEBRAS = tuple(_ALGEBRA_TABLE)
# the largest strand count n of a relation set, so generators run 1 .. 15; relation
# building is quadratic in n, and the job schema caps a scalar rep and an assignment here
MAX_GENERATORS = 16


def relations_for(algebra: str, n: int, params: Mapping | None = None) -> RelationSet:
    """All defining relations of one of the five algebras at strand count n.

    n runs from 2 to MAX_GENERATORS.  Locality pairs appear for every
    |i - j| > 1; the per-site families run over i = 1 .. n-2, and the Hecke
    quadratic over i = 1 .. n-1.
    """
    names, blocks = _ALGEBRA_TABLE[one_of(algebra, ALGEBRAS, "algebra")]
    as_int(n, "n", floor=2, cap=MAX_GENERATORS)
    symbols, vals = resolve_params(names, params)

    def gen(i: int) -> NCPoly:
        return NCPoly.gen(n, i, symbols)

    elements = [(f"locality({i},{j})", nc_commutator(gen(i), gen(j))) for i in range(1, n) for j in range(i + 2, n)]
    for block in blocks(*(vals[name] for name in names)):
        elements += site_relations(n, symbols, block)
    if algebra == "Hecke":
        one = NCPoly.one(n, symbols)
        elements += [(f"hecke({i})", (gen(i) - one) * (gen(i) - vals["q"] * one)) for i in range(1, n)]
    return RelationSet(algebra=algebra, n=n, symbols=symbols, elements=elements)


PROP1_TERMS = ("r3", "commutator", "left_r1", "right_r1", "b_r1")


def prop1_certificate(omit_term: str | None = None) -> tuple[NCPoly, bool]:
    """Free-algebra certificate that the fifth cubic relation of A is implied.

    Runs at n = 3 with fully symbolic a, b, c.  Forms the combination
    (a-2)*R3 + a*[s1 - s2, R2] + a*(2 s1 + s2)*R1 + a*R1*(s1 + 2 s2) + a*b*R1
    (R1, R2, R3 the aa1/aa2/aa3 elements; R1 enters with the orientation that
    makes the identity exact) and subtracts (a-2)*R5; the certificate passes
    iff the residual is the zero element.  The five summands and (a-2)*R5
    depend on no argument, so _prop1_summands builds them once per process;
    omit_term only drops one of the five from the sum (mutation control: the
    residual must then be nonzero).
    """
    if omit_term is not None:
        one_of(omit_term, PROP1_TERMS, "omit_term")
    summands, rhs = _prop1_summands()
    combination = NCPoly(3, rhs.symbols)
    for name, term in summands:
        if name != omit_term:
            combination = combination + term
    residual = combination - rhs
    return residual, not residual


@functools.cache
def _prop1_summands() -> tuple[tuple[tuple[str, NCPoly], ...], NCPoly]:
    """((name, summand) for the PROP1_TERMS, (a-2)*R5) over symbolic a, b, c.

    R1, R2, R3 and R5 are read from the A family table at site 1 (s = s1,
    t = s2), the table relations_for reads.  No caller mutates an NCPoly, so
    every call of prop1_certificate can share these elements.
    """
    symbols, vals = resolve_params(("a", "b", "c"), None)
    a, b = vals["a"], vals["b"]
    s1 = NCPoly.gen(3, 1, symbols)
    s2 = NCPoly.gen(3, 2, symbols)
    family = dict(_a_cubics(a, b, vals["c"]))
    r1, r2, r3, r5 = (family[label](s1, s2) for label in ("aa1", "aa2", "aa3", "aa5"))
    summands = (
        ("r3", (a - 2) * r3),
        ("commutator", a * nc_commutator(s1 - s2, r2)),
        ("left_r1", a * ((2 * s1 + s2) * r1)),
        ("right_r1", a * (r1 * (s1 + 2 * s2))),
        ("b_r1", (a * b) * r1),
    )
    return summands, (a - 2) * r5
