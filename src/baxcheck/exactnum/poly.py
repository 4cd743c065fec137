"""Sparse multivariate polynomials over the rationals.

A polynomial is a dict mapping packed monomials to nonzero int numerators
over one positive int denominator, with a fixed tuple of variable names; the
zero polynomial is the empty dict over 1.  The pair is kept in lowest terms
(the denominator and all numerators have gcd 1), so the stored form of a
polynomial is unique and equality is structural.  All arithmetic is exact and
runs on the integer kernel below; rational coefficients and exponent tuples
appear only at the interface (construction, leading coefficients, evaluation,
printing).  Evaluation compiles a polynomial list once (`evaluator`) and then
runs on ints at each point of a batch, from one power table per distinct
(variable, value); `eval_cleared` is its one-shot use.

A monomial x_0^e_0 ... x_{n-1}^e_{n-1} is packed into one int (Monagan &
Pearce, "Polynomial division using dynamic arrays, heaps, and packed exponent
vectors", CASC 2007): e_i sits in the `_W`-bit field i, variable 0 least
significant, and the total degree sits in field n above the variables.  The
total degree of every monomial stays below 2**(_W-1), so the top bit of each
field is a guard bit that is always clear.  Then a monomial product is one int
addition, and a monomial quotient ea - eb is exact iff no field borrows, i.e.
iff no guard bit of the difference is set.  The constructor rejects exponents
that are not nonnegative ints or whose total degree reaches 2**(_W-1), and a
product whose degree would reach it raises ValueError instead of answering
wrong.

`poly_gcd` returns the monic gcd together with both cofactors.  It runs the
heuristic GCDHEU of Char, Geddes & Gonnet (evaluate at a large integer, take
one integer gcd, interpolate back) at ever larger points until the candidate
divides both inputs exactly; that division proves the result and yields the
cofactors.

The variable order is global and deterministic: the spectral symbols
x, y, z, v come first (in that order), every other symbol follows
alphabetically.  Monomials compare in graded lexicographic order where the
later variable in the tuple is the more significant one, which is exactly the
order of the packed ints, so canonical forms (leading terms, monic
normalization) are reproducible across runs.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd, isqrt, lcm as _int_lcm
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .scalar import as_int, as_scalar

SPECTRAL = ("x", "y", "z", "v")

_W = 32  # bits per exponent field
_MASK = (1 << _W) - 1
_DEG_LIMIT = 1 << (_W - 1)  # every total degree stays below this


def canonical_vars(names: Iterable[str]) -> tuple[str, ...]:
    """Order symbol names: spectral variables first, the rest alphabetically."""
    names = set(names)
    head = [s for s in SPECTRAL if s in names]
    tail = sorted(n for n in names if n not in SPECTRAL)
    return tuple(head + tail)


def _pack(exp: tuple[int, ...]) -> int:
    """The packed key of an exponent tuple; ValueError for an invalid exponent."""
    key = deg = 0
    for e in reversed(exp):
        if type(e) is not int or e < 0:
            raise ValueError(f"exponents must be nonnegative ints, got {exp}")
        key = key << _W | e
        deg += e
    if deg >= _DEG_LIMIT:
        raise ValueError(f"total degree of {exp} is not below 2**{_W - 1}")
    return deg << (_W * len(exp)) | key


def _unpack(key: int, n: int) -> tuple[int, ...]:
    return tuple(key >> (_W * i) & _MASK for i in range(n))


def _field(m: int, n: int) -> int:
    """The key of one power of variable m: its field and the degree field."""
    return 1 << (_W * m) | 1 << (_W * n)


def _guards(n: int) -> int:
    """The guard bits of all n + 1 fields."""
    return ((1 << (_W * (n + 1))) - 1) // _MASK << (_W - 1)


class MultiPoly:
    """Exact sparse polynomial in a fixed, ordered tuple of variables; c * p is its scalar multiple."""

    __slots__ = ("vars", "terms", "den")

    def __init__(self, vars: tuple[str, ...], terms: Mapping[tuple[int, ...], Fraction | int] | None = None):
        self.vars = tuple(vars)
        nvars = len(self.vars)
        clean: dict[int, Fraction] = {}
        if terms:
            for exp, coeff in terms.items():
                coeff = as_scalar(coeff)
                if coeff == 0:
                    continue
                if len(exp) != nvars:
                    raise ValueError(f"exponent {exp} does not match {nvars} variables")
                clean[_pack(exp)] = coeff
        # over the lcm of reduced denominators the numerators are already coprime to it
        den = _int_lcm(*(c.denominator for c in clean.values()))
        self.terms = {exp: c.numerator * (den // c.denominator) for exp, c in clean.items()}
        self.den = den

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, vars: tuple[str, ...], value) -> "MultiPoly":
        if type(value) is not int:  # an int carries numerator and denominator and needs no Fraction
            value = as_scalar(value)
        return _make(tuple(vars), {0: value.numerator} if value else {}, value.denominator)

    @classmethod
    def var(cls, vars: tuple[str, ...], name: str) -> "MultiPoly":
        if name not in vars:
            raise ValueError(f"unknown variable {name!r} (have {vars})")
        return _make(tuple(vars), {_field(vars.index(name), len(vars)): 1}, 1)

    # -- basic queries -----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.vars == other.vars and self.den == other.den and self.terms == other.terms

    __hash__ = None  # mutable mapping inside

    def is_constant(self) -> bool:
        return not any(self.terms)  # the constant monomial is key 0

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (usage error otherwise)."""
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return Fraction(self.terms[0], self.den)

    def valuation_in(self, name: str) -> int | None:
        """Smallest exponent of `name` over all terms; None for the zero polynomial."""
        if not self.terms:
            return None
        shift = _W * self.vars.index(name)
        return min(e >> shift & _MASK for e in self.terms)

    def lc(self) -> Fraction:
        """The graded-lex leading coefficient of a nonzero polynomial, without unpacking its exponent."""
        return Fraction(self.terms[max(self.terms)], self.den)

    def num_terms(self) -> int:
        return len(self.terms)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "MultiPoly") -> None:
        if self.vars != other.vars:
            raise ValueError(f"mismatched variable lists {self.vars} vs {other.vars}")

    def _coerce(self, other) -> "MultiPoly | None":
        if isinstance(other, MultiPoly):
            self._check(other)
            return other
        if type(other) is int or isinstance(other, Fraction):  # a bool is refused, as a float is
            return MultiPoly.const(self.vars, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        # over the common denominator lcm(den_a, den_b) = den_a * ma = den_b * mb
        g = _int_gcd(self.den, other.den)
        ma, mb = other.den // g, self.den // g
        out = _ip_scale(self.terms, ma)
        for exp, coeff in other.terms.items():
            acc = out.get(exp, 0) + coeff * mb
            if acc:
                out[exp] = acc
            else:
                out.pop(exp, None)
        return _make(self.vars, out, self.den * ma)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.vars, {exp: -coeff for exp, coeff in self.terms.items()}, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.den == 1 and other.terms == {0: 1}:
            return self
        if self.den == 1 and self.terms == {0: 1}:
            return other
        return _make(self.vars, _ip_mul(self.terms, other.terms, len(self.vars)), self.den * other.den)

    __rmul__ = __mul__

    def divexact(self, divisor: "MultiPoly") -> "MultiPoly":
        """Exact division; raises ValueError when the division is not exact."""
        divisor = self._coerce(divisor)
        if divisor is None or not divisor:
            raise ValueError("division by zero polynomial")
        # self / divisor = (A / Bp) * den_b / (den_a * content(B)) for the
        # primitive part Bp of B; by Gauss's lemma A / Bp is integral when exact
        content = _int_gcd(*divisor.terms.values())
        primitive = {exp: c // content for exp, c in divisor.terms.items()}
        quot = _ip_divexact(self.terms, primitive, len(self.vars))
        return _make(self.vars, _ip_scale(quot, divisor.den), self.den * content)

    # -- evaluation / substitution ------------------------------------------

    def at(self, name: str, value: int) -> "MultiPoly":
        """Substitute the int value for variable `name`, staying in the same ring."""
        value = as_int(value, f"value of {name}")
        return _make(self.vars, _ip_eval(self.terms, self.vars.index(name), value, len(self.vars)), self.den)

    def rename(self, mapping: Mapping[str, str]) -> "MultiPoly":
        """Substitute variables by variables (e.g. y := x), staying in the same ring.

        Every target must already be one of this polynomial's variables.
        """
        for src, dst in mapping.items():
            if src not in self.vars or dst not in self.vars:
                raise ValueError(f"unknown variable in substitution {src!r}->{dst!r}")
        # moving a field keeps the total degree, so the degree field stays
        moves = [(_W * k, _W * self.vars.index(mapping[name]))
                 for k, name in enumerate(self.vars) if mapping.get(name, name) != name]
        out: _IntPoly = {}
        for exp, coeff in self.terms.items():
            key = exp
            for src, dst in moves:
                e = exp >> src & _MASK
                key += (e << dst) - (e << src)
            acc = out.get(key, 0) + coeff
            if acc:
                out[key] = acc
            else:
                out.pop(key, None)
        return _make(self.vars, out, self.den)

    def lift(self, new_vars: tuple[str, ...]) -> "MultiPoly":
        """Embed into a ring with more variables (must contain the current ones); into its own ring, a copy."""
        new_vars = tuple(new_vars)
        for name in self.vars:
            if name not in new_vars:
                raise ValueError(f"target variables {new_vars} do not contain {name!r}")
        # source field k (the degree field last) goes to target field dst
        dsts = [new_vars.index(name) for name in self.vars] + [len(new_vars)]
        out: _IntPoly = {}
        for exp, coeff in self.terms.items():
            key = 0
            for k, dst in enumerate(dsts):
                key |= (exp >> (_W * k) & _MASK) << (_W * dst)
            out[key] = coeff
        return _make(new_vars, out, self.den)

    # -- formatting ---------------------------------------------------------

    def sorted_terms(self) -> Iterator[tuple[tuple[int, ...], Fraction]]:
        """Terms in descending graded-lex order (the canonical term list)."""
        n = len(self.vars)
        for exp in sorted(self.terms, reverse=True):
            yield _unpack(exp, n), Fraction(self.terms[exp], self.den)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exp, coeff in self.sorted_terms():
            factors = []
            for name, e in zip(self.vars, exp):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mono = "*".join(factors)
            if not mono:
                text = str(coeff)
            elif coeff == 1:
                text = mono
            elif coeff == -1:
                text = f"-{mono}"
            else:
                text = f"{coeff}*{mono}"
            parts.append(text)
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self) -> str:
        return f"MultiPoly({self})"


def evaluator(polys: Sequence[MultiPoly]) -> Callable[[Sequence[Mapping[str, Fraction]]], list[tuple[list[int], int]]]:
    """polys over one variable tuple, compiled: a batch of points -> (nums, den) per point, polys[k] = nums[k] / den.

    The lcm of the denominators and each variable's top degree top_i are read
    once.  With value a_i / b_i, a term scaled by prod b_i^top_i is an int read
    off the power table [a_i^e b_i^(top_i - e)] of (i, a_i / b_i), one per
    distinct pair in the batch, and den = lcm * prod b_i^top_i > 0.
    """
    vars = polys[0].vars
    den = _int_lcm(*(p.den for p in polys))
    keys = [exp for p in polys for exp in p.terms]
    used = [(i, shift, top) for i, shift in enumerate(range(0, _W * len(vars), _W))
            if (top := max([exp >> shift & _MASK for exp in keys], default=0))]
    scaled = [(den // p.den, p.terms) for p in polys]

    def at(points: Sequence[Mapping[str, Fraction]]) -> list[tuple[list[int], int]]:
        tables, out = {}, []
        for point in points:
            try:
                values = [as_scalar(point[v]) for v in vars]
            except KeyError:
                raise ValueError(f"missing assignment for {[v for v in vars if v not in point]}") from None
            rows, scale = [], 1
            for i, shift, top in used:
                a, b = values[i].as_integer_ratio()
                table = tables.get((i, a, b))
                if table is None:
                    table = tables[i, a, b] = [a**e * b ** (top - e) for e in range(top + 1)]
                rows.append((shift, table))
                scale *= b**top
            nums = []
            for k, terms in scaled:
                total = 0
                for exp, coeff in terms.items():
                    for shift, table in rows:
                        coeff *= table[exp >> shift & _MASK]
                    total += coeff
                nums.append(total * k)
            out.append((nums, den * scale))
        return out

    return at


def eval_cleared(polys: Sequence[MultiPoly], point: Mapping[str, Fraction]) -> tuple[list[int], int]:
    """(nums, den) with polys[k](point) = nums[k] / den over one int den > 0: evaluator(polys) at one point."""
    return evaluator(polys)([point])[0]


def max_product_terms(entries: Iterable[MultiPoly], common: MultiPoly) -> int:
    """max((e * common).num_terms() for e in entries if e), 0 when no entry is nonzero; expands only what can set it.

    The support of e * common lies in the sumset {a + b} of the two packed
    supports, so the sumset's size bounds e's count, and so does the cruder
    |e| * |common|.  A scalar multiple of an entry already visited has that
    entry's count, which the running maximum already covers.  Entries are
    visited by descending |e|, and one is expanded only while its bound beats
    the running maximum; the sumset is formed only once there is a maximum to
    beat.  So the maximum is the plain one.
    """
    supp = list(common.terms)
    best, seen = 0, set()
    for e in sorted((e for e in entries if e), key=MultiPoly.num_terms, reverse=True):
        common._check(e)
        if len(e.terms) * len(supp) <= best:
            break
        shape = _ip_shape(e.terms)
        if shape in seen:
            continue
        seen.add(shape)
        if best and len({a + b for a in e.terms for b in supp}) <= best:
            continue
        best = max(best, (e * common).num_terms())
    return best


# -- integer kernel: products and exact division --
#
# These work on MultiPoly numerators directly, keyed by packed monomials;
# `n` is the number of variables, so field n holds the total degree.  Key 0 is
# the constant monomial.

_IntPoly = dict  # packed monomial -> nonzero int


def _make(vars: tuple[str, ...], terms: _IntPoly, den: int) -> MultiPoly:
    """The polynomial terms / den (den > 0, terms nonzero) in lowest terms."""
    if den != 1:
        g = _int_gcd(den, *terms.values())
        if g != 1:
            den //= g
            terms = {exp: c // g for exp, c in terms.items()}
    res = MultiPoly.__new__(MultiPoly)
    res.vars = vars
    res.terms = terms
    res.den = den
    return res


def _ip_scale(P: _IntPoly, k: int) -> _IntPoly:
    """A fresh dict holding k * P (k nonzero)."""
    return dict(P) if k == 1 else {exp: c * k for exp, c in P.items()}


def _ip_scale_down(P: _IntPoly, k: int) -> _IntPoly:
    """P / k for a positive k dividing every coefficient."""
    return P if k == 1 else {e: c // k for e, c in P.items()}


def _ip_shape(P: _IntPoly) -> frozenset:
    """P over its content, signed so its leading coefficient is positive: one value for all nonzero multiples of P."""
    c = _int_gcd(*P.values())
    if P[max(P)] < 0:
        c = -c
    return frozenset((e, v // c) for e, v in P.items())


def _ip_mul(P: _IntPoly, Q: _IntPoly, n: int) -> _IntPoly:
    if not P or not Q:
        return {}
    # the largest key has the largest total degree
    if (max(P) + max(Q)) >> (_W * n) >= _DEG_LIMIT:
        raise ValueError(f"product total degree is not below 2**{_W - 1}")
    out: _IntPoly = {}
    get = out.get
    for ea, ca in P.items():
        for eb, cb in Q.items():
            e = ea + eb
            acc = get(e, 0) + ca * cb
            if acc:
                out[e] = acc
            else:
                out.pop(e, None)
    return out


def _ip_max_used(P: _IntPoly, n: int) -> int:
    """The highest variable occurring in P, or -1 if P is constant."""
    top = max((e & ((1 << (_W * n)) - 1) for e in P), default=0)
    return (top.bit_length() - 1) // _W


def _ip_divexact(P: _IntPoly, D: _IntPoly, n: int) -> _IntPoly:
    """Exact division in Z[vars]; greedy on graded-lex leading terms."""
    if not D:
        raise ValueError("division by zero polynomial")
    if not P:
        return {}
    guards = _guards(n)
    if len(D) == 1:
        # a monomial (such as the gcd 1 of coprime inputs): one pass, no leading-term search
        ((ed, cd),) = D.items()
        quot: _IntPoly = {}
        for e, c in P.items():
            q, r = divmod(c, cd)
            e -= ed
            if r or e & guards:
                raise ValueError("inexact polynomial division")
            quot[e] = q
        return quot
    ed = max(D)
    cd = D[ed]
    quot = {}
    rem = dict(P)
    while rem:
        er = max(rem)
        cr = rem[er]
        e = er - ed
        if e & guards or cr % cd:
            raise ValueError("inexact polynomial division")
        q = cr // cd
        quot[e] = q
        for ed2, cd2 in D.items():
            key = e + ed2
            acc = rem.get(key, 0) - q * cd2
            if acc:
                rem[key] = acc
            else:
                rem.pop(key, None)
    return quot


# -- heuristic gcd with cofactors (GCDHEU) --
#
# Char, Geddes & Gonnet, "GCDHEU: Heuristic polynomial GCD algorithm based on
# integer GCD computation", J. Symbolic Computation 7 (1989).  Evaluating one
# variable at an integer xi maps gcd(P, Q) into the gcd of the images, one
# variable fewer; the recursion ends in one integer gcd, and the image gcd is
# read back as a polynomial by its balanced base-xi digits.  For
# xi >= 2 * min(|P|, |Q|) + 2 (max-norms) the primitive part H of that
# interpolation is gcd(P, Q) exactly when H divides both P and Q, so the
# trial division both certifies the result and yields the cofactors.
#
# A failed trial only means xi was unlucky, and the loop retries at a larger
# xi until one succeeds.  It ends: write P = G*A and Q = G*B with A, B
# coprime.  The image gcd at xi is G(xi) * k * K for an integer k and a
# polynomial K in the remaining variables.  k divides a content of res(A, B)
# taken in the evaluated variable (or of the side free of it), which does not
# depend on xi, and K is a unit except at finitely many xi, since a factor
# common to A(xi) and B(xi) for infinitely many xi would divide both A and B.
# So once xi > 2 * |k| * |G| outside those values, the balanced digits give
# back k * G, whose primitive part G divides both inputs.  xi at least doubles
# per try, and the recursive image gcds end by induction on the number of
# variables.


def _ip_eval(P: _IntPoly, m: int, xi: int, n: int) -> _IntPoly:
    """P with variable m set to xi (its field cleared)."""
    shift, unit = _W * m, _field(m, n)
    out: _IntPoly = {}
    for e, c in P.items():
        k = e >> shift & _MASK
        if k:
            c *= xi**k
            e -= k * unit
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _ip_interpolate(H: _IntPoly, m: int, xi: int, n: int) -> _IntPoly:
    """The polynomial in variable m whose xi-adic symmetric digits are H's coefficients."""
    unit = _field(m, n)
    out: _IntPoly = {}
    half = xi // 2
    for e, c in H.items():
        while c:
            c, d = divmod(c, xi)
            if d > half:
                d -= xi
                c += 1
            if d:
                out[e] = d
            e += unit
    return out


def _heu_gcd(P: _IntPoly, Q: _IntPoly, n: int) -> tuple[_IntPoly, _IntPoly, _IntPoly]:
    """(G, P/G, Q/G) with G = gcd(P, Q) up to sign."""
    mp, mq = _ip_max_used(P, n), _ip_max_used(Q, n)
    c = _int_gcd(*P.values(), *Q.values())
    if mp < 0 or mq < 0:
        # a constant side: the gcd is the integer content both share
        return {0: c}, _ip_scale_down(P, c), _ip_scale_down(Q, c)
    m = max(mp, mq)
    P, Q = _ip_scale_down(P, c), _ip_scale_down(Q, c)
    xi = 2 * min(max(map(abs, P.values())), max(map(abs, Q.values()))) + 29
    while True:
        Pxi, Qxi = _ip_eval(P, m, xi, n), _ip_eval(Q, m, xi, n)
        if Pxi and Qxi:
            H = _ip_interpolate(_heu_gcd(Pxi, Qxi, n)[0], m, xi, n)
            H = _ip_scale_down(H, _int_gcd(*H.values()))
            try:
                return _ip_scale(H, c), _ip_divexact(P, H, n), _ip_divexact(Q, H, n)
            except ValueError:
                pass
        xi = 73794 * xi * isqrt(isqrt(xi)) // 27011


def poly_gcd(p: MultiPoly, q: MultiPoly) -> tuple[MultiPoly, MultiPoly, MultiPoly]:
    """Monic gcd g of two polynomials over one variable tuple, with cofactors.

    Returns (g, p/g, q/g).  The gcd of the integer numerators comes from
    GCDHEU (above): evaluation at a large integer, one integer gcd, and
    xi-adic interpolation, retried at larger points until it divides both
    numerators exactly; that division certifies the gcd and gives the
    cofactors.  A nonzero constant input goes through GCDHEU's content
    branch, which gives g = 1.  Both-zero input is a usage error.
    """
    if not isinstance(p, MultiPoly) or not isinstance(q, MultiPoly):
        raise TypeError("poly_gcd expects two MultiPoly arguments")
    if p.vars != q.vars:
        raise ValueError(f"mismatched variable lists {p.vars} vs {q.vars}")
    if not (p or q):
        raise ValueError("gcd(0, 0) is undefined")
    if not (p and q):
        nonzero = p or q
        lc = nonzero.lc()
        g, unit = (1 / lc) * nonzero, MultiPoly.const(p.vars, lc)
        return (g, unit, q) if p else (g, p, unit)
    G, CP, CQ = _heu_gcd(p.terms, q.terms, len(p.vars))
    # g = G / lc(G) is monic, so p / g = CP * lc(G) / p.den
    lc = G[max(G)]
    sign = 1 if lc > 0 else -1
    g = _make(p.vars, _ip_scale(G, sign), lc * sign)
    return g, _make(p.vars, _ip_scale(CP, lc), p.den), _make(p.vars, _ip_scale(CQ, lc), q.den)
