"""Sparse multivariate polynomials over the rationals.

A polynomial is a dict mapping exponent tuples to nonzero int numerators over
one positive int denominator, with a fixed tuple of variable names; the zero
polynomial is the empty dict over 1.  The pair is kept in lowest terms (the
denominator and all numerators have gcd 1), so the stored form of a
polynomial is unique and equality is structural.  All arithmetic is exact and
runs on the integer kernel below; rational coefficients appear only at the
interface (construction, leading terms, evaluation, serialization).

`poly_gcd` returns the monic gcd together with both cofactors.  It runs the
heuristic GCDHEU of Char, Geddes & Gonnet (evaluate at a large integer, take
one integer gcd, interpolate back) and certifies each result by exact
division, which also yields the cofactors; a subresultant remainder sequence
is kept only as the fallback when the heuristic gives up.

The variable order is global and deterministic: the spectral symbols
x, y, z, v come first (in that order), every other symbol follows
alphabetically.  Monomials compare in graded lexicographic order where the
later variable in the tuple is the more significant one, so canonical forms
(leading terms, monic normalization) are reproducible across runs.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd, isqrt, lcm as _int_lcm
from operator import add
from typing import Iterable, Iterator, Mapping

SPECTRAL = ("x", "y", "z", "v")


def canonical_vars(names: Iterable[str]) -> tuple[str, ...]:
    """Order symbol names: spectral variables first, the rest alphabetically."""
    names = set(names)
    head = [s for s in SPECTRAL if s in names]
    tail = sorted(n for n in names if n not in SPECTRAL)
    return tuple(head + tail)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected a rational scalar, got {type(value).__name__}")


def _grlex_key(exp: tuple[int, ...]) -> tuple:
    # Later variables are more significant, so compare reversed exponents.
    return (sum(exp), tuple(reversed(exp)))


class MultiPoly:
    """Exact sparse polynomial in a fixed, ordered tuple of variables."""

    __slots__ = ("vars", "terms", "den")

    def __init__(self, vars: tuple[str, ...], terms: Mapping[tuple[int, ...], Fraction | int] | None = None):
        self.vars = tuple(vars)
        nvars = len(self.vars)
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for exp, coeff in terms.items():
                coeff = _as_fraction(coeff)
                if coeff == 0:
                    continue
                if len(exp) != nvars:
                    raise ValueError(f"exponent {exp} does not match {nvars} variables")
                clean[tuple(exp)] = coeff
        # over the lcm of reduced denominators the numerators are already coprime to it
        den = _int_lcm(*(c.denominator for c in clean.values()))
        self.terms = {exp: c.numerator * (den // c.denominator) for exp, c in clean.items()}
        self.den = den

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, vars: tuple[str, ...]) -> "MultiPoly":
        return cls(vars)

    @classmethod
    def const(cls, vars: tuple[str, ...], value) -> "MultiPoly":
        return cls(vars, {(0,) * len(vars): value})

    @classmethod
    def var(cls, vars: tuple[str, ...], name: str) -> "MultiPoly":
        if name not in vars:
            raise ValueError(f"unknown variable {name!r} (have {vars})")
        exp = [0] * len(vars)
        exp[vars.index(name)] = 1
        return cls(vars, {tuple(exp): 1})

    # -- basic queries -----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.vars == other.vars and self.den == other.den and self.terms == other.terms

    __hash__ = None  # mutable mapping inside

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exp) for exp in self.terms)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (usage error otherwise)."""
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return Fraction(next(iter(self.terms.values())), self.den)

    def valuation_in(self, name: str) -> int | None:
        """Smallest exponent of `name` over all terms; None for the zero polynomial."""
        if not self.terms:
            return None
        i = self.vars.index(name)
        return min(exp[i] for exp in self.terms)

    def leading(self) -> tuple[tuple[int, ...], Fraction]:
        """Leading (exponent, coefficient) under graded lex; usage error if zero."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exp = max(self.terms, key=_grlex_key)
        return exp, Fraction(self.terms[exp], self.den)

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
        if isinstance(other, (int, Fraction)):
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

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _make(self.vars, _ip_mul(self.terms, other.terms), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = MultiPoly.const(self.vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def scale(self, factor) -> "MultiPoly":
        """Multiply by a rational scalar."""
        factor = _as_fraction(factor)
        if not factor:
            return MultiPoly(self.vars)
        return _make(self.vars, _ip_scale(self.terms, factor.numerator), self.den * factor.denominator)

    # -- normal forms ------------------------------------------------------

    def monic(self) -> "MultiPoly":
        """Scale so the graded-lex leading coefficient is 1."""
        if not self.terms:
            return self
        return self.scale(1 / self.leading()[1])

    def divexact(self, divisor: "MultiPoly") -> "MultiPoly":
        """Exact division; raises ValueError when the division is not exact."""
        divisor = self._coerce(divisor)
        if divisor is None or divisor.is_zero:
            raise ValueError("division by zero polynomial")
        # self / divisor = (A / Bp) * den_b / (den_a * content(B)) for the
        # primitive part Bp of B; by Gauss's lemma A / Bp is integral when exact
        content = _int_gcd(*divisor.terms.values())
        primitive = {exp: c // content for exp, c in divisor.terms.items()}
        quot = _ip_divexact(self.terms, primitive)
        return _make(self.vars, _ip_scale(quot, divisor.den), self.den * content)

    # -- evaluation / substitution ------------------------------------------

    def eval(self, point: Mapping[str, Fraction]) -> Fraction:
        """Evaluate at a full assignment of all variables."""
        missing = [v for v in self.vars if v not in point]
        if missing:
            raise ValueError(f"missing assignment for {missing}")
        values = [_as_fraction(point[v]) for v in self.vars]
        total = Fraction(0)
        for exp, coeff in self.terms.items():
            term = coeff
            for e, val in zip(exp, values):
                if e:
                    term *= val**e
            total += term
        return total / self.den

    def rename(self, mapping: Mapping[str, str]) -> "MultiPoly":
        """Substitute variables by variables (e.g. y := x), staying in the same ring.

        Every target must already be one of this polynomial's variables.
        """
        for src, dst in mapping.items():
            if src not in self.vars or dst not in self.vars:
                raise ValueError(f"unknown variable in substitution {src!r}->{dst!r}")
        idx = {name: k for k, name in enumerate(self.vars)}
        out: _IntPoly = {}
        for exp, coeff in self.terms.items():
            new = [0] * len(self.vars)
            for k, e in enumerate(exp):
                tgt = mapping.get(self.vars[k], self.vars[k])
                new[idx[tgt]] += e
            key = tuple(new)
            acc = out.get(key, 0) + coeff
            if acc:
                out[key] = acc
            else:
                out.pop(key, None)
        return _make(self.vars, out, self.den)

    def lift(self, new_vars: tuple[str, ...]) -> "MultiPoly":
        """Embed into a ring with more variables (must contain the current ones)."""
        if tuple(new_vars) == self.vars:
            return self
        pos = []
        for name in self.vars:
            if name not in new_vars:
                raise ValueError(f"target variables {new_vars} do not contain {name!r}")
            pos.append(new_vars.index(name))
        out: _IntPoly = {}
        for exp, coeff in self.terms.items():
            new = [0] * len(new_vars)
            for p, e in zip(pos, exp):
                new[p] = e
            out[tuple(new)] = coeff
        return _make(tuple(new_vars), out, self.den)

    # -- serialization ------------------------------------------------------

    def sorted_terms(self) -> Iterator[tuple[tuple[int, ...], Fraction]]:
        """Terms in descending graded-lex order (the canonical term list)."""
        for exp in sorted(self.terms, key=_grlex_key, reverse=True):
            yield exp, Fraction(self.terms[exp], self.den)

    def serialize(self) -> list[list]:
        from .scalar import format_scalar

        return [[list(exp), format_scalar(coeff)] for exp, coeff in self.sorted_terms()]

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


# -- integer kernel: products, exact division, and the subresultant gcd --
#
# These work on MultiPoly numerators directly.  `_ip_gcd` runs a primitive
# subresultant remainder sequence, recursive on variables; its divisor
# bookkeeping keeps intermediate coefficients small without per-step content
# extraction.  It is only the fallback of the heuristic gcd further down.

_IntPoly = dict  # exponent tuple -> nonzero int


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


def _ip_sub(P: _IntPoly, Q: _IntPoly) -> _IntPoly:
    out = dict(P)
    for e, c in Q.items():
        acc = out.get(e, 0) - c
        if acc:
            out[e] = acc
        else:
            out.pop(e, None)
    return out


def _ip_mul(P: _IntPoly, Q: _IntPoly) -> _IntPoly:
    if not P or not Q:
        return {}
    out: _IntPoly = {}
    get = out.get
    for ea, ca in P.items():
        for eb, cb in Q.items():
            e = tuple(map(add, ea, eb))
            acc = get(e, 0) + ca * cb
            if acc:
                out[e] = acc
            else:
                out.pop(e, None)
    return out


def _ip_pow(P: _IntPoly, n: int) -> _IntPoly:
    # P is never zero here (subresultant divisors are nonzero)
    if n == 0:
        return {(0,) * len(next(iter(P))): 1}
    out = P
    for _ in range(n - 1):
        out = _ip_mul(out, P)
    return out


def _ip_max_used(P: _IntPoly) -> int | None:
    best = None
    for exp in P:
        for k in range(len(exp) - 1, -1, -1):
            if exp[k]:
                if best is None or k > best:
                    best = k
                break
    return best


def _ip_deg(P: _IntPoly, m: int) -> int:
    return max((e[m] for e in P), default=0)


def _ip_coeff(P: _IntPoly, m: int, k: int) -> _IntPoly:
    out = {}
    for e, c in P.items():
        if e[m] == k:
            n = list(e)
            n[m] = 0
            out[tuple(n)] = c
    return out


def _ip_shift(P: _IntPoly, m: int, k: int) -> _IntPoly:
    if k == 0:
        return P
    out = {}
    for e, c in P.items():
        n = list(e)
        n[m] += k
        out[tuple(n)] = c
    return out


def _ip_divexact(P: _IntPoly, D: _IntPoly) -> _IntPoly:
    """Exact division in Z[vars]; greedy on graded-lex leading terms."""
    if not D:
        raise ValueError("division by zero polynomial")
    if not P:
        return {}
    if len(D) == 1:
        # a monomial (such as the gcd 1 of coprime inputs): one pass, no leading-term search
        ((ed, cd),) = D.items()
        quot: _IntPoly = {}
        for e, c in P.items():
            q, r = divmod(c, cd)
            e = tuple(i - j for i, j in zip(e, ed))
            if r or min(e) < 0:
                raise ValueError("inexact polynomial division")
            quot[e] = q
        return quot
    ed = max(D, key=_grlex_key)
    cd = D[ed]
    quot = {}
    rem = dict(P)
    while rem:
        er = max(rem, key=_grlex_key)
        cr = rem[er]
        e = tuple(i - j for i, j in zip(er, ed))
        if any(v < 0 for v in e) or cr % cd:
            raise ValueError("inexact polynomial division")
        q = cr // cd
        quot[e] = q
        for ed2, cd2 in D.items():
            key = tuple(i + j for i, j in zip(e, ed2))
            acc = rem.get(key, 0) - q * cd2
            if acc:
                rem[key] = acc
            else:
                rem.pop(key, None)
    return quot


def _ip_prem(A: _IntPoly, B: _IntPoly, m: int) -> _IntPoly:
    """Standard pseudo-remainder lc(B)^(dA-dB+1) * A mod B, wrt variable m."""
    db = _ip_deg(B, m)
    lb = _ip_coeff(B, m, db)
    R = A
    dr = _ip_deg(R, m)
    e = dr - db + 1
    while R and dr >= db:
        lr = _ip_coeff(R, m, dr)
        R = _ip_sub(_ip_mul(lb, R), _ip_shift(_ip_mul(lr, B), m, dr - db))
        e -= 1
        dr = _ip_deg(R, m)
    if R and e > 0:
        R = _ip_mul(_ip_pow(lb, e), R)
    return R


def _ip_content_wrt(P: _IntPoly, m: int) -> _IntPoly:
    acc: _IntPoly | None = None
    one_exp = (0,) * len(next(iter(P)))
    for k in range(_ip_deg(P, m) + 1):
        c = _ip_coeff(P, m, k)
        if not c:
            continue
        acc = c if acc is None else _ip_gcd(acc, c)
        if acc == {one_exp: 1}:
            break
    assert acc is not None
    return acc


def _ip_gcd(P: _IntPoly, Q: _IntPoly) -> _IntPoly:
    """gcd in Z[vars] (sign not normalized), subresultant PRS on the top variable."""
    mp, mq = _ip_max_used(P), _ip_max_used(Q)
    if mp is None and mq is None:
        g = 0
        for c in P.values():
            g = _int_gcd(g, c)
        for c in Q.values():
            g = _int_gcd(g, c)
        exp = (0,) * len(next(iter(P))) if P else (0,) * len(next(iter(Q)))
        return {exp: g}
    if mp is None or (mq is not None and mp < mq):
        return _ip_gcd(P, _ip_content_wrt(Q, mq))
    if mq is None or mq < mp:
        return _ip_gcd(_ip_content_wrt(P, mp), Q)
    m = mp
    contP = _ip_content_wrt(P, m)
    contQ = _ip_content_wrt(Q, m)
    cont = _ip_gcd(contP, contQ)
    A = _ip_divexact(P, contP)
    B = _ip_divexact(Q, contQ)
    if _ip_deg(A, m) < _ip_deg(B, m):
        A, B = B, A
    one = {(0,) * len(next(iter(A))): 1}
    g = dict(one)
    h = dict(one)
    while True:
        delta = _ip_deg(A, m) - _ip_deg(B, m)
        R = _ip_prem(A, B, m)
        if not R:
            part = _ip_divexact(B, _ip_content_wrt(B, m))
            break
        if _ip_deg(R, m) == 0:
            part = one
            break
        A, B = B, _ip_divexact(R, _ip_mul(g, _ip_pow(h, delta)))
        g = _ip_coeff(A, m, _ip_deg(A, m))
        if delta == 1:
            h = g
        elif delta > 1:
            h = _ip_divexact(_ip_pow(g, delta), _ip_pow(h, delta - 1))
    return _ip_mul(cont, part)


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

_HEU_TRIES = 6


def _ip_eval(P: _IntPoly, m: int, xi: int) -> _IntPoly:
    """P with variable m set to xi (its exponent slot stays, at 0)."""
    out: _IntPoly = {}
    for e, c in P.items():
        k = e[m]
        if k:
            c *= xi**k
            e = e[:m] + (0,) + e[m + 1 :]
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _ip_interpolate(H: _IntPoly, m: int, xi: int) -> _IntPoly:
    """The polynomial in variable m whose xi-adic symmetric digits are H's coefficients."""
    out: _IntPoly = {}
    half = xi // 2
    for e, c in H.items():
        k = 0
        while c:
            c, d = divmod(c, xi)
            if d > half:
                d -= xi
                c += 1
            if d:
                out[e[:m] + (k,) + e[m + 1 :]] = d
            k += 1
    return out


def _heu_gcd(P: _IntPoly, Q: _IntPoly) -> tuple[_IntPoly, _IntPoly, _IntPoly] | None:
    """(G, P/G, Q/G) with G = gcd(P, Q) up to sign, or None if every xi fails."""
    mp, mq = _ip_max_used(P), _ip_max_used(Q)
    c = _int_gcd(*P.values(), *Q.values())
    if mp is None or mq is None:
        # a constant side: the gcd is the integer content both share
        return {(0,) * len(next(iter(P))): c}, _ip_scale_down(P, c), _ip_scale_down(Q, c)
    m = max(mp, mq)
    P, Q = _ip_scale_down(P, c), _ip_scale_down(Q, c)
    xi = 2 * min(max(map(abs, P.values())), max(map(abs, Q.values()))) + 29
    for _ in range(_HEU_TRIES):
        Pxi, Qxi = _ip_eval(P, m, xi), _ip_eval(Q, m, xi)
        if Pxi and Qxi:
            image = _heu_gcd(Pxi, Qxi)
            if image is None:
                return None
            H = _ip_interpolate(image[0], m, xi)
            H = _ip_scale_down(H, _int_gcd(*H.values()))
            try:
                return _ip_scale(H, c), _ip_divexact(P, H), _ip_divexact(Q, H)
            except ValueError:
                pass
        xi = 73794 * xi * isqrt(isqrt(xi)) // 27011
    return None


def poly_gcd(p: MultiPoly, q: MultiPoly) -> tuple[MultiPoly, MultiPoly, MultiPoly]:
    """Monic gcd g of two polynomials over one variable tuple, with cofactors.

    Returns (g, p/g, q/g).  The gcd of the integer numerators comes from
    GCDHEU (above): evaluation at a large integer, one integer gcd, and
    xi-adic interpolation, accepted only when it divides both numerators
    exactly; that division certifies the gcd and gives the cofactors.  If
    every evaluation point fails, the subresultant remainder sequence
    (`_ip_gcd`) and two exact divisions give the same triple.  Both-zero
    input is a usage error.
    """
    if not isinstance(p, MultiPoly) or not isinstance(q, MultiPoly):
        raise TypeError("poly_gcd expects two MultiPoly arguments")
    if p.vars != q.vars:
        raise ValueError(f"mismatched variable lists {p.vars} vs {q.vars}")
    if p.is_zero and q.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    if p.is_zero or q.is_zero:
        nonzero = q if p.is_zero else p
        g, unit = nonzero.monic(), MultiPoly.const(p.vars, nonzero.leading()[1])
        return (g, p, unit) if p.is_zero else (g, unit, q)
    if p.is_constant() or q.is_constant():
        return MultiPoly.const(p.vars, 1), p, q
    P, Q = p.terms, q.terms
    found = _heu_gcd(P, Q)
    if found is None:
        G = _ip_gcd(P, Q)
        found = G, _ip_divexact(P, G), _ip_divexact(Q, G)
    G, CP, CQ = found
    # g = G / lc(G) is monic, so p / g = CP * lc(G) / p.den
    lc = G[max(G, key=_grlex_key)]
    sign = 1 if lc > 0 else -1
    g = _make(p.vars, _ip_scale(G, sign), lc * sign)
    return g, _make(p.vars, _ip_scale(CP, lc), p.den), _make(p.vars, _ip_scale(CQ, lc), q.den)
