"""Sparse multivariate polynomials over the rationals.

A polynomial is a dict mapping exponent tuples to nonzero int numerators over
one positive int denominator, with a fixed tuple of variable names; the zero
polynomial is the empty dict over 1.  The pair is kept in lowest terms (the
denominator and all numerators have gcd 1), so the stored form of a
polynomial is unique and equality is structural.  All arithmetic is exact and
runs on the integer kernel below; rational coefficients appear only at the
interface (construction, leading terms, evaluation, serialization).

The variable order is global and deterministic: the spectral symbols
x, y, z, v come first (in that order), every other symbol follows
alphabetically.  Monomials compare in graded lexicographic order where the
later variable in the tuple is the more significant one, so canonical forms
(leading terms, monic normalization) are reproducible across runs.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd, lcm as _int_lcm
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


# -- integer kernel: products, exact division, and the gcd by a primitive
# subresultant remainder sequence, recursive on variables --
#
# These work on MultiPoly numerators directly; the subresultant divisor
# bookkeeping keeps intermediate coefficients small without per-step content
# extraction.

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
    ed = max(D, key=_grlex_key)
    cd = D[ed]
    quot: _IntPoly = {}
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


def _iu_prem(u: dict, v: dict) -> dict:
    """Univariate integer pseudo-remainder (exponent -> coefficient dicts)."""
    dv = max(v)
    lv = v[dv]
    r = dict(u)
    dr = max(r, default=-1)
    e = dr - dv + 1
    while r and dr >= dv:
        lr = r[dr]
        nr: dict = {}
        for k, c in r.items():
            nr[k] = c * lv
        for k, c in v.items():
            key = k + dr - dv
            acc = nr.get(key, 0) - lr * c
            if acc:
                nr[key] = acc
            else:
                nr.pop(key, None)
        r = nr
        e -= 1
        dr = max(r, default=-1)
    if r and e > 0:
        s = lv**e
        r = {k: c * s for k, c in r.items()}
    return r


def _iu_content(u: dict) -> int:
    g = 0
    for c in u.values():
        g = _int_gcd(g, c)
    return g


def _iu_gcd(u: dict, v: dict) -> dict:
    """Primitive gcd of univariate integer polynomials (subresultant PRS)."""
    if not u:
        return v
    if not v:
        return u
    cu, cv = _iu_content(u), _iu_content(v)
    cont = _int_gcd(cu, cv)
    a = {k: c // cu for k, c in u.items()}
    b = {k: c // cv for k, c in v.items()}
    if max(a) < max(b):
        a, b = b, a
    g = h = 1
    while True:
        delta = max(a) - max(b)
        r = _iu_prem(a, b)
        if not r:
            cb = _iu_content(b)
            part = {k: c // cb for k, c in b.items()}
            break
        if max(r) == 0:
            part = {0: 1}
            break
        divisor = g * h**delta
        a, b = b, {k: c // divisor for k, c in r.items()}
        g = a[max(a)]
        if delta == 1:
            h = g
        elif delta > 1:
            h = g**delta // h ** (delta - 1)
    return {k: c * cont for k, c in part.items()}


def _ip_specialize(P: _IntPoly, m: int, vals: dict[int, int]) -> dict:
    """Evaluate all variables except index m at integer values; univariate result."""
    out: dict = {}
    for exp, coeff in P.items():
        term = coeff
        for idx, e in enumerate(exp):
            if idx == m or not e:
                continue
            term *= vals[idx] ** e
        if term:
            acc = out.get(exp[m], 0) + term
            if acc:
                out[exp[m]] = acc
            else:
                out.pop(exp[m], None)
    return out


_PROBE_POINTS = (
    {"mult": 3, "add": 2},
    {"mult": 5, "add": -3},
    {"mult": 7, "add": 5},
    {"mult": 11, "add": -7},
)


def _probe_gcd_degree(A: _IntPoly, B: _IntPoly, m: int) -> int | None:
    """Degree in variable m of gcd(A, B) after a random integer specialization.

    The specialized gcd degree is an upper bound for the true one, so a
    result of 0 proves coprimality in variable m.  Returns None when no
    specialization keeps both leading coefficients alive.
    """
    nvars = len(next(iter(A)))
    da, db = _ip_deg(A, m), _ip_deg(B, m)
    for point in _PROBE_POINTS:
        vals = {idx: (point["mult"] * (idx + 2) + point["add"]) for idx in range(nvars)}
        ua = _ip_specialize(A, m, vals)
        ub = _ip_specialize(B, m, vals)
        if not ua or not ub or max(ua) != da or max(ub) != db:
            continue
        return max(_iu_gcd(ua, ub))
    return None


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
    probe = _probe_gcd_degree(A, B, m)
    if probe == 0:
        return cont
    if probe is not None and probe == _ip_deg(B, m):
        # plausible divisor: certify by one exact division attempt
        try:
            _ip_divexact(A, B)
        except ValueError:
            pass
        else:
            return _ip_mul(cont, B)
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


def poly_gcd(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Monic gcd of two polynomials over the same variable tuple.

    Computed by a subresultant polynomial-remainder sequence with
    content/primitive-part splitting, recursing through the variables over
    integer coefficients.  Both-zero input is a usage error.
    """
    if not isinstance(p, MultiPoly) or not isinstance(q, MultiPoly):
        raise TypeError("poly_gcd expects two MultiPoly arguments")
    if p.vars != q.vars:
        raise ValueError(f"mismatched variable lists {p.vars} vs {q.vars}")
    if p.is_zero and q.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    if p.is_zero:
        return q.monic()
    if q.is_zero:
        return p.monic()
    if p.is_constant() or q.is_constant():
        return MultiPoly.const(p.vars, 1)
    P, Q = p.terms, q.terms
    # split off the monomial gcd so the PRS only sees trimmed inputs
    nvars = len(p.vars)
    mono_p = [min(e[k] for e in P) for k in range(nvars)]
    mono_q = [min(e[k] for e in Q) for k in range(nvars)]
    mono = tuple(min(a, b) for a, b in zip(mono_p, mono_q))
    if any(mono_p):
        P = {tuple(i - j for i, j in zip(e, mono_p)): c for e, c in P.items()}
    if any(mono_q):
        Q = {tuple(i - j for i, j in zip(e, mono_q)): c for e, c in Q.items()}
    G = _ip_gcd(P, Q)
    if any(mono):
        G = {tuple(i + j for i, j in zip(e, mono)): c for e, c in G.items()}
    return _make(p.vars, G, 1).monic()
