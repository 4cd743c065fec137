"""Rational functions in canonical form.

A RatFunc is a reduced fraction num/den of MultiPoly over the same variable
tuple: gcd(num, den) = 1 and den is monic under the global graded-lex order.
This makes the stored representation unique for a given function, so equality
is structural and reports are reproducible.

The constructor is the one canonicalisation route: a product or a quotient is
RatFunc(num, den) of the cross-multiplied pair, so any result is the one
canonical form.  The exception is a sum of two nonconstant denominators,
which keeps Henrici's operand-sized gcds (Henrici, JACM 1956): through the
constructor, the gcd of the full cross-multiplied pair made
H_series(B3_2dim at nu = t/(t + 1), 1, 8) two to three times slower.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .poly import MultiPoly, eval_cleared, poly_gcd


class PoleError(ArithmeticError):
    """Raised when evaluation hits a zero of the denominator."""


class RatFunc:
    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly | None = None):
        if den is None:  # a polynomial over 1 is already canonical
            self.num, self.den = num, MultiPoly.const(num.vars, 1)
            return
        if num.vars != den.vars:
            raise ValueError(f"mismatched variable lists {num.vars} vs {den.vars}")
        if den.is_zero:
            raise ZeroDivisionError("zero divisor")
        # constants are units: no gcd needed when either side is constant
        if not (num.is_zero or num.is_constant() or den.is_constant()):
            _, num, den = poly_gcd(num, den)
        canonical = _reduced(num, den)
        self.num, self.den = canonical.num, canonical.den

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, vars: tuple[str, ...], value) -> "RatFunc":
        return cls(MultiPoly.const(vars, value))

    @classmethod
    def zero(cls, vars: tuple[str, ...]) -> "RatFunc":
        return cls(MultiPoly.zero(vars))

    @classmethod
    def one(cls, vars: tuple[str, ...]) -> "RatFunc":
        return cls(MultiPoly.const(vars, 1))

    @classmethod
    def var(cls, vars: tuple[str, ...], name: str) -> "RatFunc":
        return cls(MultiPoly.var(vars, name))

    # -- queries -----------------------------------------------------------

    @property
    def vars(self) -> tuple[str, ...]:
        return self.num.vars

    def __bool__(self) -> bool:
        return not self.num.is_zero

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self) -> Fraction:
        return self.num.constant_value() / self.den.constant_value()

    def num_terms(self) -> int:
        return self.num.num_terms() + self.den.num_terms()

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    __hash__ = None

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "RatFunc | None":
        if isinstance(other, RatFunc):
            if self.vars != other.vars:
                raise ValueError(f"mismatched variable lists {self.vars} vs {other.vars}")
            return other
        if isinstance(other, (int, Fraction)):
            return RatFunc.const(self.vars, other)
        if isinstance(other, MultiPoly):
            return RatFunc(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        # Henrici's reduced addition, the one route besides the constructor: all gcds
        # stay operand-sized.  A constant denominator on either side (every sum in the
        # perfbench workloads) takes no gcd at all.
        d1, d2 = self.den, other.den
        if d1.is_constant() or d2.is_constant():
            return _reduced(self.num * d2 + other.num * d1, d1 * d2)
        g, d1g, d2g = poly_gcd(d1, d2)
        t = self.num * d2g + other.num * d1g
        if g.is_constant() or t.is_constant():
            return _reduced(t, d1g * d2)
        # t is coprime to d1g and d2g, so its gcd with d1g * g * d2g divides g
        h, th, gh = poly_gcd(t, g)
        return _reduced(th, d1g * d2 if h.is_constant() else d1g * gh * d2g)

    __radd__ = __add__

    def __neg__(self):
        out = RatFunc.__new__(RatFunc)
        out.num = -self.num
        out.den = self.den
        return out

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RatFunc(self.num * other.den, self.den * other.num)  # a zero divisor raises in RatFunc()

    # -- evaluation / substitution -------------------------------------------

    def eval(self, point: Mapping[str, Fraction]) -> Fraction:
        """Exact value at a full assignment; raises PoleError on a denominator zero."""
        (n, d), _ = eval_cleared([self.num, self.den], point)
        if d == 0:
            raise PoleError(f"pole of {self} at {dict(point)}")
        return Fraction(n, d)

    def lift(self, new_vars: tuple[str, ...]) -> "RatFunc":
        if tuple(new_vars) == self.vars:
            return self
        out = RatFunc.__new__(RatFunc)
        out.num = self.num.lift(new_vars)
        out.den = self.den.lift(new_vars)
        return out

    # -- formatting ------------------------------------------------------------

    def __str__(self) -> str:
        if self.den.is_constant() and self.den.constant_value() == 1:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RatFunc({self})"


def denominator_lcm(values, vars: tuple[str, ...]) -> MultiPoly:
    """lcm of the denominators of the RatFunc values, accumulated in order."""
    den = MultiPoly.const(vars, 1)
    for e in values:
        if e.den.is_constant():
            den = den * e.den
            continue
        _, den_g, _ = poly_gcd(den, e.den)
        den = den_g * e.den
    return den


def _reduced(num: MultiPoly, den: MultiPoly) -> RatFunc:
    """Build a RatFunc from an already-coprime num/den pair (monic pass only)."""
    out = RatFunc.__new__(RatFunc)
    if num.is_zero:
        den = MultiPoly.const(num.vars, 1)
    elif den.terms[max(den.terms)] != den.den:  # lc != 1: terms/den is in lowest terms, den > 0
        lc = den.lc()
        num, den = num.scale(1 / lc), den.scale(1 / lc)
    out.num = num
    out.den = den
    return out
