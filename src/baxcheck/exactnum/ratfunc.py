"""Rational functions in canonical form.

A RatFunc is a reduced fraction num/den of MultiPoly over the same variable
tuple: gcd(num, den) = 1 and den is monic under the global graded-lex order.
This makes the stored representation unique for a given function, so equality
is structural and reports are reproducible.

The constructor is the one canonicalisation route: a sum, a product or a
quotient is RatFunc(num, den) of the cross-multiplied pair, so any result is
the one canonical form.  It is also the one way a polynomial p becomes a
rational function, RatFunc(p): arithmetic takes a RatFunc, an int or a
Fraction, and a MultiPoly operand is a TypeError.  A sum of two
denominator-1 operands takes no gcd.  A sum of two nonconstant denominators
takes one gcd of the full pair; no job parameter forms one (job parameters
are rationals or symbols, so every rep entry is a polynomial).  On the
library-only input H_series(B3_2dim at nu = t/(t + 1), 1, 8) this costs
20 ms against 8 ms with Henrici's operand-sized gcds (JACM 1956), min of 7
on a 2-vCPU host under Python 3.11.  Evaluation is one call of
poly.evaluator, which owns the pole check (PoleError).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .poly import MultiPoly, evaluator, poly_gcd


class RatFunc:
    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly | None = None):
        if den is not None:
            if num.vars != den.vars:
                raise ValueError(f"mismatched variable lists {num.vars} vs {den.vars}")
            if not den:
                raise ZeroDivisionError("zero divisor")
        if den is None or not num:  # a polynomial over 1 is already canonical, and zero is 0/1
            self.num, self.den = num, MultiPoly.const(num.vars, 1)
            return
        # constants are units: no gcd needed when either side is constant
        if not (num.is_constant() or den.is_constant()):
            _, num, den = poly_gcd(num, den)
        if den.terms[max(den.terms)] != den.den:  # lc != 1: terms/den is in lowest terms, den > 0
            unit = 1 / den.lc()
            num, den = unit * num, unit * den
        self.num, self.den = num, den

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, vars: tuple[str, ...], value) -> "RatFunc":
        return cls(MultiPoly.const(vars, value))

    @classmethod
    def var(cls, vars: tuple[str, ...], name: str) -> "RatFunc":
        return cls(MultiPoly.var(vars, name))

    # -- queries -----------------------------------------------------------

    @property
    def vars(self) -> tuple[str, ...]:
        return self.num.vars

    def __bool__(self) -> bool:
        return bool(self.num)

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
        if type(other) is int or isinstance(other, Fraction):  # a bool is refused, as a float is
            return RatFunc.const(self.vars, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

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
        """Exact value at a full assignment, one evaluator call; PoleError on a denominator zero."""
        (((n,), d),) = evaluator(self.den, [self.num])([point])
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
        if self.den.is_constant():  # a constant monic denominator is 1
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

