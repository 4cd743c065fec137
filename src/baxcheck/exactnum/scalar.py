"""Arbitrary-precision rational scalars.

The coefficient field everywhere in this package is the rationals.  We use
:class:`fractions.Fraction`, which already maintains the canonical form we
need (reduced, positive denominator, zero stored as 0/1).  Scalars cross
module boundaries as strings "p" or "p/q" with q > 0.
"""

from __future__ import annotations

import re
from fractions import Fraction

_SCALAR_RE = re.compile(r"^([+-]?\d+)(?:/([1-9]\d*))?$", re.ASCII)


def parse_scalar(text: str) -> Fraction:
    """Parse "p" or "p/q" (q > 0, ASCII digits) into an exact rational.

    Raises ValueError on anything else, including "1/0", decimal points and
    non-ASCII digits.
    """
    if not isinstance(text, str):
        raise ValueError(f"scalar must be a string, got {type(text).__name__}")
    m = _SCALAR_RE.match(text.strip())
    if m is None:
        raise ValueError(f"malformed scalar {text!r}: expected 'p' or 'p/q' with q > 0")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    return Fraction(num, den)


def as_scalar(value) -> Fraction:
    """An int or a Fraction as a Fraction, a str through parse_scalar.

    Anything else, a float or a bool included, raises ValueError: a binary
    float is not the rational its decimal text names.
    """
    if isinstance(value, str):
        return parse_scalar(value)
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return Fraction(value)
    raise ValueError(f"scalar must be an int, a Fraction or a 'p/q' string, got {value!r}")


def format_scalar(value: Fraction) -> str:
    """Render a rational as "p" or "p/q"."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
