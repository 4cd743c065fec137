"""Arbitrary-precision rational scalars.

The coefficient field everywhere in this package is the rationals.  We use
:class:`fractions.Fraction`, which already maintains the canonical form we
need (reduced, positive denominator, zero stored as 0/1).  Scalars cross
module boundaries as strings "p" or "p/q" with q > 0 (never symbol names).
Each argument a caller passes in has one gate per kind, whose ValueError the
job schema reports as it is: as_scalar for a rational, as_int for a count,
an index or a seed (an int, never a bool), one_of for a name, as_bool for a
flag and as_list for a nonempty list or tuple.
"""

from __future__ import annotations

import re
from fractions import Fraction

_SCALAR_RE = re.compile(r"([+-]?\d+)(?:/([1-9]\d*))?", re.ASCII)


def parse_scalar(text: str) -> Fraction:
    """Parse "p" or "p/q" (q > 0, ASCII digits) into an exact rational.

    Raises ValueError on anything else, including "1/0", decimal points,
    non-ASCII digits and surrounding whitespace of any kind.
    """
    if not isinstance(text, str):
        raise ValueError(f"scalar must be a string, got {type(text).__name__}")
    m = _SCALAR_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"malformed scalar {text!r}: expected 'p' or 'p/q' with q > 0")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    return Fraction(num, den)


def as_scalar(value) -> Fraction:
    """A Fraction as it is, an int as a Fraction, a str ("p" or "p/q") through parse_scalar.

    Anything else, a float or a bool included, raises ValueError: a binary
    float is not the rational its decimal text names, and True is not 1.
    """
    if isinstance(value, Fraction):
        return value
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, str):
        return parse_scalar(value)
    raise ValueError(f"scalar must be an int, a Fraction or a 'p/q' string, got {value!r}")


def as_int(value, what: str, floor: int | None = None, cap: int | None = None) -> int:
    """value itself when it is an int (not a bool) in floor..cap; ValueError naming what otherwise."""
    if type(value) is not int:
        raise ValueError(f"{what}: expected an integer")
    if floor is not None and value < floor:
        raise ValueError(f"{what}: at least {floor}, got {value}")
    if cap is not None and value > cap:
        raise ValueError(f"{what}: at most {cap}, got {value}")
    return value


def one_of(value, options: tuple, what: str):
    """value itself when it is one of options; ValueError naming what otherwise."""
    if value not in options:
        raise ValueError(f"unknown {what} {value!r}, expected one of {options}")
    return value


def as_bool(value, what: str) -> bool:
    """value itself when it is a bool; ValueError naming what otherwise."""
    if not isinstance(value, bool):
        raise ValueError(f"{what}: expected true or false")
    return value


def as_list(value, what: str, cap: int | None = None) -> list | tuple:
    """value itself when it is a nonempty list or tuple of at most cap items; ValueError naming what otherwise."""
    if not isinstance(value, (list, tuple)) or not value:
        raise ValueError(f"{what}: expected a nonempty list")
    if cap is not None and len(value) > cap:
        raise ValueError(f"{what}: at most {cap} items, got {len(value)}")
    return value


def format_scalar(value) -> str:
    """Render a rational (read by as_scalar) as "p" or "p/q"."""
    value = as_scalar(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
