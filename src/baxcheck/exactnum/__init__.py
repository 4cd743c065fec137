"""Exact arithmetic core: rationals, sparse polynomials, rational functions,
and dense matrices over any of them with fraction-free inversion."""

from .scalar import format_scalar, parse_scalar
from .poly import MultiPoly, PoleError, canonical_vars, poly_gcd
from .ratfunc import RatFunc
from .matrix import ClearedMatrix, FieldMatrix, SingularMatrixError, split_factors

__all__ = [
    "ClearedMatrix",
    "FieldMatrix",
    "MultiPoly",
    "PoleError",
    "RatFunc",
    "SingularMatrixError",
    "canonical_vars",
    "format_scalar",
    "parse_scalar",
    "poly_gcd",
    "split_factors",
]
