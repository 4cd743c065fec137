"""Reference operations the tests share and the package does not need."""

import math

from baxcheck.exactnum import ClearedMatrix, FieldMatrix, PoleError, RatFunc


def kron(a: FieldMatrix, b: FieldMatrix) -> FieldMatrix:
    """Tensor (Kronecker) product: entry ((i, p), (j, q)) is a[i, j] * b[p, q]."""
    return FieldMatrix.from_rows([
        [a[i, j] * b[p, q] for j in range(a.cols) for q in range(b.cols)]
        for i in range(a.rows) for p in range(b.rows)
    ])


def tensor_legs(S: FieldMatrix, n: int, one) -> dict[int, FieldMatrix]:
    """sigma_i = 1^(i-1) (x) S (x) 1^(n-1-i) on n legs of dimension d, for a d^2 x d^2 site matrix S, i = 1 .. n-1."""
    d = math.isqrt(S.rows)
    return {
        i: kron(kron(FieldMatrix.identity(d ** (i - 1), one), S), FieldMatrix.identity(d ** (n - 1 - i), one))
        for i in range(1, n)
    }


def rename_ratfunc(e: RatFunc, mapping) -> RatFunc:
    """e with variables renamed in its numerator and denominator; PoleError when the denominator vanishes."""
    den = e.den.rename(mapping)
    if not den:
        raise PoleError(f"substitution {mapping} annihilates the denominator of {e}")
    return RatFunc(e.num.rename(mapping), den)


def cleared_value(c: ClearedMatrix) -> FieldMatrix:
    """The RatFunc matrix M / (f_1 ... f_k) that a cleared matrix stands for, built by RatFunc arithmetic."""
    den = RatFunc.const(c.M.entries[0].vars, 1)
    for f in c.factors:
        den = den * RatFunc(f)
    return c.M.map_entries(lambda e: RatFunc(e) / den)
