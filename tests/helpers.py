"""Reference operations the tests share and the package does not need."""

from baxcheck.exactnum import FieldMatrix, PoleError, RatFunc


def kron(a: FieldMatrix, b: FieldMatrix) -> FieldMatrix:
    """Tensor (Kronecker) product: entry ((i, p), (j, q)) is a[i, j] * b[p, q]."""
    return FieldMatrix.from_rows([
        [a[i, j] * b[p, q] for j in range(a.cols) for q in range(b.cols)]
        for i in range(a.rows) for p in range(b.rows)
    ])


def rename_ratfunc(e: RatFunc, mapping) -> RatFunc:
    """e with variables renamed in its numerator and denominator; PoleError when the denominator vanishes."""
    den = e.den.rename(mapping)
    if den.is_zero:
        raise PoleError(f"substitution {mapping} annihilates the denominator of {e}")
    return RatFunc(e.num.rename(mapping), den)
