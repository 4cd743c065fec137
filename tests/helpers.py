"""Reference operations the tests share and the package does not need."""

from baxcheck.exactnum import ClearedMatrix, FieldMatrix, PoleError, RatFunc


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


def cleared_value(c: ClearedMatrix) -> FieldMatrix:
    """The RatFunc matrix M / (f_1 ... f_k) that a cleared matrix stands for, built by RatFunc arithmetic."""
    den = RatFunc.one(c.M.entries[0].vars)
    for f in c.factors:
        den = den * RatFunc(f)
    return c.M.map_entries(lambda e: RatFunc(e) / den)
