"""Reference operations the tests share and the package does not need."""

from baxcheck.exactnum import FieldMatrix


def kron(a: FieldMatrix, b: FieldMatrix) -> FieldMatrix:
    """Tensor (Kronecker) product: entry ((i, p), (j, q)) is a[i, j] * b[p, q]."""
    return FieldMatrix.from_rows([
        [a[i, j] * b[p, q] for j in range(a.cols) for q in range(b.cols)]
        for i in range(a.rows) for p in range(b.rows)
    ])
