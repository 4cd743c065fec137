"""Dense matrices over an exact ring or field: ints, polynomials or rational functions.

`*` multiplies matrices only (a scalar goes through `scale`); a * M + c * 1 is `shifted`,
and M - N is M + (-N).
Inverses are fraction-free and returned cleared: `cleared` scales the whole
matrix by one common denominator (rational-function entries become
polynomials; an int matrix is already cleared), the adjugate and the
determinant come from the Faddeev–LeVerrier recurrence over that ring (matrix
products, and one exact division of a trace by k per step), and the inverse is
the ring pair (X, D) with no final division pass.  This bounds intermediate
expression swell over rational-function fields and keeps gcds out of the
numeric int inverse.  Identities are summed the same way: a ClearedMatrix is
a polynomial matrix over a list of denominator factors, and sums of them
match factors instead of taking gcds.  It is the one symbolic
cleared form (an R-matrix, an H-operator, both sides of an identity): map
renames or lifts it, and value() is its one canonicalisation.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import reduce
from typing import Callable, Sequence

from .poly import MultiPoly
from .ratfunc import RatFunc, denominator_lcm
from .scalar import as_int


class SingularMatrixError(ArithmeticError):
    """Raised when inverting a matrix whose determinant is zero."""


class FieldMatrix:
    """Row-major dense matrix; entries are int, MultiPoly or RatFunc (one kind
    per matrix).  inv takes int or RatFunc entries to ring ones (int or
    MultiPoly), the kinds adjugate_det takes."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence):
        if rows <= 0 or cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        entries = list(entries)
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "FieldMatrix":
        r = len(rows)
        c = len(rows[0]) if rows else 0  # no rows: the constructor's dimension error
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return cls(r, c, [e for row in rows for e in row])

    @classmethod
    def identity(cls, n: int, one) -> "FieldMatrix":
        n = as_int(n, "n", floor=1)
        zero = one - one
        return cls(n, n, [one if i == j else zero for i in range(n) for j in range(n)])

    # -- access ------------------------------------------------------------

    def __getitem__(self, key: tuple[int, int]):
        i, j = key
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> list:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and all(a == b for a, b in zip(self.entries, other.entries))
        )

    __hash__ = None

    @property
    def is_zero(self) -> bool:
        return all(not e for e in self.entries)

    # -- arithmetic --------------------------------------------------------

    def _check_same_shape(self, other: "FieldMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("matrix shapes differ")

    def __add__(self, other: "FieldMatrix") -> "FieldMatrix":
        self._check_same_shape(other)
        return FieldMatrix(self.rows, self.cols, [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "FieldMatrix") -> "FieldMatrix":
        return self + (-other)

    def __neg__(self) -> "FieldMatrix":
        return FieldMatrix(self.rows, self.cols, [-a for a in self.entries])

    def __mul__(self, other):
        """Matrix product; a scalar factor goes through scale, so any other operand is NotImplemented.

        Sparse on both sides: each nonzero left entry a_it meets only the
        nonzero entries b_tj of right row t, summed into a per-row dict that
        fills a row of zeros.  An entry no product reaches is one shared zero
        of the kind of a * b, built once per product, when first needed.
        """
        if not isinstance(other, FieldMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"incompatible shapes {self.rows}x{self.cols} and {other.rows}x{other.cols}")
        n, m, k = self.rows, other.cols, self.cols
        right = [[(j, b) for j, b in enumerate(other.entries[t * m : (t + 1) * m]) if b] for t in range(k)]
        zero = None
        out = []
        for i in range(n):
            acc = {}
            for a, brow in zip(self.entries[i * k : (i + 1) * k], right):
                if a:
                    for j, b in brow:
                        if j in acc:
                            acc[j] += a * b
                        else:
                            acc[j] = a * b
            if zero is None and len(acc) < m:
                zero = (self.entries[0] * 0) * (other.entries[0] * 0)
            row = [zero] * m
            for j, v in acc.items():
                row[j] = v
            out.extend(row)
        return FieldMatrix(n, m, out)

    def scale(self, scalar) -> "FieldMatrix":
        return FieldMatrix(self.rows, self.cols, [e * scalar for e in self.entries])

    def shifted(self, a, c) -> "FieldMatrix":
        """a * self + c * identity for a square matrix, one product per entry; ValueError when not square."""
        if self.rows != self.cols:
            raise ValueError("shift of a non-square matrix")
        step = self.cols + 1
        return FieldMatrix(self.rows, self.cols, [a * e + c if k % step == 0 else a * e for k, e in enumerate(self.entries)])

    def map_entries(self, fn: Callable) -> "FieldMatrix":
        return FieldMatrix(self.rows, self.cols, [fn(e) for e in self.entries])

    def partial_trace_first(self, dim_first: int) -> "FieldMatrix":
        """Trace out the first tensor factor of size dim_first."""
        dim_first = as_int(dim_first, "dim_first", floor=1)
        if self.rows != self.cols or self.rows % dim_first:
            raise ValueError("matrix is not square with a compatible tensor split")
        m, n, entries = self.rows // dim_first, self.cols, self.entries
        out = []
        for i in range(m):
            # row i of the result sums the diagonal blocks' rows: entries (a*m + i, a*m + j)
            row = entries[i * n : i * n + m]
            for a in range(1, dim_first):
                start = (a * m + i) * n + a * m
                row = list(map(operator.add, row, entries[start : start + m]))
            out.extend(row)
        return FieldMatrix(m, m, out)

    # -- determinant and inverse ---------------------------------------------

    def adjugate_det(self) -> tuple["FieldMatrix", object]:
        """(adj, det) over the entry ring, with adj * self = det * identity.

        Entries must be ring elements, MultiPoly or int (clear field
        denominators first); any other entry raises TypeError.  Faddeev–LeVerrier:
        B_1 = M + c_1 and B_k = M B_(k-1) + c_k with c_k = -tr(M B_(k-1)) / k, a
        coefficient of det(t - M), so the division is exact.  adj = (-1)^(n-1) B_(n-1)
        after n - 2 matrix products, and det = sum_j self[0, j] adj[j, 0].
        """
        if self.rows != self.cols:
            raise ValueError("adjugate of a non-square matrix")
        n, entries = self.rows, self.entries
        if all(isinstance(e, int) for e in entries):
            one, coeff = 1, lambda tr, k: -tr // k
        elif all(isinstance(e, MultiPoly) for e in entries):
            one, coeff = MultiPoly.const(entries[0].vars, 1), lambda tr, k: Fraction(-1, k) * tr
        else:
            raise TypeError("adjugate_det needs MultiPoly or int entries; clear denominators first")
        if n == 1:
            return FieldMatrix(1, 1, [one]), entries[0]
        B, diag = self, range(0, n * n, n + 1)
        for k in range(1, n):
            if k > 1:
                B = self * B
            out = list(B.entries)
            c = coeff(sum((out[i] for i in diag[1:]), out[0]), k)
            for i in diag:
                out[i] = out[i] + c
            B = FieldMatrix(n, n, out)
        adj = B if n % 2 else -B
        det = reduce(operator.add, map(operator.mul, entries[:n], adj.entries[::n]))
        return adj, det

    def inv(self) -> tuple["FieldMatrix", object]:
        """The exact inverse, cleared: (X, D) over the entry ring with self * X = X * self = D * identity.

        X = c * adj(M) and D = det(M) for M, c = self.cleared(): ints from int
        entries, MultiPoly from RatFunc entries; an int c = 1 leaves adj(M)
        unscaled.  Raises TypeError for any other entry, ValueError for a
        non-square matrix and SingularMatrixError when D = 0.
        """
        M, c = self.cleared()
        adj, det = M.adjugate_det()
        if not det:
            raise SingularMatrixError("singular matrix: determinant is 0")
        return (adj if c == 1 else adj.scale(c)), det

    def cleared(self) -> tuple["FieldMatrix", object]:
        """(M, D) with M = D * self over the entry ring and D the lcm of the entry denominators.

        An int matrix is itself over 1; RatFunc entries clear to MultiPoly over
        a MultiPoly D.  MultiPoly, or any other entry, raises TypeError.
        """
        if all(type(e) is int for e in self.entries):
            return self, 1
        if not all(isinstance(e, RatFunc) for e in self.entries):
            raise TypeError("clearing denominators needs int or RatFunc entries; use adjugate_det over MultiPoly")
        D = denominator_lcm(self.entries, self.entries[0].vars)
        return self.map_entries(lambda e: e.num * D.divexact(e.den)), D

    def __str__(self) -> str:
        return "[" + "; ".join(", ".join(str(e) for e in self.row(i)) for i in range(self.rows)) + "]"

    def __repr__(self) -> str:
        return f"FieldMatrix({self.rows}x{self.cols}, {self})"


class ClearedMatrix:
    """The matrix M / (f_1 ... f_k): a ring matrix M over a list of nonzero ring factors, never expanded.

    A product concatenates the factor lists.  A sum runs over their union, each
    side scaled by the factors it lacks (split_factors), so it needs no gcd.
    The value is zero exactly when M is.  Unit factors are dropped, so a
    denominator 1 leaves no factor at all.
    """

    __slots__ = ("M", "factors")

    def __init__(self, M: FieldMatrix, *factors):
        self.M, self.factors = M, [f for f in factors if not (f.is_constant() and f.constant_value() == 1)]

    def __mul__(self, other: "ClearedMatrix") -> "ClearedMatrix":
        return ClearedMatrix(self.M * other.M, *self.factors, *other.factors)

    def scale(self, num, *dens) -> "ClearedMatrix":
        """This matrix times the scalar num / (dens[0] ... dens[-1]), each den a further factor."""
        return ClearedMatrix(self.M.scale(num), *self.factors, *dens)

    def __add__(self, other: "ClearedMatrix") -> "ClearedMatrix":
        mine, theirs, _ = split_factors(self.factors, other.factors)
        lhs, rhs = (m.scale(math.prod(fs)) if fs else m for m, fs in ((self.M, theirs), (other.M, mine)))
        return ClearedMatrix(lhs + rhs, *self.factors, *theirs)

    def __neg__(self) -> "ClearedMatrix":
        return ClearedMatrix(-self.M, *self.factors)

    def __sub__(self, other: "ClearedMatrix") -> "ClearedMatrix":
        return self + (-other)

    def map(self, fn: Callable) -> "ClearedMatrix":
        """fn applied to every entry and every factor; for a ring map fn (a rename, a lift) the image matrix."""
        return ClearedMatrix(self.M.map_entries(fn), *(fn(f) for f in self.factors))

    def denominator(self) -> MultiPoly:
        """f_1 ... f_k as one polynomial; the constant 1 when no factor is left."""
        if not self.factors:
            return MultiPoly.const(self.M.entries[0].vars, 1)
        return math.prod(self.factors[1:], start=self.factors[0])

    def value(self) -> FieldMatrix:
        """The canonical RatFunc matrix M / (f_1 ... f_k), one gcd per entry: read only by cli's printed R and residual_size."""
        den = self.denominator()
        return self.M.map_entries(lambda e: RatFunc(e, den))

    def residual_size(self) -> int:
        """Term count of the largest canonical RatFunc entry; 0, with no gcd, when M is zero."""
        if self.M.is_zero:
            return 0
        return max(e.num_terms() for e in self.value().entries if e)


def split_factors(a: Sequence, b: Sequence) -> tuple[list, list, list]:
    """(a only, b only, shared): two factor lists split as multisets, factors matched by ==."""
    a_only, b_only, shared = list(a), [], []
    for f in b:
        if f in a_only:
            a_only.remove(f)
            shared.append(f)
        else:
            b_only.append(f)
    return a_only, b_only, shared

