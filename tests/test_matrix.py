import operator
import random
from fractions import Fraction
from typing import Callable

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from baxcheck.exactnum import (
    ClearedMatrix,
    FieldMatrix,
    MultiPoly,
    RatFunc,
    SingularMatrixError,
    canonical_vars,
    split_factors,
)
from baxcheck.cli import MAX_SCALAR_BITS
from baxcheck.reps import BUILTIN_NAMES, builtin_rep
from helpers import cleared_value, kron, rename_ratfunc

V = canonical_vars(["x", "y"])


def _checked_inv(m):
    """m.inv() = (X, D), after checking it is a cleared inverse: ring entries of m's kind, and m X = D 1 = X m."""
    X, D = m.inv()
    ring, field = (MultiPoly, RatFunc) if isinstance(m.entries[0], RatFunc) else (int, int)
    assert type(D) is ring and all(type(e) is ring for e in X.entries)
    Xf = X.map_entries(field)  # RatFunc(p) is the one way a polynomial enters a RatFunc product
    assert m * Xf == FieldMatrix.identity(m.rows, field(D)) == Xf * m
    return X, D


def test_identity_inverse():
    ident = FieldMatrix.identity(3, 1)
    X, D = _checked_inv(ident)
    assert X == ident and D == 1
    X, D = _checked_inv(FieldMatrix.identity(2, RatFunc.const(V, 1)))
    assert D == MultiPoly.const(V, 1) and X == FieldMatrix.identity(2, D)


def test_nilpotent_neumann_series_terminates():
    Vz = canonical_vars(["z"])
    z = RatFunc.var(Vz, "z")
    one, zero = RatFunc.const(Vz, 1), RatFunc.const(Vz, 0)
    m = FieldMatrix.from_rows([[one, -z], [zero, one]])
    X, D = _checked_inv(m)
    assert X.map_entries(lambda e: RatFunc(e, D)) == FieldMatrix.from_rows([[one, z], [zero, one]])


def test_singular_matrix_reports_determinant():
    m = FieldMatrix.from_rows([[1, 2], [2, 4]])
    with pytest.raises(SingularMatrixError):
        m.inv()


def test_random_rational_inverses():
    rng = random.Random(7)
    done = 0
    while done < 15:
        n = rng.randint(1, 5)
        m = FieldMatrix(n, n, [rng.randint(-9, 9) for _ in range(n * n)])
        try:
            _checked_inv(m)
        except SingularMatrixError:
            continue
        done += 1


def test_random_function_field_inverses():
    rng = random.Random(3)

    def rpoly():
        p = MultiPoly(V)
        for _ in range(rng.randint(1, 2)):
            e = (rng.randint(0, 1), rng.randint(0, 1))
            p = p + MultiPoly(V, {e: Fraction(rng.randint(-3, 3))})
        return p

    def entry():
        while True:
            den = rpoly() + 1
            if den:
                return RatFunc(rpoly(), den)

    done = 0
    while done < 5:
        m = FieldMatrix.from_rows([[entry() for _ in range(3)] for _ in range(3)])
        try:
            _checked_inv(m)
        except SingularMatrixError:
            continue
        done += 1


def test_det_known_value_and_multiplicativity():
    a = FieldMatrix.from_rows([[2, 1], [1, 1]])
    b = FieldMatrix.from_rows([[0, 1], [3, 5]])
    assert a.adjugate_det()[1] == 1
    assert (a * b).adjugate_det()[1] == a.adjugate_det()[1] * b.adjugate_det()[1] == -3


def test_det_function_field():
    x = MultiPoly.var(V, "x")
    one, zero = MultiPoly.const(V, 1), MultiPoly(V)
    m = FieldMatrix.from_rows([[x, one], [zero, x]])
    assert m.adjugate_det()[1] == x * x


def test_kron_and_partial_trace():
    a = FieldMatrix.from_rows([[1, 2], [3, 4]])
    b = FieldMatrix.from_rows([[0, 1], [1, 0]])
    big = kron(a, b)
    assert big.rows == 4
    # tracing out the first factor leaves tr(a) * b
    assert big.partial_trace_first(2) == b.scale(a[0, 0] + a[1, 1])


@pytest.mark.parametrize("bad, message", [
    (0, "at least 1, got 0"), (-1, "at least 1, got -1"), (True, "expected an integer"), (2.0, "expected an integer"),
])
def test_identity_and_partial_trace_refuse_a_dimension_that_is_not_a_positive_int(bad, message):
    # True would be a 1x1 identity or a trace over a one-dimensional leg, 0 a ZeroDivisionError
    with pytest.raises(ValueError) as exc:
        FieldMatrix.identity(bad, 1)
    assert str(exc.value) == f"n: {message}"
    with pytest.raises(ValueError) as exc:
        FieldMatrix.identity(4, 1).partial_trace_first(bad)
    assert str(exc.value) == f"dim_first: {message}"


def test_from_rows_refuses_an_empty_or_ragged_list():
    for rows in ([], [[]]):
        with pytest.raises(ValueError, match="^matrix dimensions must be positive$"):
            FieldMatrix.from_rows(rows)
    for rows in ([[1, 2], [3]], [[1], []]):
        with pytest.raises(ValueError, match="^ragged rows$"):
            FieldMatrix.from_rows(rows)


def test_shape_errors():
    with pytest.raises(ValueError):
        FieldMatrix.from_rows([[1, 2]]) * FieldMatrix.from_rows([[1, 2]])
    with pytest.raises(ValueError):
        FieldMatrix.from_rows([[1, 2]]).shifted(1, 1)
    with pytest.raises(TypeError):  # a scalar factor goes through scale only
        FieldMatrix.from_rows([[1, 2], [3, 4]]) * 3
    with pytest.raises(ValueError):
        FieldMatrix.from_rows([[1, 2]]).inv()
    with pytest.raises(ValueError):
        FieldMatrix(2, 2, [1] * 3)


def test_difference_is_the_sum_with_the_negation():
    """M - N is M + (-N) on int, MultiPoly and RatFunc matrices, and equals the entrywise difference."""
    x, y = MultiPoly.var(V, "x"), MultiPoly.var(V, "y")
    xr, yr = RatFunc(x), RatFunc(y)
    cases = [
        ([1, -2, 3, 0], [4, 5, -6, 0]),
        ([x, 2 * y, x * y - 1, MultiPoly(V)], [x, y, MultiPoly.const(V, 3), x + y]),
        ([xr / (yr + 1), RatFunc.const(V, 1), yr, RatFunc.const(V, 0)], [xr / (yr + 1), xr, RatFunc.const(V, 1) / (xr - yr), yr]),
    ]
    for a, b in cases:
        M, N = FieldMatrix(2, 2, a), FieldMatrix(2, 2, b)
        assert M - N == M + (-N) == FieldMatrix(2, 2, [p - q for p, q in zip(a, b)])
        assert all(type(e) is type(a[0]) for e in (M - N).entries)
        assert (M - M).is_zero
        for other in (FieldMatrix(1, 4, b), FieldMatrix(4, 1, b)):
            with pytest.raises(ValueError, match="shapes differ"):
                M - other


def _shift_reference(M: FieldMatrix, a, c, one) -> FieldMatrix:
    """a * M + c * 1 built from the identity, two scales and a sum."""
    return FieldMatrix.identity(M.rows, one).scale(c) + M.scale(a)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 5).flatmap(lambda n: st.lists(st.integers(-9, 9), min_size=n * n, max_size=n * n).map(
        lambda entries: FieldMatrix(n, n, entries))),
    st.integers(-9, 9),
    st.integers(-9, 9),
)
def test_shifted_int_matrices_match_the_identity_construction(M, a, c):
    shifted = M.shifted(a, c)
    assert shifted == _shift_reference(M, a, c, 1)
    assert all(type(e) is int for e in shifted.entries)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_shifted_builtin_sites_match_the_identity_construction(name):
    """RatFunc sites shifted as H_closed and the correspondences do, their cleared MultiPoly
    forms as rhat_cleared does; scalars are a constant, a variable, a polynomial and a quotient."""
    rep = builtin_rep(name)
    symbols = canonical_vars(set(rep.params) | {"x", "z"})
    x, z = RatFunc.var(symbols, "x"), RatFunc.var(symbols, "z")
    for site in (1, 2):
        sigma = rep.site(site, symbols)
        for a, c in ((-z, 1), (x / (z + 1), -x * z + 1), (RatFunc.const(symbols, 1), -x)):
            assert sigma.shifted(a, c) == _shift_reference(sigma, a, c, RatFunc.const(symbols, 1))
        S, s0 = sigma.cleared()
        for a, c in ((-z.num, s0), ((x * x + 3).num, (x * z - 2).num * s0), (2, x.num)):
            shifted = S.shifted(a, c)
            assert shifted == _shift_reference(S, a, c, MultiPoly.const(symbols, 1))
            assert all(type(e) is MultiPoly for e in shifted.entries)


@st.composite
def rational_square(draw):
    """An n x n int matrix, as the numeric R-hat inverts, n = 1..6; about half the draws repeat a scaled row."""
    n = draw(st.integers(1, 6))
    entry = st.integers(-4, 4)
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        src, dst = draw(st.permutations(range(n)))[:2]
        factor = draw(entry)
        rows[dst] = [factor * e for e in rows[src]]
    return rows


def _to_fraction(value) -> Fraction:
    return Fraction(int(value.p), int(value.q))


@settings(max_examples=150, deadline=None)
@given(rational_square())
def test_det_and_inv_match_sympy(rows):
    m = FieldMatrix.from_rows(rows)
    ref = sympy.Matrix(rows)
    adj, det = m.adjugate_det()
    assert det == ref.det()
    assert adj.entries == list(ref.adjugate() if m.rows > 1 else [1])
    if det == 0:
        with pytest.raises(SingularMatrixError):
            m.inv()
        return
    X, D = _checked_inv(m)
    assert (X, D) == (adj, det)
    assert [[Fraction(e, D) for e in X.row(i)] for i in range(X.rows)] == [
        [_to_fraction(e) for e in row] for row in ref.inv().tolist()
    ]


def _sympy_entry(e, syms):
    """An int or MultiPoly entry as a sympy expression in syms (one per variable of V)."""
    if isinstance(e, int):
        return sympy.Integer(e)
    return sum((sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(s**k for s, k in zip(syms, exp)))
                for exp, c in e.sorted_terms()), sympy.Integer(0))


def _bareiss_det(rows: list[list], div: Callable):
    """Fraction-free Bareiss determinant; mutates its argument.

    Intermediate entries are minors of the input, so every division by the
    previous pivot is exact over the entry ring; div is that exact division.
    """
    n = len(rows)
    if n == 1:
        return rows[0][0]
    zero = rows[0][0] - rows[0][0]
    sign = 1
    prev = None
    for k in range(n - 1):
        if not rows[k][k]:
            for r in range(k + 1, n):
                if rows[r][k]:
                    rows[k], rows[r] = rows[r], rows[k]
                    sign = -sign
                    break
            else:
                return zero
        pivot = rows[k][k]
        for i in range(k + 1, n):
            aik = rows[i][k]
            rowi, rowk = rows[i], rows[k]
            for j in range(k + 1, n):
                num = pivot * rowi[j] - aik * rowk[j]
                rowi[j] = num if prev is None else div(num, prev)
            rowi[k] = zero
        prev = pivot
    d = rows[n - 1][n - 1]
    return d if sign > 0 else -d


def _cofactor_adjugate(rows: list[list], div) -> FieldMatrix:
    """Reference adjugate of an n x n matrix, n >= 2: the transposed cofactors, each one Bareiss elimination."""
    n = len(rows)
    adj = [None] * (n * n)
    for i in range(n):
        others = rows[:i] + rows[i + 1 :]
        for j in range(n):
            cof = _bareiss_det([row[:j] + row[j + 1 :] for row in others], div)
            adj[j * n + i] = -cof if (i + j) % 2 else cof
    return FieldMatrix(n, n, adj)


@pytest.mark.parametrize("kind", ["int", "int256", "poly"])
def test_adjugate_det_expands_its_cofactors(kind):
    # adj entry by entry and det against sympy, the 5x5 polynomial ones against
    # a separate Bareiss elimination of every cofactor instead; singular ones too
    rng = random.Random(31)
    syms = sympy.symbols(V)
    big = (1 << MAX_SCALAR_BITS) - 1
    div = MultiPoly.divexact if kind == "poly" else operator.floordiv

    def entry():
        if kind == "int":
            return rng.randint(-6, 6)
        if kind == "int256":
            return rng.randint(-big, big)
        p = MultiPoly(V)
        for _ in range(rng.randint(0, 2)):
            p = p + MultiPoly(V, {(rng.randint(0, 2), rng.randint(0, 1)): Fraction(rng.randint(-4, 4), rng.randint(1, 3))})
        return p

    singular = 0
    for n in (1, 2, 3, 4, 5) if kind == "poly" else (1, 2, 3, 4, 5, 6):
        for trial in range(6):
            rows = [[entry() for _ in range(n)] for _ in range(n)]
            if trial % 2:  # a repeated row, or a zero 1x1 matrix
                rows[-1] = list(rows[0]) if n > 1 else [rows[0][0] * 0]
            m = FieldMatrix.from_rows(rows)
            adj, det = m.adjugate_det()
            assert det == _bareiss_det([list(row) for row in rows], div)
            if n == 5 and kind == "poly":
                assert adj == _cofactor_adjugate(rows, div)
            else:
                ref = sympy.Matrix([[_sympy_entry(e, syms) for e in row] for row in rows])
                assert sympy.expand(_sympy_entry(det, syms) - ref.det()) == 0
                ref_adj = ref.adjugate() if n > 1 else sympy.Matrix([[1]])
                for e, r in zip(adj.entries, ref_adj):
                    assert sympy.expand(_sympy_entry(e, syms) - r) == 0
            assert adj * m == FieldMatrix.identity(n, det) == m * adj
            singular += not det
            if n == 1:
                assert adj.entries == [1 if kind != "poly" else MultiPoly.const(V, 1)] and det == rows[0][0]
    assert singular >= 15


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_adjugate_det_runs_n_minus_2_products_and_no_division(monkeypatch, n):
    # the Faddeev–LeVerrier route: n - 2 matrix products, and no per-cofactor elimination's divexact
    calls = {"mul": 0, "divexact": 0}
    mul, divexact = FieldMatrix.__mul__, MultiPoly.divexact

    def counting_mul(self, other):
        calls["mul"] += 1
        return mul(self, other)

    def counting_divexact(self, divisor):
        calls["divexact"] += 1
        return divexact(self, divisor)

    monkeypatch.setattr(FieldMatrix, "__mul__", counting_mul)
    monkeypatch.setattr(MultiPoly, "divexact", counting_divexact)
    x, y = MultiPoly.var(V, "x"), MultiPoly.var(V, "y")
    rng = random.Random(n)
    m = FieldMatrix(n, n, [x * rng.randint(-3, 3) + y * rng.randint(-3, 3) + rng.randint(-3, 3) for _ in range(n * n)])
    adj, det = m.adjugate_det()
    assert calls == {"mul": max(n - 2, 0), "divexact": 0}
    monkeypatch.undo()
    assert adj * m == FieldMatrix.identity(n, det)


def test_entry_kinds_are_checked():
    adj, det = FieldMatrix.from_rows([[2, 1], [4, 3]]).adjugate_det()
    assert det == 2 and adj == FieldMatrix.from_rows([[3, -1], [-4, 2]])
    # Fraction entries, whole-valued or not, are no kind the matrix routes take
    for m in (FieldMatrix.identity(2, Fraction(1)), FieldMatrix.from_rows([[Fraction(2), Fraction(1, 2)], [4, 3]])):
        for op in (FieldMatrix.adjugate_det, FieldMatrix.cleared, FieldMatrix.inv):
            with pytest.raises(TypeError):
                op(m)
    x = RatFunc.var(V, "x")
    with pytest.raises(TypeError):
        FieldMatrix.from_rows([[x, x], [x, x + 1]]).adjugate_det()
    with pytest.raises(TypeError):
        FieldMatrix.from_rows([[x.num, x.num], [x.num, x.den]]).inv()
    with pytest.raises(TypeError):
        FieldMatrix.from_rows([[x, 1]]).cleared()
    with pytest.raises(ValueError):
        FieldMatrix.from_rows([[1, 2, 3], [4, 5, 6]]).inv()


def test_cleared_scales_to_the_entry_ring():
    rng = random.Random(19)

    def rpoly():
        p = MultiPoly(V)
        for _ in range(rng.randint(1, 3)):
            e = (rng.randint(0, 2), rng.randint(0, 1))
            p = p + MultiPoly(V, {e: Fraction(rng.randint(-4, 4), rng.randint(1, 3))})
        return p

    def ratfunc():
        while True:
            den = rpoly()
            if den:
                return RatFunc(rpoly(), den)

    for _ in range(8):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        A = FieldMatrix(rows, cols, [rng.randint(-9, 9) for _ in range(rows * cols)])
        assert A.cleared() == (A, 1)
        A = FieldMatrix(rows, cols, [ratfunc() for _ in range(rows * cols)])
        M, D = A.cleared()
        assert isinstance(D, MultiPoly) and D
        assert all(type(e) is MultiPoly for e in M.entries)
        assert all(RatFunc(m) == a for m, a in zip(M.entries, A.scale(RatFunc(D)).entries))
    with pytest.raises(TypeError):
        FieldMatrix.from_rows([[MultiPoly.var(V, "x"), MultiPoly.const(V, 1)]]).cleared()


def _naive_product(A, B):
    """Reference: every entry the full sum over t of A[i, t] * B[t, j], zero terms included."""
    out = []
    for i in range(A.rows):
        for j in range(B.cols):
            acc = A[i, 0] * B[0, j]
            for t in range(1, A.cols):
                acc = acc + A[i, t] * B[t, j]
            out.append(acc)
    return FieldMatrix(A.rows, B.cols, out)


def _sparse_entries(rng):
    """(entry(), zero) per kind; about 70% of the entries drawn are zero."""

    def rpoly():
        p = MultiPoly(V)
        while not p:
            for _ in range(rng.randint(1, 2)):
                e = (rng.randint(0, 2), rng.randint(0, 1))
                p = p + MultiPoly(V, {e: Fraction(rng.randint(-4, 4), rng.randint(1, 3))})
        return p

    return {
        "int": (lambda: rng.choice([-3, -1, 1, 2, 7]), 0),
        "fraction": (lambda: Fraction(rng.choice([-5, -1, 2, 9]), rng.randint(1, 4)), Fraction(0)),
        "poly": (rpoly, MultiPoly(V)),
        "ratfunc": (lambda: RatFunc(rpoly(), rpoly()), RatFunc.const(V, 0)),
    }


@pytest.mark.parametrize("left, right", [
    ("int", "int"), ("fraction", "fraction"), ("poly", "poly"), ("ratfunc", "ratfunc"), ("int", "fraction"),
])
def test_sparse_product_matches_naive(left, right):
    rng = random.Random(f"{left}*{right}")
    kinds = _sparse_entries(rng)

    def sparse(rows, cols, kind, zero_row=None, zero_col=None):
        entry, zero = kinds[kind]
        return FieldMatrix(rows, cols, [
            entry() if rng.random() < 0.3 and r != zero_row and c != zero_col else zero
            for r in range(rows) for c in range(cols)
        ])

    shapes = [(1, 4, 1), (4, 1, 4), (1, 1, 5), (5, 1, 1), (1, 3, 4), (3, 4, 1)]
    shapes += [(rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)) for _ in range(10)]
    for n, k, m in shapes:
        A = sparse(n, k, left, zero_row=rng.randrange(n) if n > 1 else None)
        B = sparse(k, m, right, zero_col=rng.randrange(m) if m > 1 else None)
        product = A * B
        assert (product.rows, product.cols) == (n, m)
        assert product == _naive_product(A, B)
        kind = type(A.entries[0] * B.entries[0])
        assert all(type(e) is kind for e in product.entries)
    # an all-zero factor: every product entry is a missing one
    for A, B in (
        (FieldMatrix(2, 3, [kinds[left][1]] * 6), sparse(3, 2, right)),
        (sparse(2, 3, left), FieldMatrix(3, 2, [kinds[right][1]] * 6)),
    ):
        product = A * B
        assert product.is_zero and product == _naive_product(A, B)
        assert all(type(e) is type(A.entries[0] * B.entries[0]) for e in product.entries)


def test_split_factors_is_a_multiset_split():
    x, y = MultiPoly.var(V, "x"), MultiPoly.var(V, "y")
    assert split_factors([x, x, y + 1], [x, y, y + 1]) == ([x], [y], [x, y + 1])
    assert split_factors([], [x]) == ([], [x], [])


def test_cleared_sums_agree_with_ratfunc_differences():
    """The difference of two cleared terms against RatFunc arithmetic: the same value, the same
    zero verdict, and residual_size is the largest term count of the canonical difference.
    value() is that RatFunc matrix, and map by a ring map (the swap x <-> y) maps it."""
    rng = random.Random(43)

    def rpoly():
        p = MultiPoly(V)
        while not p:
            for _ in range(rng.randint(1, 3)):
                e = (rng.randint(0, 2), rng.randint(0, 1))
                p = p + MultiPoly(V, {e: Fraction(rng.randint(-4, 4), rng.randint(1, 3))})
        return p

    # a small pool, so factor lists repeat and share factors; constants and the unit included
    pool = [rpoly() for _ in range(4)] + [MultiPoly.const(V, c) for c in (2, Fraction(-1, 3), 1)]

    def term():
        M = FieldMatrix(2, 2, [rpoly() if rng.random() < 0.7 else MultiPoly(V) for _ in range(4)])
        return ClearedMatrix(M, *(rng.choice(pool) for _ in range(rng.randint(0, 3))))

    verdicts = set()
    for trial in range(60):
        a, b = term(), term()
        if trial % 4 == 0:  # the same value as a over one more factor: a zero difference
            f = rng.choice(pool)
            b = ClearedMatrix(a.M.scale(f), *a.factors, f)
        elif trial % 4 == 1:
            b = term() * term() + term().scale(rpoly(), rng.choice(pool))
        elif trial % 4 == 2:  # a difference that keeps only a's shared part
            b = a.scale(1, *b.factors) + ClearedMatrix(b.M, *a.factors, *b.factors)
        diff = a - b
        expected = cleared_value(a) - cleared_value(b)
        assert cleared_value(diff) == expected
        assert diff.value() == cleared_value(diff)
        swap = {"x": "y", "y": "x"}
        swapped = expected.map_entries(lambda e: rename_ratfunc(e, swap))
        assert cleared_value(diff.map(lambda e: e.rename(swap))) == swapped
        assert diff.M.is_zero == expected.is_zero
        assert diff.residual_size() == max((e.num_terms() for e in expected.entries if e), default=0)
        verdicts.add(expected.is_zero)
    assert verdicts == {True, False}
