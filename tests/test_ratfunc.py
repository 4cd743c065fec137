import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from baxcheck.exactnum import MultiPoly, PoleError, RatFunc, canonical_vars, ratfunc
from test_poly import _to_sympy

V = canonical_vars(["x", "y"])
X = MultiPoly.var(V, "x")
Y = MultiPoly.var(V, "y")


def test_common_factor_normalizes_to_constant():
    assert RatFunc(2 * X + 2, 4 * X + 4) == RatFunc.const(V, Fraction(1, 2))


def test_self_division_is_one():
    r = RatFunc.var(V, "x") / RatFunc.var(V, "y")
    assert r / r == RatFunc.one(V)


def test_partial_fractions_sum_to_one():
    one = RatFunc.one(V)
    x = RatFunc.var(V, "x")
    assert one / (1 + x) + x / (1 + x) == one


def test_eval_simple():
    x = RatFunc.var(V, "x")
    r = RatFunc.one(V) / (1 + x)
    assert r.eval({"x": Fraction(1), "y": Fraction(0)}) == Fraction(1, 2)


def test_eval_pole():
    r = RatFunc(X + Y, X - Y)
    with pytest.raises(PoleError):
        r.eval({"x": Fraction(1), "y": Fraction(1)})


def test_eval_product():
    r = RatFunc.var(V, "x") * RatFunc.var(V, "y")
    assert r.eval({"x": Fraction(2, 3), "y": Fraction(3)}) == 2


def test_zero_divisor_raises():
    with pytest.raises(ZeroDivisionError):
        RatFunc.one(V) / RatFunc.zero(V)
    with pytest.raises(ZeroDivisionError):
        RatFunc(X, MultiPoly.zero(V))


def test_denominator_is_monic():
    r = RatFunc(X, 3 * Y + 3 * X)
    assert r.den.lc() == 1
    # x/2 + 1 stores the leading numerator 1 over den 2, so it is not monic
    half_x_plus_1 = X.scale(Fraction(1, 2)) + 1
    assert RatFunc(X, half_x_plus_1).den == X + 2
    assert (RatFunc(X) / RatFunc(half_x_plus_1)).den == X + 2


small_coeff = st.integers(min_value=-3, max_value=3)


def poly_strategy():
    term = st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 2)), small_coeff)
    return st.lists(term, min_size=1, max_size=3).map(
        lambda terms: sum(
            (MultiPoly(V, {e: Fraction(c)}) for e, c in terms if c),
            MultiPoly.zero(V),
        )
    )


@settings(max_examples=40, deadline=None)
@given(poly_strategy(), poly_strategy())
def test_canonical_form_is_route_independent(p, q):
    # reduce-then-normalize vs build-by-division store identical representations
    if q.is_zero:
        return
    direct = RatFunc(p, q)
    routed = RatFunc(p) / RatFunc(q)
    assert direct.num == routed.num and direct.den == routed.den


# denominators: the unit polynomial, other constants, and polynomials
den_strategy = st.one_of(
    st.just(MultiPoly.const(V, 1)),
    small_coeff.filter(bool).map(lambda c: MultiPoly.const(V, Fraction(c, 2))),
    poly_strategy().filter(bool),
)


@settings(max_examples=60, deadline=None)
@given(poly_strategy(), den_strategy, poly_strategy(), den_strategy)
def test_arithmetic_matches_the_cross_multiplied_canonical_form(p, q, r, s):
    a, b = RatFunc(p, q), RatFunc(r, s)
    pairs = [(a + b, a.num * b.den + b.num * a.den, a.den * b.den), (a * b, a.num * b.num, a.den * b.den)]
    if b:
        pairs.append((a / b, a.num * b.den, a.den * b.num))
    for result, num, den in pairs:
        direct = RatFunc(num, den)
        assert result.num == direct.num and result.den == direct.den


GENS = sympy.symbols(V)


def _lc(p: sympy.Poly):
    """The leading coefficient under graded lex with the last variable most significant, MultiPoly's order."""
    return max(p.terms(), key=lambda t: (sum(t[0]), t[0][::-1]))[1]


def _assert_is_sympy_cancel(result: RatFunc, expr) -> None:
    """result is the canonical form of the sympy expression expr: sympy.cancel's num/den made monic."""
    num, den = _to_sympy(result.num), _to_sympy(result.den)
    assert sympy.gcd(num, den) == sympy.Poly(1, *GENS, domain=sympy.QQ) and _lc(den) == 1
    p, q = (sympy.Poly(part, *GENS, domain=sympy.QQ) for part in sympy.fraction(sympy.cancel(expr)))
    assert (num, den) == (p.quo_ground(_lc(q)), q.quo_ground(_lc(q)))


def _expr(r: RatFunc):
    return _to_sympy(r.num).as_expr() / _to_sympy(r.den).as_expr()


# products of factors from a small pool, so two denominators often share one
FACTORS = [X + 1, X - Y, Y.scale(2) + 3, X * X + Y, X.scale(Fraction(1, 2))]
shared_den_strategy = st.lists(st.sampled_from(FACTORS), max_size=3).map(
    lambda fs: math.prod(fs, start=MultiPoly.const(V, 1))
)


def _assert_arithmetic_matches_sympy(a: RatFunc, b: RatFunc) -> None:
    _assert_is_sympy_cancel(a + b, _expr(a) + _expr(b))
    _assert_is_sympy_cancel(a - b, _expr(a) - _expr(b))
    _assert_is_sympy_cancel(a * b, _expr(a) * _expr(b))
    if b:
        _assert_is_sympy_cancel(a / b, _expr(a) / _expr(b))
    else:
        with pytest.raises(ZeroDivisionError):
            a / b


@settings(max_examples=40, deadline=None)
@given(poly_strategy(), st.one_of(den_strategy, shared_den_strategy),
       poly_strategy(), st.one_of(den_strategy, shared_den_strategy))
def test_arithmetic_matches_sympy_cancel(p, q, r, s):
    _assert_arithmetic_matches_sympy(RatFunc(p, q), RatFunc(r, s))


def test_arithmetic_matches_sympy_cancel_on_pinned_cases():
    shared = RatFunc(Y, (X + 1) * (X - Y)), RatFunc(X, (X + 1) * (Y + 2))
    # two nonconstant denominators sharing x + 1; the sum's denominator keeps one copy of it
    _assert_arithmetic_matches_sympy(*shared)
    # a sum whose numerator cancels the shared factor: 1/((x+1)(x-y)) + x/((x+1)(x-y)) = 1/(x-y)
    a, b = RatFunc(MultiPoly.const(V, 1), (X + 1) * (X - Y)), RatFunc(X, (X + 1) * (X - Y))
    _assert_arithmetic_matches_sympy(a, b)
    assert a + b == RatFunc(MultiPoly.const(V, 1), X - Y)
    # one constant and one nonconstant denominator: the sum takes one gcd of the full pair
    _assert_arithmetic_matches_sympy(RatFunc(X * X + Y.scale(Fraction(1, 3))), RatFunc(X, (X + 1) * (X - Y)))
    zero = RatFunc.zero(V)
    for r in (*shared, RatFunc(X, MultiPoly.const(V, 3))):
        _assert_arithmetic_matches_sympy(zero, r)
        _assert_arithmetic_matches_sympy(r, zero)  # r / 0 raises ZeroDivisionError
        assert (r * zero).den == MultiPoly.const(V, 1) and (zero / r).den == MultiPoly.const(V, 1)
    with pytest.raises(ZeroDivisionError):
        shared[0] / 0


def test_sum_of_denominator_one_operands_takes_no_gcd(monkeypatch):
    a, b, c = RatFunc(X * X + Y.scale(Fraction(1, 3))), RatFunc(X - Y.scale(2)), RatFunc(X, X + 1)
    calls = []
    gcd = ratfunc.poly_gcd
    monkeypatch.setattr(ratfunc, "poly_gcd", lambda p, q: calls.append((p, q)) or gcd(p, q))
    total, difference = a + b, a - b
    assert calls == []
    assert total.num == X * X + X - Y.scale(Fraction(5, 3)) and total.den == MultiPoly.const(V, 1)
    assert difference.num == X * X - X + Y.scale(Fraction(7, 3)) and difference.den == MultiPoly.const(V, 1)
    c + a  # a nonconstant denominator on one side takes one gcd
    assert len(calls) == 1


@settings(max_examples=40, deadline=None)
@given(poly_strategy(), poly_strategy())
def test_eval_is_multiplicative(p, q):
    r, s = RatFunc(p, 1 + X * X), RatFunc(q, 2 + Y * Y)
    point = {"x": Fraction(3, 2), "y": Fraction(-2, 5)}
    assert (r * s).eval(point) == r.eval(point) * s.eval(point)
    assert (r + s).eval(point) == r.eval(point) + s.eval(point)


def test_lift_and_rename():
    r = RatFunc(X, 1 + Y)
    big = r.lift(("x", "y", "mu"))
    assert big.vars == ("x", "y", "mu")
    back = big.eval({"x": Fraction(1), "y": Fraction(1), "mu": Fraction(9)})
    assert back == Fraction(1, 2)
    # renaming acts on the polynomials; x - y vanishes on the diagonal y = x
    assert (X - Y).rename({"y": "x"}).is_zero
