from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from baxcheck.exactnum import MultiPoly, canonical_vars, poly_gcd

V = canonical_vars(["x", "y"])


def x_y():
    return MultiPoly.var(V, "x"), MultiPoly.var(V, "y")


def test_variable_order_spectral_then_alphabetical():
    assert canonical_vars(["mu", "z", "a", "x"]) == ("x", "z", "a", "mu")
    assert canonical_vars(["v", "y"]) == ("y", "v")


def test_difference_of_squares():
    x, y = x_y()
    assert (x + y) * (x - y) == x * x - y * y


def test_add_zero_is_identity():
    x, y = x_y()
    p = 3 * x * y - y + 2
    assert p + MultiPoly.zero(V) == p


def test_binomial_square():
    x, _ = x_y()
    assert (x + 1) * (x + 1) == x * x + 2 * x + 1


def test_gcd_difference_of_squares():
    x, y = x_y()
    p, q = x * x - y * y, x + y
    g = poly_gcd(p, q)
    assert g == (x + y).monic()
    # oracle: the gcd divides both inputs exactly
    assert p.divexact(g) * g == p
    assert q.divexact(g) * g == q


def test_gcd_with_zero_normalizes():
    x, y = x_y()
    p = 2 * x + 2 * y
    assert poly_gcd(p, MultiPoly.zero(V)) == p.monic()
    assert poly_gcd(MultiPoly.zero(V), p) == p.monic()


def test_gcd_constants_are_units():
    three = MultiPoly.const(V, 3)
    six = MultiPoly.const(V, 6)
    assert poly_gcd(three, six) == MultiPoly.const(V, 1)


def test_gcd_both_zero_is_usage_error():
    with pytest.raises(ValueError):
        poly_gcd(MultiPoly.zero(V), MultiPoly.zero(V))


def test_mismatched_variables_is_usage_error():
    x, _ = x_y()
    other = MultiPoly.var(("x", "z"), "z")
    with pytest.raises(ValueError):
        x + other
    with pytest.raises(ValueError):
        poly_gcd(x, other)


def test_divexact_rejects_inexact():
    x, y = x_y()
    with pytest.raises(ValueError):
        (x * x + 1).divexact(y)
    # rational coefficients and integer content on either side
    assert (3 * x + Fraction(3, 2)).divexact(2 * x + 1) == MultiPoly.const(V, Fraction(3, 2))
    with pytest.raises(ValueError):
        (x + Fraction(1, 2)).divexact(2 * x + 2)


def test_rename_merges_variables():
    x, y = x_y()
    assert (x + y).rename({"y": "x"}) == 2 * x
    assert (x * y).rename({"y": "x"}) == x * x


def test_leading_term_prefers_later_variable():
    x, y = x_y()
    exp, coeff = (x + y).leading()
    assert exp == (0, 1) and coeff == 1  # y is the more significant symbol


def test_valuation():
    x, y = x_y()
    p = x * y * y + x * x * y * y * y
    assert p.valuation_in("y") == 2
    assert p.valuation_in("x") == 1
    assert MultiPoly.zero(V).valuation_in("x") is None


def test_serialize_sorted_and_deterministic():
    x, y = x_y()
    p = x + y * y - 3
    assert p.serialize() == [[[0, 2], "1"], [[1, 0], "1"], [[0, 0], "-3"]]


small_coeff = st.builds(Fraction, st.integers(min_value=-4, max_value=4), st.integers(min_value=1, max_value=4))


def poly_strategy(max_terms=4, max_exp=3):
    term = st.tuples(st.tuples(st.integers(0, max_exp), st.integers(0, max_exp)), small_coeff)
    return st.lists(term, min_size=0, max_size=max_terms).map(
        lambda terms: sum(
            (MultiPoly(V, {e: c}) for e, c in terms if c),
            MultiPoly.zero(V),
        )
    )


def _termwise_product(p, q):
    out = {}
    for ea, ca in p.sorted_terms():
        for eb, cb in q.sorted_terms():
            exp = tuple(i + j for i, j in zip(ea, eb))
            out[exp] = out.get(exp, Fraction(0)) + ca * cb
    return MultiPoly(V, out)


@settings(max_examples=60, deadline=None)
@given(poly_strategy(), poly_strategy())
def test_product_matches_termwise_fraction_product(p, q):
    assert p * q == _termwise_product(p, q)


@settings(max_examples=40, deadline=None)
@given(poly_strategy(), poly_strategy(), poly_strategy())
def test_gcd_common_factor_property(p, q, g):
    # gcd(p*g, q*g) is an associate of g * gcd(p, q)
    if p.is_zero or q.is_zero or g.is_zero:
        return
    left = poly_gcd(p * g, q * g)
    right = (g * poly_gcd(p, q)).monic()
    assert left == right


@settings(max_examples=40, deadline=None)
@given(poly_strategy(), poly_strategy())
def test_divexact_undoes_multiplication(p, q):
    if q.is_zero:
        return
    assert (p * q).divexact(q) == p


@settings(max_examples=30, deadline=None)
@given(poly_strategy(), poly_strategy(), poly_strategy())
def test_ring_axioms_spotcheck(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)


@settings(max_examples=60, deadline=None)
@given(poly_strategy(), poly_strategy())
def test_results_are_in_normal_form(p, q):
    # rebuilding from the rational term list must give the stored form back
    results = [p + q, p - q, p * q, -p, p.monic()]
    if not q.is_zero:
        results.append((p * q).divexact(q))
    for r in results:
        assert MultiPoly(V, dict(r.sorted_terms())) == r
    assert (p + q) - q == p
