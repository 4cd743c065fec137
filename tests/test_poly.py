import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from baxcheck.exactnum import MultiPoly, PoleError, canonical_vars, format_scalar, poly, poly_gcd

V = canonical_vars(["x", "y"])


def _terms(p: MultiPoly) -> list[list]:
    """The canonical term list as [exponents, coefficient text] pairs."""
    return [[list(exp), format_scalar(coeff)] for exp, coeff in p.sorted_terms()]


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
    assert p + MultiPoly(V) == p


def test_binomial_square():
    x, _ = x_y()
    assert (x + 1) * (x + 1) == x * x + 2 * x + 1


def test_gcd_difference_of_squares():
    x, y = x_y()
    p, q = x * x - y * y, x + y
    g, pg, qg = poly_gcd(p, q)
    assert g == x + y and g.lc() == 1
    # oracle: the gcd divides both inputs exactly
    assert p.divexact(g) * g == p
    assert q.divexact(g) * g == q
    # the cofactors are those quotients
    assert (pg, qg) == (p.divexact(g), q.divexact(g)) == (x - y, MultiPoly.const(V, 1))
    assert g * pg == p and g * qg == q


def test_gcd_with_zero_normalizes():
    x, y = x_y()
    p = 2 * x + 2 * y
    zero = MultiPoly(V)
    g, pg, zg = poly_gcd(p, zero)
    assert g == Fraction(1, 2) * p == x + y
    assert g * pg == p and pg == MultiPoly.const(V, 2) and zg == zero
    g, zg, pg = poly_gcd(zero, p)
    assert g == Fraction(1, 2) * p == x + y
    assert g * pg == p and pg == MultiPoly.const(V, 2) and zg == zero


def test_gcd_constants_are_units():
    three = MultiPoly.const(V, 3)
    six = MultiPoly.const(V, 6)
    g, tg, sg = poly_gcd(three, six)
    assert g == MultiPoly.const(V, 1)
    assert (tg, sg) == (three, six)
    x, y = x_y()
    g, tg, pg = poly_gcd(three, x * y + 2)
    assert g == MultiPoly.const(V, 1) and (tg, pg) == (three, x * y + 2)


def test_gcd_both_zero_is_usage_error():
    with pytest.raises(ValueError):
        poly_gcd(MultiPoly(V), MultiPoly(V))


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
    # monomial divisors take a one-pass route with the same exactness checks
    assert (2 * x * y + 4 * x).divexact(2 * x) == y + 2
    with pytest.raises(ValueError):
        (x * y + 1).divexact(3 * x)


def test_rename_merges_variables():
    x, y = x_y()
    assert (x + y).rename({"y": "x"}) == 2 * x
    assert (x * y).rename({"y": "x"}) == x * x
    assert (x * y * y + 3 * y).rename({"x": "y", "y": "x"}) == x * x * y + 3 * x


def test_lift_places_variables_by_name():
    small, big = ("x", "mu"), canonical_vars(["x", "y", "mu"])
    p = MultiPoly(small, {(2, 1): 3, (0, 4): Fraction(1, 2)})
    lifted = p.lift(big)
    assert lifted == MultiPoly(big, {(2, 0, 1): 3, (0, 0, 4): Fraction(1, 2)})
    at_big = poly.evaluator(MultiPoly.const(big, 1), [lifted])
    assert at_big([{"x": 2, "y": 5, "mu": 3}]) == poly.evaluator(MultiPoly.const(small, 1), [p])([{"x": 2, "mu": 3}])
    with pytest.raises(ValueError):
        lifted.lift(small)


def test_leading_term_prefers_later_variable():
    x, y = x_y()
    exp, coeff = next((x + y).sorted_terms())
    assert exp == (0, 1) and coeff == 1  # y is the more significant symbol


def test_valuation():
    x, y = x_y()
    p = x * y * y + x * x * y * y * y
    assert p.valuation_in("y") == 2
    assert p.valuation_in("x") == 1
    assert MultiPoly(V).valuation_in("x") is None


def test_every_variable_name_is_read_through_one_gate():
    # var, at, valuation_in and both names of a rename pair refuse an unknown name with one message
    x, y = x_y()
    p = x * y + 1
    calls = {
        "var": lambda: MultiPoly.var(V, "q"),
        "at": lambda: p.at("q", 1),
        "valuation_in": lambda: p.valuation_in("q"),
        "valuation_in of zero": lambda: MultiPoly(V).valuation_in("q"),
        "rename source": lambda: p.rename({"q": "x"}),
        "rename target": lambda: p.rename({"x": "q"}),
    }
    for call in calls.values():
        with pytest.raises(ValueError, match=r"^unknown variable 'q', expected one of \('x', 'y'\)$"):
            call()


def test_serialize_sorted_and_deterministic():
    x, y = x_y()
    p = x + y * y - 3
    assert _terms(p) == [[[0, 2], "1"], [[1, 0], "1"], [[0, 0], "-3"]]


small_coeff = st.builds(Fraction, st.integers(min_value=-4, max_value=4), st.integers(min_value=1, max_value=4))


def poly_strategy(max_terms=4, max_exp=3):
    term = st.tuples(st.tuples(st.integers(0, max_exp), st.integers(0, max_exp)), small_coeff)
    return st.lists(term, min_size=0, max_size=max_terms).map(
        lambda terms: sum(
            (MultiPoly(V, {e: c}) for e, c in terms if c),
            MultiPoly(V),
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
@given(poly_strategy())
def test_unit_factor_leaves_a_product_unchanged(p):
    one, half = MultiPoly.const(V, 1), MultiPoly.const(V, Fraction(1, 2))
    assert p * one == p and one * p == p and p * 1 == p and 1 * p == p
    # half stores the terms {0: 1} of the unit polynomial over den 2
    assert p * half == half * p and 2 * (p * half) == p


scalar_strategy = st.one_of(
    st.integers(-20, 20), small_coeff, st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**3))
)


@settings(max_examples=60, deadline=None)
@given(poly_strategy(), scalar_strategy, scalar_strategy)
def test_scalar_multiple_is_c_times_p(p, c, d):
    """c * p, for an int or a Fraction c, is the one scalar multiple of a polynomial."""
    assert c * p == p * c
    assert (c * d) * p == c * (d * p)
    cp = c * p
    assert MultiPoly(V, dict(cp.sorted_terms())) == cp
    assert _to_sympy(cp) == _to_sympy(p) * sympy.Rational(Fraction(c).numerator, Fraction(c).denominator)
    for zero in (0, Fraction(0)):
        assert (zero * p).terms == {} and (zero * p).den == 1 and zero * p == MultiPoly(V)
    # Fraction.__mul__ declines a MultiPoly, so Fraction * MultiPoly is MultiPoly.__rmul__
    assert Fraction(c).__mul__(p) is NotImplemented
    assert Fraction(c) * p == MultiPoly.__rmul__(p, Fraction(c)) == cp


@settings(max_examples=40, deadline=None)
@given(poly_strategy(), poly_strategy(), poly_strategy())
def test_gcd_common_factor_property(p, q, g):
    # gcd(p*g, q*g) is an associate of g * gcd(p, q)
    if not (p and q and g):
        return
    left, pg_cof, qg_cof = poly_gcd(p * g, q * g)
    right = g * poly_gcd(p, q)[0]
    right = (1 / right.lc()) * right
    assert left == right
    assert left * pg_cof == p * g and left * qg_cof == q * g


GCD_VARS = ("x", "y", "z")


@st.composite
def planted_gcd_inputs(draw):
    """(p*g, q*g) in 1-3 variables with rational coefficients and a planted factor g."""
    nvars = draw(st.integers(1, 3))
    vars = GCD_VARS[:nvars]
    exp = st.tuples(*[st.integers(0, 3)] * nvars)

    def poly_in(max_terms):
        terms = draw(st.lists(st.tuples(exp, small_coeff), min_size=0, max_size=max_terms))
        return sum((MultiPoly(vars, {e: c}) for e, c in terms if c), MultiPoly(vars))

    g = poly_in(3)
    return poly_in(4) * g, poly_in(4) * g


def _to_sympy(p: MultiPoly) -> sympy.Poly:
    gens = sympy.symbols(p.vars)
    expr = sum(
        (sympy.Rational(c.numerator, c.denominator) * sympy.prod(s**k for s, k in zip(gens, e))
         for e, c in p.sorted_terms()),
        sympy.Integer(0),
    )
    return sympy.Poly(expr, *gens, domain=sympy.QQ)


def _assert_gcd_matches_sympy(p, q):
    g, pg, qg = poly_gcd(p, q)
    assert g.lc() == 1
    assert g * pg == p and g * qg == q
    # equal up to a rational unit: both sides made monic in sympy's own order
    assert _to_sympy(g).monic() == sympy.gcd(_to_sympy(p), _to_sympy(q)).monic()


@settings(max_examples=60, deadline=None)
@given(poly_strategy().filter(bool), small_coeff.filter(bool))
def test_gcd_against_a_constant_is_one_with_the_inputs_as_cofactors(p, c):
    # a constant side takes GCDHEU's content branch: (1, p, c) in either argument order
    c = MultiPoly.const(V, c)
    one = MultiPoly.const(V, 1)
    for args in ((p, c), (c, p)):
        triple = poly_gcd(*args)
        assert triple == (one, *args)
        assert [_terms(q) for q in triple] == [_terms(q) for q in (one, *args)]


RENAME_VARS = ("x", "y", "z")


@st.composite
def polys_over_xyz(draw):
    exp = st.tuples(*[st.integers(0, 3)] * len(RENAME_VARS))
    return MultiPoly(RENAME_VARS, draw(st.dictionaries(exp, small_coeff, max_size=6)))


def _sympy_expr(p: MultiPoly) -> sympy.Expr:
    return _to_sympy(p).as_expr()


@settings(max_examples=60, deadline=None)
@given(polys_over_xyz())
def test_rename_matches_sympy_simultaneous_subs(p):
    x, y, z = sympy.symbols(RENAME_VARS)
    cases = [
        ({"x": "x", "y": "y"}, {}),  # the identity, f(x, y) read at (x, y)
        ({"x": "y", "y": "x"}, {x: y, y: x}),  # a swap
        ({"y": "x"}, {y: x}),  # a merging rename y := x
        ({"x": "y", "y": "z"}, {x: y, y: z}),  # f(x, y) read at (y, z)
        ({"x": "z", "y": "x"}, {x: z, y: x}),  # f(x, y) read at (z, x)
    ]
    for mapping, subs in cases:
        expected = _sympy_expr(p).subs(subs, simultaneous=True)
        assert sympy.expand(_sympy_expr(p.rename(mapping)) - expected) == 0


@settings(max_examples=40, deadline=None)
@given(poly_strategy())
def test_lift_keeps_the_sympy_value(p):
    for new_vars in (canonical_vars(["x", "y", "z", "mu"]), p.vars):
        lifted = p.lift(new_vars)
        assert lifted.vars == new_vars
        assert sympy.expand(_sympy_expr(lifted) - _sympy_expr(p)) == 0


@settings(max_examples=60, deadline=None)
@given(planted_gcd_inputs())
def test_gcd_matches_sympy_with_cofactors(pq):
    p, q = pq
    assume(p or q)
    _assert_gcd_matches_sympy(p, q)


def _pinned_gcd_cases():
    x, y = x_y()
    z3 = canonical_vars(["x", "y", "z"])
    a, b, c = (MultiPoly.var(z3, n) for n in z3)
    half = Fraction(1, 2)
    return [
        (x * x - y * y, x + y),
        ((x + y) * (x - 2 * y), (x + y) * (3 * x * y + 1)),
        (x * x * y, x * y * y),
        ((half * x + y) * (x + 3), (half * x + y) * (y - half)),
        (x * x + 1, x * y + 2),
        ((a * b - c + 2) * (a + c), (a * b - c + 2) * (b * b - half * a)),
    ]


def test_gcd_pinned_pairs_match_sympy():
    for p, q in _pinned_gcd_cases():
        _assert_gcd_matches_sympy(p, q)


def test_gcd_retries_at_larger_points_until_certified(monkeypatch):
    # the evaluation points of every GCDHEU call still running, recursive ones included
    frames, most = [], []
    heu_gcd, ip_eval = poly._heu_gcd, poly._ip_eval

    def counted_gcd(P, Q, n):
        frames.append(set())
        try:
            return heu_gcd(P, Q, n)
        finally:
            most[-1] = max(most[-1], len(frames.pop()))

    def counted_eval(P, m, xi, n):
        frames[-1].add(xi)
        return ip_eval(P, m, xi, n)

    monkeypatch.setattr(poly, "_heu_gcd", counted_gcd)
    monkeypatch.setattr(poly, "_ip_eval", counted_eval)
    z3 = canonical_vars(["x", "y", "z"])
    third, ninth = Fraction(1, 3), Fraction(1, 9)
    # on each pair some recursion level fails its trial division at the first two points;
    # terms keyed by their (x, y, z) exponents
    cases = [
        ({(0, 2, 3): -12, (0, 3, 2): 15}, {(2, 4, 1): 6}),
        ({(3, 1, 4): third, (2, 0, 4): -4 * ninth}, {(3, 2, 1): 2}),
        ({(4, 2, 1): -4 * third, (3, 2, 1): 16 * ninth}, {(1, 3, 4): third, (3, 2, 1): -4 * third}),
    ]
    for p, q in ((MultiPoly(z3, p), MultiPoly(z3, q)) for p, q in cases):
        most.append(0)
        _assert_gcd_matches_sympy(p, q)
    assert all(k >= 3 for k in most)


@settings(max_examples=40, deadline=None)
@given(poly_strategy(), poly_strategy())
def test_divexact_undoes_multiplication(p, q):
    if not q:
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
    results = [p + q, p - q, p * q, -p]
    if p:
        results.append((1 / p.lc()) * p)
    if q:
        results.append((p * q).divexact(q))
    for r in results:
        assert MultiPoly(V, dict(r.sorted_terms())) == r
    assert (p + q) - q == p


@pytest.mark.parametrize("exp", [
    (-1, 0), (0, -3), (1.0, 0), (0, 2.0), (True, 0), (0, False),  # not a natural number
    (2**31, 0), (2**30, 2**30), (0, 2**40),  # total degree at or past the limit
])
def test_constructor_rejects_invalid_exponents(exp):
    with pytest.raises(ValueError):
        MultiPoly(V, {exp: 1})


def test_largest_total_degree_builds_and_products_past_it_raise():
    x, y = x_y()
    top = MultiPoly(V, {(2**31 - 1, 0): 1})
    assert _terms(top) == [[[2147483647, 0], "1"]]
    assert top * MultiPoly.const(V, 3) == MultiPoly(V, {(2**31 - 1, 0): 3})
    for factor in (x, y, x + 1):
        with pytest.raises(ValueError):
            top * factor


def test_divexact_raises_on_exponent_borrows():
    xyz = canonical_vars(["x", "y", "z"])
    x, y, z = (MultiPoly.var(xyz, n) for n in xyz)
    for num, den in [(x * y * y, x * x), (y, x), (x * z, y * z), (x * y * y + z, x * x + z)]:
        with pytest.raises(ValueError):
            num.divexact(den)


DIV_VARS = ("x", "y", "z", "v", "a")


@st.composite
def division_inputs(draw):
    """(f, g) in 3-5 variables with g nonzero; f is sometimes a multiple of g."""
    nvars = draw(st.integers(3, 5))
    vars = canonical_vars(DIV_VARS[:nvars])
    exp = st.tuples(*[st.integers(0, 3)] * nvars)

    def poly_in(min_terms, max_terms):
        terms = draw(st.dictionaries(exp, small_coeff.filter(bool), min_size=min_terms, max_size=max_terms))
        return MultiPoly(vars, terms)

    g = poly_in(1, 3)
    f = poly_in(0, 4)
    if draw(st.booleans()):
        f = f * g + poly_in(0, 1)
    return f, g


@settings(max_examples=60, deadline=None)
@given(division_inputs())
def test_divexact_matches_sympy_division(fg):
    f, g = fg
    quot, rem = sympy.div(_to_sympy(f), _to_sympy(g))
    if rem.is_zero:
        assert _to_sympy(f.divexact(g)) == quot
    else:
        with pytest.raises(ValueError):
            f.divexact(g)


def _grlex_reference(exp):
    # graded lex with later variables more significant, independent of the packed keys
    return (sum(exp), exp[::-1])


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.tuples(*[st.integers(0, 40)] * 5), small_coeff.filter(bool), min_size=1, max_size=12))
def test_term_order_matches_reference_grlex(terms):
    vars = canonical_vars(DIV_VARS)
    p = MultiPoly(vars, terms)
    expected = sorted(terms, key=_grlex_reference, reverse=True)
    assert [exp for exp, _ in p.sorted_terms()] == expected
    assert next(p.sorted_terms()) == (expected[0], terms[expected[0]])
    assert [exp for exp, _ in _terms(p)] == [list(e) for e in expected]
    assert p.lc() == terms[expected[0]]


def _fraction_eval(p, point):
    """Reference: evaluate term by term in Fraction arithmetic."""
    total = Fraction(0)
    for exp, coeff in p.sorted_terms():
        for name, e in zip(p.vars, exp):
            coeff *= point[name] ** e
        total += coeff
    return total


@st.composite
def eval_inputs(draw):
    """A polynomial in 1-3 variables and a rational point, zero coordinates included."""
    vars = canonical_vars(["x", "y", "z"][: draw(st.integers(1, 3))])
    exps = st.tuples(*[st.integers(0, 4)] * len(vars))
    terms = draw(st.dictionaries(exps, small_coeff, max_size=8))
    coord = st.one_of(st.just(Fraction(0)), st.builds(Fraction, st.integers(-50, 50), st.integers(1, 30)))
    return MultiPoly(vars, terms), {name: draw(coord) for name in vars}


@settings(max_examples=100, deadline=None)
@given(eval_inputs(), st.integers(0, 3))
def test_eval_matches_fraction_evaluation(inputs, shift):
    # p, p + 1/7 and its powers over each of them in turn, each value as the quotient of term-by-term
    # Fraction sums; PoleError exactly where the denominator vanishes (always for the zero polynomial)
    p, point = inputs
    power = math.prod([p + 1] * shift, start=MultiPoly.const(p.vars, 1))
    polys = [p, p + Fraction(1, 7), p * p, MultiPoly(p.vars), power]
    for den in polys:
        at, want = poly.evaluator(den, polys), _fraction_eval(den, point)
        if not want:
            with pytest.raises(PoleError):
                at([point])
            continue
        ((values, d),) = at([point])
        assert type(d) is int and d and all(type(n) is int for n in values)
        assert [Fraction(n, d) for n in values] == [_fraction_eval(q, point) / want for q in polys]


@st.composite
def batch_inputs(draw):
    """Polys with rational coefficients in x, y, z, none of which uses z, and a batch of points.

    The coordinates come from a pool of at most three values, and the batch
    ends with a repeat of its first point and that point with x and y
    swapped, so values repeat within a variable and across variables.
    """
    vars = canonical_vars(["x", "y", "z"])
    exps = st.tuples(st.integers(0, 4), st.integers(0, 4), st.just(0))
    terms = st.dictionaries(exps, small_coeff, max_size=6)
    polys = [MultiPoly(vars, draw(terms)) for _ in range(draw(st.integers(1, 4)))]
    coord = st.one_of(st.just(Fraction(0)), st.builds(Fraction, st.integers(-50, 50), st.integers(1, 30)))
    pool = draw(st.lists(coord, min_size=1, max_size=3))
    points = [{name: draw(st.sampled_from(pool)) for name in vars} for _ in range(draw(st.integers(1, 4)))]
    first = points[0]
    return polys, points + [dict(first), {"x": first["y"], "y": first["x"], "z": first["z"]}]


@settings(max_examples=100, deadline=None)
@given(batch_inputs())
def test_evaluator_matches_fraction_evaluation_at_every_point_of_a_batch(inputs):
    # one compiled evaluator, one batch; each point's pair is also that of a batch of that point alone.
    # 1 + polys[0]^2 vanishes nowhere; polys[0] as the denominator refuses the whole batch where it vanishes
    polys, points = inputs
    for den in (1 + polys[0] * polys[0], polys[0]):
        at, dens = poly.evaluator(den, polys), [_fraction_eval(den, point) for point in points]
        if not all(dens):
            with pytest.raises(PoleError):
                at(points)
            continue
        batch = at(points)
        assert len(batch) == len(points)
        for (values, d), point, want in zip(batch, points, dens):
            assert type(d) is int and d and all(type(n) is int for n in values)
            assert [Fraction(n, d) for n in values] == [_fraction_eval(p, point) / want for p in polys]
            assert at([point]) == [(values, d)]


def test_evaluator_refuses_a_missing_variable_or_a_bool_at_any_point():
    # y is absent from the poly, yet every point must assign it a scalar
    at = poly.evaluator(MultiPoly.const(V, 1), [MultiPoly(V, {(2, 0): Fraction(1, 3), (0, 0): 1})])
    assert at([{"x": 3, "y": "1/2"}]) == [([12], 3)]  # (x^2 + 3) / 3 at x = 3
    with pytest.raises(ValueError, match=r"^missing assignment for \['y'\]$"):
        at([{"x": 1, "y": 2}, {"x": 1}])
    for bad in (True, False, 0.5):
        for point in ({"x": bad, "y": 1}, {"x": 1, "y": bad}):
            with pytest.raises(ValueError, match="^scalar must be"):
                at([{"x": 1, "y": 1}, point])


@settings(max_examples=60, deadline=None)
@given(eval_inputs(), st.integers(-5, 5))
def test_at_matches_evaluation_at_the_substituted_point(inputs, k):
    # p.at(v, k) for every variable v, at 0 and 1 (the reference points transfer_commute tries) and k
    p, point = inputs
    for i, v in enumerate(p.vars):
        for value in (0, 1, k):
            q = p.at(v, value)
            assert q.vars == p.vars and all(exp[i] == 0 for exp, _ in q.sorted_terms())
            assert MultiPoly(q.vars, dict(q.sorted_terms())) == q
            assert _fraction_eval(q, point) == _fraction_eval(p, {**point, v: value})


# -- the sumset bound behind max_product_terms --

def _cancelling_pairs():
    """Pairs whose product cancels terms: (x + y)(x - y) = x^2 - y^2, (1 + x + x^2)(1 - x) = 1 - x^3, ..."""
    x, y = x_y()
    return [(x + y, x - y), (1 + x + x * x, -x + 1), (x + 1, x - 1), (x * y + 1, x * y - 1)]


def _sumset_size(p, q):
    """The number of exponent vectors a + b over the terms of p and of q."""
    return len({tuple(i + j for i, j in zip(ea, eb)) for ea, _ in p.sorted_terms() for eb, _ in q.sorted_terms()})


@st.composite
def cancelling_factors(draw):
    """(p, q) = (a * u, b * w) for drawn a, b and, often, a cancelling pair (u, w)."""
    a, b = draw(poly_strategy()), draw(poly_strategy())
    one = MultiPoly.const(V, 1)
    u, w = draw(st.sampled_from(_cancelling_pairs() + [(one, one)]))
    return a * u, b * w


def test_a_product_can_have_fewer_terms_than_its_sumset():
    p, q = _cancelling_pairs()[1]
    assert (p * q).num_terms() == 2 and _sumset_size(p, q) == 4


@settings(max_examples=100, deadline=None)
@given(cancelling_factors())
def test_a_product_has_at_most_the_sumset_of_the_supports_as_terms(pq):
    p, q = pq
    assert (p * q).num_terms() <= _sumset_size(p, q)


@st.composite
def product_entries(draw):
    """(entries, common): zero entries, scalar multiples of earlier entries, and entries that cancel against common."""
    u, w = draw(st.sampled_from(_cancelling_pairs()))
    common = draw(poly_strategy()) * draw(st.sampled_from([u, MultiPoly.const(V, 1)]))
    entries = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["poly", "zero", "multiple", "cancelling"]))
        if kind == "zero":
            entries.append(MultiPoly(V))
        elif kind == "multiple" and entries:
            entries.append(draw(st.sampled_from([-1, 2, Fraction(-3, 4)])) * draw(st.sampled_from(entries)))
        elif kind == "cancelling":
            entries.append(draw(poly_strategy()) * w)
        else:
            entries.append(draw(poly_strategy()))
    return entries, common


@settings(max_examples=150, deadline=None)
@given(product_entries())
def test_max_product_terms_is_the_plain_max(ec):
    entries, common = ec
    assert poly.max_product_terms(entries, common) == max(((e * common).num_terms() for e in entries if e), default=0)


def test_max_product_terms_expands_only_what_can_set_the_max(monkeypatch):
    x, y = x_y()
    common = (1 + x + x * x) * (1 + y + y * y)  # the exponent box [0, 2]^2
    big = (1 + x + x * x + x * x * x) * (1 + y + y * y + y * y * y)  # [0, 3]^2: times common, [0, 5]^2
    small = (1 + x + x * x) * (1 + 2 * y + y * y)  # 9 terms, so 81 term products, but its sumset is [0, 4]^2
    expanded = []
    mul = MultiPoly.__mul__
    monkeypatch.setattr(MultiPoly, "__mul__", lambda a, b: expanded.append(a) or mul(a, b))
    # -2 * big sets the max of 36 terms, big is a multiple of it, and small's sumset bound is 25
    assert poly.max_product_terms([small, MultiPoly(V), -2 * big, big], common) == 36
    assert expanded == [-2 * big]
    assert poly.max_product_terms([big], MultiPoly(V)) == 0
    assert poly.max_product_terms([], common) == 0
    with pytest.raises(ValueError):
        poly.max_product_terms([big], MultiPoly(("x",)))
