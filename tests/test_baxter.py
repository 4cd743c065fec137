from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from baxcheck import baxter
from baxcheck.baxter import (
    H_closed,
    H_series,
    build_R,
    check_regularity,
    check_unitarity,
    h_fun,
    reduce_cleared,
    rhat_cleared,
    series_agreement_order,
    spectral_fn,
    spectral_symbols,
)
from baxcheck.exactnum import (
    ClearedMatrix,
    FieldMatrix,
    MultiPoly,
    PoleError,
    RatFunc,
    SingularMatrixError,
    canonical_vars,
    poly_gcd,
)
from baxcheck.exactnum.ratfunc import denominator_lcm
from baxcheck.reps import BUILTIN_NAMES, Rep, builtin_rep
from helpers import cleared_value, rename_ratfunc

FIVE_FNS = {
    "i(2,1,0,1)": spectral_fn("i", 2, 1, 0, 1),
    "i(-1,0,2,3)": spectral_fn("i", -1, 0, 2, 3),
    "ii": spectral_fn("ii"),
    "iii": spectral_fn("iii"),
    "hecke": spectral_fn("hecke"),
}
XY = ("x", "y")
X, Y = RatFunc.var(XY, "x"), RatFunc.var(XY, "y")
# f(y, x) for each of FIVE_FNS, written out by hand: case i(a1, a2, b, c) with
# x and y swapped is case i(a2, a1, b, c), case ii swapped is case iii, and
# the ratio -x/y swapped is -y/x
SWAPPED = {
    "i(2,1,0,1)": spectral_fn("i", 1, 2, 0, 1),
    "i(-1,0,2,3)": spectral_fn("i", 0, -1, 2, 3),
    "ii": spectral_fn("iii"),
    "iii": spectral_fn("ii"),
    "hecke": -Y / X,
}


def test_case_ii_on_the_diagonal():
    f = spectral_fn("ii")
    assert f.vars == XY
    assert rename_ratfunc(f, {"y": "x"}) == X


def test_case_i_specialization():
    assert spectral_fn("i", 1, 0, 0, 1) == X / (1 + X * Y)
    assert spectral_fn("i", "3/2", "1/2", -1, 2) == (3 * X + Y - 2 * X * Y) / (2 + 4 * X * Y)


def test_cases_ii_and_iii():
    assert spectral_fn("ii") == (1 + Y) * X / (1 + X)
    assert spectral_fn("iii") == (1 + X) * Y / (1 + Y)


def test_ratio_function_sign_matches_hecke_normalization():
    assert spectral_fn("hecke") == -X / Y


def test_parameter_free_cases_are_built_once_and_case_i_per_call():
    for case in ("ii", "iii", "hecke"):
        assert spectral_fn(case) is spectral_fn(case)
    assert spectral_fn("i", 2, 1, 0, 1) is not spectral_fn("i", 2, 1, 0, 1)


def test_case_i_validates_alpha_difference():
    for alphas in ((2, 0), (0, 0), ("1/2", 0)):
        with pytest.raises(ValueError, match="alpha1 - alpha2"):
            spectral_fn("i", *alphas, 0, 1)
    assert spectral_fn("i", 3, 2, 1, 1) == (3 * X + 2 * Y + X * Y) / (1 + X * Y)


def test_spectral_fn_rejects_parameters_outside_case_i():
    for case in ("ii", "iii", "hecke"):
        for params in ((1,), (None, 0), (None, None, None, 1)):
            with pytest.raises(ValueError, match=f"case {case} takes no parameters"):
                spectral_fn(case, *params)
    with pytest.raises(ValueError, match="case i needs"):
        spectral_fn("i", 2, 1, 0)


def test_spectral_fn_rejects_an_unknown_case():
    for case in ("iv", "I", "ratio", ""):
        with pytest.raises(ValueError, match="^unknown case "):
            spectral_fn(case)


def test_rhat_cleared_needs_distinct_symbols():
    rep = builtin_rep("B3_2dim")
    symbols = spectral_symbols(rep, ("x", "y", "z"))
    for u in ("x", "y", "z"):
        with pytest.raises(ValueError, match="distinct"):
            rhat_cleared(rep, 1, spectral_fn("ii"), u, u, symbols)


@pytest.mark.parametrize("label", FIVE_FNS)
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_r_matrix_solves_its_defining_relation_with_a_hand_swapped_f(name, label):
    # Rhat (1 - f(y, x) sigma) = 1 - f(x, y) sigma, with f(y, x) from SWAPPED
    rep = builtin_rep(name)
    symbols = spectral_symbols(rep, XY)
    fxy, fyx = FIVE_FNS[label].lift(symbols), SWAPPED[label].lift(symbols)
    ident = FieldMatrix.identity(rep.dim, RatFunc.const(symbols, 1))
    for site in range(1, rep.n):
        sigma = rep.site(site, symbols)
        R = build_R(rep, site, FIVE_FNS[label])
        assert R.value() * (ident - sigma.scale(fyx)) == ident - sigma.scale(fxy)


def test_nilpotent_r_matrix_closed_form():
    rep = builtin_rep("A3_2dim", c=1)
    fn = spectral_fn("i", 2, 1, 0, 1)
    R = build_R(rep, 1, fn)
    symbols = canonical_vars(set(rep.params) | {"x", "y"})
    fxy = fn.lift(symbols)
    fyx = SWAPPED["i(2,1,0,1)"].lift(symbols)
    sigma = rep.matrices[1].map_entries(lambda e: e.lift(symbols))
    ident = FieldMatrix.identity(2, RatFunc.const(symbols, 1))
    assert R.value() == ident + sigma.scale(fyx - fxy)


def test_r_matrix_defining_invariant():
    rep = builtin_rep("B3_2dim")
    fn = spectral_fn("ii")
    R = build_R(rep, 1, fn)
    symbols = canonical_vars(set(rep.params) | {"x", "y"})
    sigma = rep.matrices[1].map_entries(lambda e: e.lift(symbols))
    ident = FieldMatrix.identity(2, RatFunc.const(symbols, 1))
    fxy = fn.lift(symbols)
    fyx = SWAPPED["ii"].lift(symbols)
    assert R.value() * (ident - sigma.scale(fyx)) == ident - sigma.scale(fxy)


def test_scalar_r_matrix_is_ratio_of_scalars():
    rep = builtin_rep("scalar")  # one symbolic value for every generator
    fn = spectral_fn("ii")
    R = build_R(rep, 1, fn)
    symbols = canonical_vars(set(rep.params) | {"x", "y"})
    lam, one = RatFunc.var(symbols, "lam"), RatFunc.const(symbols, 1)
    fxy = fn.lift(symbols)
    fyx = SWAPPED["ii"].lift(symbols)
    assert R.value()[0, 0] == (one - fxy * lam) / (one - fyx * lam)
    # at lam = 0 the reduced Rhat is 1 over no denominator factor, which every baxterise check reads
    zero = builtin_rep("scalar", values=[0, 0])
    R = build_R(zero, 1, fn)
    assert R.factors == [] and R.value() == FieldMatrix.identity(1, RatFunc.const(XY, 1))
    assert check_regularity(R) and check_unitarity(R)
    assert series_agreement_order(zero, 1, 3) is None


@pytest.mark.parametrize("case", ["i", "ii", "iii", "hecke"])
def test_regularity_and_unitarity_sample(case):
    fn = {"i": spectral_fn("i", 2, 1, 0, 1), "ii": spectral_fn("ii"), "iii": spectral_fn("iii"),
          "hecke": spectral_fn("hecke")}[case]
    for name in ("A3_2dim", "Hecke3_std"):
        rep = builtin_rep(name) if name != "A3_2dim" else builtin_rep(name, c=1)
        R = build_R(rep, 1, fn)
        assert check_regularity(R)
        assert check_unitarity(R)


def test_identically_singular_factor_is_reported():
    # a contrived 1x1 rep whose entry involves the spectral variables; build_R
    # rejects such a rep, and over a rep free of them det(1 - f sigma) has
    # constant term 1 in f, so the guard is reached through rhat_cleared
    vars = canonical_vars({"x", "y"})
    x, y = RatFunc.var(vars, "x"), RatFunc.var(vars, "y")
    rep = Rep(3, 1, vars, {1: FieldMatrix(1, 1, [-(x / y)]), 2: FieldMatrix(1, 1, [x])})
    with pytest.raises(SingularMatrixError):
        rhat_cleared(rep, 1, spectral_fn("hecke"), "x", "y", vars)
    with pytest.raises(ValueError, match="collide"):
        build_R(rep, 1, spectral_fn("hecke"))


@pytest.mark.parametrize("fn", FIVE_FNS.values(), ids=FIVE_FNS)
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_renamed_rhat_equals_rhat_built_at_the_renamed_pair(name, fn):
    rep = builtin_rep(name)
    xyz = spectral_symbols(rep, ("x", "y", "z"))
    xy = spectral_symbols(rep, ("x", "y"))
    for site in range(1, rep.n):
        C = rhat_cleared(rep, site, fn, "x", "y", xyz)
        for mapping, (u, w) in (({"y": "z"}, "xz"), ({"x": "y", "y": "z"}, "yz")):
            assert _parts(C.map(lambda e: e.rename(mapping))) == _parts(rhat_cleared(rep, site, fn, u, w, xyz))
        # build_R's form is reduced, so Rhat(y, x) is compared by value
        R = build_R(rep, site, fn)
        swapped = R.map(lambda e: e.rename({"x": "y", "y": "x"}))
        assert cleared_value(swapped) == cleared_value(rhat_cleared(rep, site, fn, "y", "x", xy))


def _parts(C):
    """The polynomial matrix and the factor list of a cleared matrix, compared term by term."""
    return C.M, C.factors


@pytest.mark.parametrize("fn", FIVE_FNS.values(), ids=FIVE_FNS)
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_build_R_stores_the_reduced_cleared_form(name, fn):
    rep = builtin_rep(name)
    for site in range(1, rep.n):
        R = build_R(rep, site, fn)
        value = R.value()
        assert R.factors == [denominator_lcm(value.entries, value.entries[0].vars)]
        assert cleared_value(R) == value
        assert _common_factor(R.M, R.denominator()).is_constant()


def _common_factor(P, delta):
    """gcd of delta and every nonzero entry of P, folded with poly_gcd."""
    return _content_fold(P, delta)[0]


def _content_fold(P, delta):
    """(gcd of delta and every nonzero entry of P, how often that running gcd shrinks), folded smallest entry first.

    The nonzero entries are taken in ascending term count, ties in storage order, as reduce_cleared walks them.
    The running gcd starts at delta and shrinks at an entry that it does not divide.
    """
    common, shrinks = delta, 0
    for e in sorted((e for e in P.entries if e), key=lambda e: e.num_terms()):
        g = poly_gcd(common, e)[0]
        shrinks += g != (1 / common.lc()) * common
        common = g
    return common, shrinks


def _counted_reduce(C):
    """(reduce_cleared(C), the number of poly_gcd calls it took)."""
    calls = []

    def counted(p, q):
        calls.append((p, q))
        return poly_gcd(p, q)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(baxter, "poly_gcd", counted)
        return reduce_cleared(C), len(calls)


@pytest.mark.parametrize("fn", FIVE_FNS.values(), ids=FIVE_FNS)
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_reduce_cleared_divides_out_the_content(name, fn):
    rep = builtin_rep(name)
    symbols = spectral_symbols(rep, ("x", "y"))
    for site in range(1, rep.n):
        C = rhat_cleared(rep, site, fn, "x", "y", symbols)
        (reduced, g), gcds = _counted_reduce(C)
        (delta,), (delta_red,) = C.factors, reduced.factors
        assert reduced.M.map_entries(lambda e: g * e) == C.M
        assert g * delta_red == delta
        assert delta_red.lc() == 1
        assert _common_factor(reduced.M, delta_red).is_constant()
        # one gcd per shrink of the running content, never more than the fold's one per nonzero entry
        assert gcds == _content_fold(C.M, delta)[1] <= sum(1 for e in C.M.entries if e)


@st.composite
def planted_content(draw):
    """(C, g): a 2x2 ClearedMatrix g*P over g*delta' in 1-3 variables, some entries zero, and its planted g."""
    nvars = draw(st.integers(1, 3))
    vars = ("x", "y", "z")[:nvars]
    exp = st.tuples(*[st.integers(0, 2)] * nvars)
    coeff = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))

    def poly_in(min_terms, max_terms):
        terms = draw(st.lists(st.tuples(exp, coeff.filter(bool)), min_size=min_terms, max_size=max_terms))
        return sum((MultiPoly(vars, {e: c}) for e, c in terms), MultiPoly(vars))

    g, delta = poly_in(1, 3), poly_in(1, 3)
    assume(g and delta)
    entries = [g * poly_in(0, 3) for _ in range(4)]
    return ClearedMatrix(FieldMatrix(2, 2, entries), g * delta), g


@settings(max_examples=60, deadline=None)
@given(planted_content())
def test_reduce_cleared_matches_the_gcd_fold(planted):
    C, planted_g = planted
    delta = C.denominator()
    (reduced, g), gcds = _counted_reduce(C)
    common, shrinks = _content_fold(C.M, delta)
    assert (1 / g.lc()) * g == (1 / common.lc()) * common
    assert g.divexact(planted_g)  # the planted factor divides the content
    assert reduced.M.map_entries(lambda e: g * e) == C.M
    assert g * reduced.denominator() == delta
    assert reduced.denominator().lc() == 1
    assert _common_factor(reduced.M, reduced.denominator()).is_constant()
    # one gcd per shrink of the running content, never more than the fold's one per nonzero entry
    assert gcds == shrinks <= sum(1 for e in C.M.entries if e)


def test_reduce_cleared_content_shrinks_twice():
    # g runs delta -> x*y -> x: the first entry divides, the next two each take a gcd, and the unit 2 moves into g
    vars = ("x", "y")
    x, y = MultiPoly.var(vars, "x"), MultiPoly.var(vars, "y")
    half = Fraction(1, 2)
    C = ClearedMatrix(FieldMatrix(2, 2, [3 * x * y * (x + 1), MultiPoly(vars), x * y, half * x]),
                      2 * x * y * (x + 1))
    (reduced, g), gcds = _counted_reduce(C)
    assert gcds == 2
    assert g == 2 * x
    assert reduced.M.entries == [(x + 1) * (Fraction(3, 2) * y), MultiPoly(vars), half * y,
                                 MultiPoly.const(vars, Fraction(1, 4))]
    assert reduced.factors == [(x + 1) * y]


def test_reduce_cleared_leaves_no_factor_when_delta_divides_every_entry():
    vars = ("x", "y")
    x, y = MultiPoly.var(vars, "x"), MultiPoly.var(vars, "y")
    delta = 2 * (x + y)
    C = ClearedMatrix(FieldMatrix(2, 2, [delta * x, 3 * delta, MultiPoly(vars), delta * delta]), delta)
    (reduced, g), gcds = _counted_reduce(C)
    assert gcds == 0
    assert g == delta
    assert reduced.factors == []
    assert reduced.M.entries == [x, MultiPoly.const(vars, 3), MultiPoly(vars), delta]


@pytest.mark.parametrize("name, fn, per_site", [("Hecke3_std", "ii", 1), ("B3_2dim", "i(2,1,0,1)", 1)])
def test_reduce_cleared_gcds_per_site(name, fn, per_site):
    # the fold took one gcd per nonzero entry (six on Hecke3_std, three on B3_2dim); walked smallest entry first,
    # the content shrinks once on both (twice on B3_2dim in storage order)
    rep = builtin_rep(name)
    symbols = spectral_symbols(rep, XY)
    for site in range(1, rep.n):
        assert _counted_reduce(rhat_cleared(rep, site, FIVE_FNS[fn], "x", "y", symbols))[1] == per_site


@pytest.mark.parametrize("name, fn", [("B3_2dim", "ii"), ("C3_2dim", "iii"), ("Hecke3_std", "hecke")])
def test_reduce_cleared_content_is_nonconstant_on_benchmark_rows(name, fn):
    rep = builtin_rep(name)
    for site in (1, 2):
        _, g = reduce_cleared(rhat_cleared(rep, site, FIVE_FNS[fn], "x", "y", spectral_symbols(rep, ("x", "y"))))
        assert not g.is_constant()


def test_unitarity_fails_on_a_perturbed_cleared_matrix():
    # B3_2dim's cleared form has no common factor; on Hecke3_std case i, build_R drops one
    for name, fn in (("B3_2dim", spectral_fn("ii")), ("Hecke3_std", FIVE_FNS["i(2,1,0,1)"])):
        R = build_R(builtin_rep(name), 1, fn)
        assert check_unitarity(R)
        entries = list(R.M.entries)
        entries[1] = entries[1] + 1
        assert not check_unitarity(ClearedMatrix(FieldMatrix(R.M.rows, R.M.cols, entries), *R.factors))


def _regular_by_canonical_entries(R):
    """Reference for check_regularity: rename y := x in num and den of each canonical entry."""
    try:
        at_diag = R.value().map_entries(lambda e: rename_ratfunc(e, {"y": "x"}))
    except PoleError:
        return "singular"
    return at_diag == FieldMatrix.identity(R.M.rows, RatFunc.const(at_diag.entries[0].vars, 1))


def _regular_by_cleared_form(R):
    try:
        return check_regularity(R)
    except SingularMatrixError:
        return "singular"


@pytest.mark.parametrize("fn", FIVE_FNS.values(), ids=FIVE_FNS)
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_regularity_on_the_cleared_form_matches_the_canonical_entries(name, fn):
    rep = builtin_rep(name)
    for site in range(1, rep.n):
        R = build_R(rep, site, fn)
        assert _regular_by_cleared_form(R) == _regular_by_canonical_entries(R) is True


def test_regularity_fails_alike_at_q_minus_one():
    # at q = -1 the Hecke relation (s - 1)(s + 1) = 0 lets Rhat(x, x) differ from 1
    for name in ("Hecke3_std", "Hecke3_burau"):
        for label, fn in FIVE_FNS.items():
            R = build_R(builtin_rep(name, q=-1), 1, fn)
            regular = _regular_by_cleared_form(R)
            assert regular == _regular_by_canonical_entries(R)
            assert regular is (label != "hecke"), (name, label)


def test_regularity_raises_on_a_pole_all_along_the_diagonal():
    vars = canonical_vars({"x", "y"})
    x, y = MultiPoly.var(vars, "x"), MultiPoly.var(vars, "y")
    R = ClearedMatrix(FieldMatrix(1, 1, [x]), x - y)
    with pytest.raises(SingularMatrixError, match="diagonal"):
        check_regularity(R)


def test_spectral_symbols_reject_colliding_names():
    rep = builtin_rep("B3_2dim", mu=RatFunc.var(("x",), "x"))
    assert spectral_symbols(builtin_rep("B3_2dim"), ("y", "x")) == ("x", "y", "mu", "nu")
    with pytest.raises(ValueError, match="collide"):
        spectral_symbols(rep, ("z",))  # x is reserved even when unused
    with pytest.raises(ValueError, match="collide"):
        spectral_symbols(builtin_rep("B3_2dim"), ("mu", "y"))
    with pytest.raises(ValueError, match="distinct"):
        spectral_symbols(builtin_rep("B3_2dim"), ("x", "x"))
    for call in (
        lambda: build_R(rep, 1, spectral_fn("ii")),
        lambda: H_closed(rep, 1),
        lambda: H_series(rep, 1, 2),
        lambda: series_agreement_order(rep, 1, 2),
    ):
        with pytest.raises(ValueError, match="collide"):
            call()


def test_H_closed_nilpotent_equals_generator():
    rep = builtin_rep("A3_2dim")
    symbols = canonical_vars(set(rep.params) | {"z"})
    sigma = rep.matrices[1].map_entries(lambda e: e.lift(symbols))
    assert H_closed(rep, 1).value() == sigma
    assert H_series(rep, 1, 4) == sigma


_T = RatFunc.var(("t",), "t")
H_CASES = [(name, {}) for name in BUILTIN_NAMES] + [
    ("Hecke3_std", {"q": 2}),
    ("Hecke3_burau", {"q": Fraction(1, 3)}),
    ("B3_2dim", {"nu": _T / (_T + 1)}),
]


@pytest.mark.parametrize("name, params", H_CASES)
@pytest.mark.parametrize("site", [1, 2])
def test_H_closed_solves_its_defining_identity(name, params, site):
    """(1 - z sigma_i) H_i(z) = sigma_i = H_i(z) (1 - z sigma_i), checked with products only.

    The last case has an entry denominator, t + 1, so sigma_i = S / s0 with s0 nonconstant.
    """
    rep = builtin_rep(name, **params)
    symbols = spectral_symbols(rep, ("z",))
    sigma = rep.site(site, symbols)
    N = FieldMatrix.identity(rep.dim, RatFunc.const(symbols, 1)) - sigma.scale(RatFunc.var(symbols, "z"))
    H = H_closed(rep, site).value()
    assert N * H == sigma == H * N


def _power_sums(rep: Rep, site: int, max_order: int) -> list[FieldMatrix]:
    """[sum_{l <= order} sigma^(l+1) z^l for order = 0 .. max_order], sigma = rep.site(site) over (z, params).

    The oracle for H_series: sigma^(l+1) is l + 1 factors of sigma, and z^l is the monomial with exponent l.
    """
    symbols = spectral_symbols(rep, ("z",))
    sigma = rep.site(site, symbols)
    sums = []
    for l in range(max_order + 1):
        power = sigma
        for _ in range(l):
            power = power * sigma
        z_l = RatFunc(MultiPoly(symbols, {tuple(l if v == "z" else 0 for v in symbols): 1}))
        term = power.map_entries(lambda e: e * z_l)
        sums.append(sums[-1] + term if sums else term)
    return sums


@pytest.mark.parametrize("name, params", H_CASES)
def test_H_series_is_the_power_sum(name, params):
    rep = builtin_rep(name, **params)
    for site in (1, 2):
        for order, expected in enumerate(_power_sums(rep, site, 8)):
            assert H_series(rep, site, order) == expected, (site, order)


def test_series_agreement_orders():
    assert series_agreement_order(builtin_rep("A3_2dim"), 1, 8) is None  # exact
    assert series_agreement_order(builtin_rep("B3_2dim"), 1, 8) == 9
    assert series_agreement_order(builtin_rep("B3_2dim"), 1, 3) == 4

    def canonical_order(H, series):
        """The oracle: the canonical RatFunc difference, entrywise val(num) - val(den)."""
        diff = H - series
        vals = [e.num.valuation_in("z") - e.den.valuation_in("z") for e in diff.entries if e]
        return min(vals) if vals else None

    for name, params in H_CASES:
        rep = builtin_rep(name, **params)
        for site in (1, 2):
            H = H_closed(rep, site).value()
            for order, series in enumerate(_power_sums(rep, site, 8)):
                assert series_agreement_order(rep, site, order) == canonical_order(H, series), (name, site, order)


def test_series_agreement_order_reads_the_order_before_building_H(monkeypatch):
    built = []
    monkeypatch.setattr(baxter, "H_closed", lambda *args: built.append(args))
    rep = builtin_rep("B3_2dim")
    for order in (-1, True, 1.5):
        with pytest.raises(ValueError, match="^series_order: "):
            series_agreement_order(rep, 1, order)
    assert built == []


def test_h_fun():
    h = h_fun(1, 0, 1)
    z = RatFunc.var(h.vars, "z")
    assert h == RatFunc.const(h.vars, 1) / (z * z - 1)
    with pytest.raises(ValueError):
        h_fun(0, 1, 1)
