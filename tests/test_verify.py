import math
import random
import sys
from fractions import Fraction

import pytest
import sympy

from baxcheck import baxter, verify
from baxcheck.baxter import reduce_cleared, rhat_cleared, spectral_fn, spectral_symbols
from baxcheck.cli import EXIT_INTERNAL, run_job
from baxcheck.exactnum import (
    FieldMatrix,
    MultiPoly,
    PoleError,
    RatFunc,
    SingularMatrixError,
    canonical_vars,
    format_scalar,
    poly_gcd,
)
from baxcheck.ncalg import ALGEBRAS, relations_for
from baxcheck.report import VerifyReport
from baxcheck.reps import BUILTIN_NAMES, Rep, builtin_rep, check_relations, verify_scalar
from baxcheck.verify import (
    MAX_RESAMPLES,
    SAMPLING_FAILURE,
    DetRng,
    _min_poly,
    _numeric_rhat,
    _transfer_matrices,
    choose_reference_point,
    lemma_suite_A,
    lemma_suite_B,
    sample_fraction,
    split_rng,
    transfer_commute,
    ybe_random,
    ybe_symbolic,
)
from helpers import tensor_legs
from test_baxter import FIVE_FNS


def test_ybe_symbolic_pass_and_negative_control():
    rep = builtin_rep("A3_2dim", c=1)
    assert ybe_symbolic(rep, spectral_fn("i", 2, 1, 0, 1)).passed
    control = ybe_symbolic(rep, spectral_fn("ii"))
    assert control.status == "fail"
    # the term count of the fully cross-multiplied residual, as before cancellation
    assert control.residuals == [("ybe", 1124)]


def test_ybe_symbolic_builds_one_rhat_for_equal_sites(monkeypatch):
    # sites are matched by value: Hecke3_std's two equal matrices and scalar(2, 2) share one Rhat, scalar(2, 3) does not
    built, original = [], verify.rhat_cleared
    monkeypatch.setattr(verify, "rhat_cleared", lambda rep, site, *a: built.append(site) or original(rep, site, *a))
    for rep, fn, sites, status in ((builtin_rep("Hecke3_std"), "hecke", [1], "pass"),
                                   (builtin_rep("scalar", values=[2, 2]), "ii", [1], "pass"),
                                   (builtin_rep("scalar", values=[2, 3]), "ii", [1, 2], "fail"),
                                   (builtin_rep("B3_2dim"), "ii", [1, 2], "pass")):
        built.clear()
        assert ybe_symbolic(rep, spectral_fn(fn)).status == status
        assert built == sites


def test_ybe_symbolic_control_row_expands_one_residual_entry(monkeypatch):
    # the residual entries have 30, 60, 30 and 30 terms and the restoring factor 105, so the sumset bounds are
    # 562, 1124, 562 and 562: the 60-term entry sets the reported 1124, and no other entry is multiplied out
    seen, mul, original = [], MultiPoly.__mul__, verify.max_product_terms

    def spy(entries, common):
        expanded = []

        def counted(a, b):
            if b is common:
                expanded.append(a.num_terms())
            return mul(a, b)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(MultiPoly, "__mul__", counted)
            worst = original(entries, common)
        seen.append(([e.num_terms() for e in entries if e], common.num_terms(), expanded, worst))
        return worst

    monkeypatch.setattr(verify, "max_product_terms", spy)
    assert ybe_symbolic(builtin_rep("A3_2dim", c=1), spectral_fn("ii")).residuals == [("ybe", 1124)]
    assert seen == [([30, 60, 30, 30], 105, [60], 1124)]


def _ybe_cross_multiplied(rep, fn):
    """Reference residual size: cross-multiply the full side denominators."""
    symbols = canonical_vars(set(rep.params) | {"x", "y", "z"})

    def side(keys):
        factors = [rhat_cleared(rep, site, fn, u, w, symbols) for site, u, w in keys]
        P, d = factors[0].M, factors[0].denominator()
        for C in factors[1:]:
            P, d = P * C.M, d * C.denominator()
        return P, d

    lhs_P, lhs_d = side([(1, "x", "y"), (2, "x", "z"), (1, "y", "z")])
    rhs_P, rhs_d = side([(2, "y", "z"), (1, "x", "z"), (2, "x", "y")])
    resid = lhs_P.scale(rhs_d) - rhs_P.scale(lhs_d)
    return max((e.num_terms() for e in resid.entries if e), default=0)


@pytest.mark.parametrize("values", [[1, 2], [2, None], [None, None], [0, 0]])
@pytest.mark.parametrize(
    "fn", [spectral_fn("ii"), spectral_fn("iii"), spectral_fn("i", 2, 1, 0, 1)], ids=["ii", "iii", "i"]
)
def test_ybe_symbolic_matches_full_cross_multiplication(values, fn):
    # scalar sites with different values share no denominator factor, so the
    # residual is fully cross-multiplied; with equal values all factors cancel,
    # and at 0 each reduced Rhat is 1 over no factor at all
    rep = builtin_rep("scalar", values=values)
    expected = _ybe_cross_multiplied(rep, fn)
    report = ybe_symbolic(rep, fn)
    assert report.residuals == [("ybe", expected)]
    assert report.passed == (expected == 0)


@pytest.mark.parametrize(
    "name, fn",
    [("A3_2dim", spectral_fn("ii")), ("B3_2dim", spectral_fn("i", 2, 1, 0, 1)),
     ("Hecke3_burau", spectral_fn("i", -1, 0, 2, 3))],
    ids=["A3_2dim-ii", "B3_2dim-i(2,1,0,1)", "Hecke3_burau-i(-1,0,2,3)"],
)
def test_ybe_symbolic_matches_full_cross_multiplication_on_failing_builtins(name, fn):
    # each site's cleared R-hat here has a nonconstant content g, so the count
    # is right only when every factor's g is multiplied back into the residual
    rep = builtin_rep(name)
    symbols = spectral_symbols(rep, ("x", "y", "z"))
    for site in (1, 2):
        assert not reduce_cleared(rhat_cleared(rep, site, fn, "x", "y", symbols))[1].is_constant()
    expected = _ybe_cross_multiplied(rep, fn)
    assert expected > 0
    assert ybe_symbolic(rep, fn).residuals == [("ybe", expected)]


def test_ybe_symbolic_builds_one_rhat_per_site(monkeypatch):
    calls = []

    def counted(rep, i, fn, u, w, symbols):
        calls.append((i, u, w))
        return rhat_cleared(rep, i, fn, u, w, symbols)

    monkeypatch.setattr(verify, "rhat_cleared", counted)
    assert ybe_symbolic(builtin_rep("B3_2dim"), spectral_fn("ii")).passed
    assert calls == [(1, "x", "y"), (2, "x", "y")]


def test_ybe_symbolic_and_build_R_reduce_once_per_site(monkeypatch):
    calls = []

    def counted(C):
        calls.append(C.M.entries[0].vars)
        return reduce_cleared(C)

    rep = builtin_rep("B3_2dim")
    monkeypatch.setattr(verify, "reduce_cleared", counted)
    monkeypatch.setattr(baxter, "reduce_cleared", counted)
    assert ybe_symbolic(rep, spectral_fn("ii")).passed
    for site in (1, 2):
        baxter.build_R(rep, site, spectral_fn("ii"))
    # ybe_symbolic's two reductions over (x, y, z), then build_R's one per site over (x, y)
    xyz, xy = ("x", "y", "z", "mu", "nu"), ("x", "y", "mu", "nu")
    assert calls == [xyz, xyz, xy, xy]


def test_spectral_name_collisions_are_rejected():
    # mu named x would merge with the spectral x symbolically but be drawn
    # independently in the randomized check
    x, v = RatFunc.var(("x",), "x"), RatFunc.var(("v",), "v")
    rep = builtin_rep("B3_2dim", mu=x)
    fn = spectral_fn("ii")
    for call in (
        lambda: ybe_symbolic(rep, fn),
        lambda: ybe_random(rep, fn, trials=2),
        lambda: lemma_suite_B(builtin_rep("B3_2dim", nu=v)),
        lambda: transfer_commute(builtin_rep("Hecke3_std", q=x), 1, spectral_fn("hecke"), lengths=[2]),
    ):
        with pytest.raises(ValueError):
            call()


def test_ybe_requires_three_strands():
    lam = builtin_rep("scalar", values=[1])
    with pytest.raises(ValueError):
        ybe_symbolic(lam, spectral_fn("ii"))


@pytest.mark.parametrize("check", [
    lambda rep: ybe_random(rep, spectral_fn("ii"), trials=2, seed=1),
    lambda rep: lemma_suite_A(rep, 2, 0, 1),
    lambda rep: lemma_suite_B(rep),
    lambda rep: transfer_commute(rep, 1, spectral_fn("hecke"), [2], count=1, seed=1),
], ids=["ybe_random", "lemma_suite_A", "lemma_suite_B", "transfer_commute"])
def test_two_site_checks_require_three_strands(check):
    """Every other check built on sigma_1 and sigma_2 rejects a rep with one site too."""
    with pytest.raises(ValueError, match="sites 1 and 2"):
        check(builtin_rep("scalar", values=[1]))


def test_ybe_random_agrees_with_symbolic():
    rep = builtin_rep("A3_2dim", c=1)
    good = ybe_random(rep, spectral_fn("i", 2, 1, 0, 1), trials=6, seed=3)
    assert good.passed
    bad = ybe_random(rep, spectral_fn("ii"), trials=6, seed=3)
    assert bad.status == "fail"


def test_summary_names_a_nonzero_residual_by_its_size_in_either_unit():
    # the randomized size counts nonzero int entries, the symbolic one counts terms
    rep, fn = builtin_rep("A3_2dim", c=1), spectral_fn("ii")
    assert ybe_random(rep, fn, trials=2, seed=1).summary() == "ybe randomized: fail\n  ybe: nonzero (size 4)"
    assert ybe_symbolic(rep, fn).summary() == "ybe symbolic: fail\n  ybe: nonzero (size 1124)"


def _two_inverse_rhat(sigma, a, b):
    """Reference: (1 - a sigma)(1 - b sigma)^-1 as written, one product and one inverse.

    The inverse is that of the int matrix c N for N = 1 - b sigma: (c N)^-1 = X / D gives N^-1 = c X / D.
    """
    ident = FieldMatrix.identity(sigma.rows, Fraction(1))
    c, cN = _scaled(ident - sigma.scale(b))
    X, D = cN.inv()
    return (ident - sigma.scale(a)) * X.map_entries(lambda e: Fraction(c * e, D))


def _uncleared(M, D):
    """The Fraction matrix M / D, after checking (M, D) is a reduced int cleared form."""
    assert type(D) is int and D > 0 and all(type(e) is int for e in M.entries)
    assert math.gcd(D, *M.entries) == 1
    return M.map_entries(lambda e: Fraction(e, D))


def _over(S, s):
    """The Fraction matrix S / s."""
    return S.map_entries(lambda e: Fraction(e, s))


def _block_diagonal(*blocks):
    """The int matrix diag(blocks[0], blocks[1], ...), each block a list of rows."""
    n, rows = sum(len(b) for b in blocks), []
    for b in blocks:
        rows += [[0] * len(rows) + list(r) + [0] * (n - len(rows) - len(b)) for r in b]
    return FieldMatrix.from_rows(rows)


def _low_degree_blocks(d, rng, a):
    """Block layouts of size d whose minimal polynomial has degree k < d, each with a as an eigenvalue."""
    c, e, m = (rng.randint(-4, 4) for _ in range(3))
    p, q = rng.randint(-5, 5), rng.randint(-5, 5)
    B = [[p, q], [(p - a) * m, a + q * m]]  # det(B - a) = 0
    T = [[a, rng.randint(-3, 3)], [0, c]]
    T3 = [[a, rng.randint(-3, 3), rng.randint(-3, 3)], [0, c, rng.randint(-3, 3)], [0, 0, e]]
    return {
        3: [(T, [[a]]), ([[a]], [[a]], [[c]]), ([[a]], [[a]], [[a]])],
        4: [(B, B), (T, [[a]], [[c]]), (T3, [[e]]), (T, T)],
        8: [(B, B, B, B), (T, [[a]], T, [[c]], T), (T3, T3, T), (T3, [[a]], [[c]], T3)],
    }[d]


@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_numeric_rhat_matches_product_with_inverse(d):
    # sigma = S / s from an int pair, with s = 1, s > 1 and s < 0 in turn
    rng = random.Random(d)

    def scalar():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

    def agrees(S, s, a, b):
        """True once checked against the reference; False when both find N singular."""
        try:
            reference = _two_inverse_rhat(_over(S, s), a, b)
        except SingularMatrixError:
            with pytest.raises(SingularMatrixError):
                _numeric_rhat(S, s, _min_poly(S), a.as_integer_ratio(), b.as_integer_ratio())
            return False
        assert _uncleared(*_numeric_rhat(S, s, _min_poly(S), a.as_integer_ratio(), b.as_integer_ratio())) == reference
        return True

    checked = 0
    for trial in range(60):
        s = (1, rng.randint(2, 5), -rng.randint(1, 5))[trial % 3]
        S = FieldMatrix(d, d, [rng.randint(-9, 9) if rng.random() < 0.6 else 0 for _ in range(d * d)])
        checked += agrees(S, s, scalar(), rng.choice([Fraction(0), scalar()]))
        for a, b in ((Fraction(3, 2), Fraction(0)), (Fraction(0), Fraction(0)), (Fraction(5, 7), Fraction(5, 7))):
            agrees(S, s, a, b)
    assert checked >= 30
    # N = 1 - b sigma is singular when 1/b is an eigenvalue of sigma
    for s in (1, 3, -2):
        S = FieldMatrix(d, d, [(2 + i) * s if i == j else 0 for i in range(d) for j in range(d)])
        with pytest.raises(SingularMatrixError):
            _numeric_rhat(S, s, _min_poly(S), (1, 1), (1, 3))
    if d == 2:
        return
    # block-diagonal sites with repeated blocks or eigenvalues: mu has degree k < d, so the
    # inverse is the companion pencil's; N is singular at b = s / a for an eigenvalue a of S
    checked, degrees = 0, set()
    for trial in range(40):
        s = (1, rng.randint(2, 5), -rng.randint(1, 5))[trial % 3]
        a = rng.choice([-3, -2, -1, 1, 2, 3])
        S = _block_diagonal(*rng.choice(_low_degree_blocks(d, rng, a)))
        degrees.add(_min_poly(S)[0].rows)
        checked += agrees(S, s, scalar(), rng.choice([Fraction(0), scalar()]))
        for b in (Fraction(5, 7), Fraction(0)):
            agrees(S, s, b, b)
        assert not agrees(S, s, scalar(), Fraction(s, a))
    assert checked >= 30
    assert max(degrees) < d and len(degrees) >= 2


def _hecke_std_site(q):
    """The int site pair (S', s') of Hecke3_std at q."""
    return verify._site_at(*builtin_rep("Hecke3_std", q=q).site(1).cleared(), {})


def _legs_sites(q):
    """The int site matrices S' (x) 1 and 1 (x) S' of the 8 x 8 legs rep at q."""
    S, _ = _hecke_std_site(q)
    legs = tensor_legs(S, 3, 1)
    return legs[1], legs[2]


def _min_poly_cases():
    rng = random.Random(5)
    rand = {f"random{n}x{n}#{i}": FieldMatrix(n, n, [rng.randint(-9, 9) for _ in range(n * n)])
            for n in (3, 4) for i in range(3)}
    return {
        "1 x 1": FieldMatrix(1, 1, [5]),
        "scalar": _block_diagonal([[3]], [[3]], [[3]], [[3]]),
        "nilpotent Jordan block": _block_diagonal([[0, 1, 0], [0, 0, 1], [0, 0, 0]]),
        "nilpotent Jordan blocks 2 + 1 + 1": _block_diagonal([[0, 1], [0, 0]], [[0]], [[0]]),
        "repeated eigenvalues": _block_diagonal([[2]], [[-1]], [[2]], [[5]], [[-1]]),
        "Hecke3_std(2)": _hecke_std_site(2)[0],
        "legs(2) site 1": _legs_sites(2)[0],
        "legs(2) site 2": _legs_sites(2)[1],
        **rand,
    }


MIN_POLY_CASES = _min_poly_cases()


def _krylov_rank(ref, count):
    """sympy's rank of [vec(S^0) ... vec(S^(count - 1))]."""
    return sympy.Matrix([list(ref**j) for j in range(count)]).rank()


@pytest.mark.parametrize("name", MIN_POLY_CASES)
def test_min_poly_matches_sympy(name):
    S = MIN_POLY_CASES[name]
    n, ref = S.rows, sympy.Matrix(S.rows, S.cols, S.entries)
    t = sympy.Symbol("t")
    algebra = _min_poly(S)
    if algebra is None:  # k = n: the Krylov vectors of S^0, ..., S^(n-1) are independent
        assert _krylov_rank(ref, n) == n
        return
    C, powers = algebra
    k = C.rows
    assert k < n and all(type(e) is int for e in C.entries)
    # C is the companion matrix of mu: 1's below the diagonal, mu's low coefficients negated in the last column
    assert all(C[i, j] == (1 if i == j + 1 else 0) for i in range(k) for j in range(k - 1))
    mu = [-C[i, k - 1] for i in range(k)] + [1]
    assert powers == [FieldMatrix(n, n, list(ref**j)) for j in range(k)]
    assert sum((m * ref**j for j, m in enumerate(mu)), sympy.zeros(n, n)) == sympy.zeros(n, n)
    assert _krylov_rank(ref, k) == k
    _, remainder = sympy.div(ref.charpoly(t).as_expr(), sum(m * t**j for j, m in enumerate(mu)), t)
    assert remainder == 0


def test_min_poly_degrees_of_the_named_cases():
    degrees = {name: (algebra[0].rows if (algebra := _min_poly(S)) else None) for name, S in MIN_POLY_CASES.items()}
    assert degrees["1 x 1"] is None and degrees["scalar"] == 1
    assert degrees["nilpotent Jordan block"] is None
    assert degrees["nilpotent Jordan blocks 2 + 1 + 1"] == 2
    assert degrees["repeated eigenvalues"] == 3
    assert degrees["Hecke3_std(2)"] == degrees["legs(2) site 1"] == degrees["legs(2) site 2"] == 2
    assert all(degrees[name] is None for name in MIN_POLY_CASES if name.startswith("random"))


def _recorded_inverses(monkeypatch, check):
    """Every matrix FieldMatrix.inv is called on while check() runs."""
    inverted, inv = [], FieldMatrix.inv

    def recording(self):
        inverted.append(self)
        return inv(self)

    with monkeypatch.context() as m:
        m.setattr(FieldMatrix, "inv", recording)
        check()
    return inverted


def test_ybe_random_inverts_in_q_sigma(monkeypatch):
    # Hecke3_std is 4 x 4 with k = 2: every inverse is a 2 x 2 companion pencil, one per distinct Rhat,
    # three a draw since sigma_1 = sigma_2, over three draws with no resample
    rep = builtin_rep("Hecke3_std")
    inverted = _recorded_inverses(monkeypatch, lambda: ybe_random(rep, spectral_fn("hecke"), trials=3, seed=1))
    assert len(inverted) == 3 * 3 and all((N.rows, N.cols) == (2, 2) for N in inverted)
    # the 2 x 2 builtins have k = n = 2: every inverse is N' = q_b s - p_b S', in the span of 1 and S'
    for name, params in (("A3_2dim", {"c": 1, "mu": 2}), ("B3_2dim", {"nu": 2, "mu": 3}),
                         ("C3_2dim", {"nu": 2, "mu": 3}), ("Hecke3_burau", {"q": 2})):
        rep = builtin_rep(name, **params)
        sites = [verify._site_at(*rep.site(i).cleared(), {})[0] for i in (1, 2)]
        assert all(_min_poly(S) is None for S in sites)
        inverted = _recorded_inverses(monkeypatch, lambda: ybe_random(rep, spectral_fn("ii"), trials=2, seed=1))
        assert len(inverted) >= 12
        for N in inverted:
            assert (N.rows, N.cols) == (2, 2)
            assert any(sympy.Matrix([[1, 0, 0, 1], S.entries, N.entries]).rank() == 2 for S in sites)


def _site_matrices(rep, params):
    """Each site matrix at params, entry by entry: the per-entry route, independent of verify._site_at."""
    return {i: m.map_entries(lambda e: e.eval(params)) for i, m in rep.matrices.items()}


def _fraction_ybe_worst(rep, f, trials, seed, draw=sample_fraction):
    """Reference for ybe_random: rational Rhats over per-entry evaluation.

    Returns (worst nonzero-entry count of lhs - rhs over the trials, the
    sampled points as ybe_random formats them, the total resample count).
    """
    worst, samples, resamples = 0, [], 0
    for trial in range(trials):
        rng = split_rng(seed, trial)
        while True:  # the draw order of ybe_random: x, y, z, then the rep parameters
            point = [draw(rng) for _ in range(3)]
            params = {name: draw(rng) for name in rep.params}
            try:
                mats = _site_matrices(rep, params)
                R = {
                    (site, u, w): _two_inverse_rhat(
                        mats[site], f.eval({"x": point[u], "y": point[w]}), f.eval({"x": point[w], "y": point[u]})
                    )
                    for site, u, w in verify._YBE_LHS + verify._YBE_RHS
                }
                break
            except (PoleError, SingularMatrixError, ZeroDivisionError):
                resamples += 1
                continue
        lhs, rhs = (R[seq[0]] * R[seq[1]] * R[seq[2]] for seq in (verify._YBE_LHS, verify._YBE_RHS))
        worst = max(worst, sum(1 for e in (lhs - rhs).entries if e))
        samples.append({name: format_scalar(v) for name, v in [*zip("xyz", point), *params.items()]})
    return worst, samples, resamples


def test_ybe_random_integer_sides_match_fraction_reference():
    rep = builtin_rep("A3_2dim", c=1)
    for fn, seed in ((spectral_fn("ii"), 1), (spectral_fn("ii"), 5), (spectral_fn("i", 2, 1, 0, 1), 3)):
        report = ybe_random(rep, fn, trials=3, seed=seed)
        assert report.residuals == [("ybe", _fraction_ybe_worst(rep, fn, 3, seed)[0])]
    assert not report.residuals[0][1]
    assert ybe_random(rep, spectral_fn("ii"), trials=3, seed=1).residuals[0][1] > 0


@pytest.mark.parametrize("name, fn, sites, rhats", [("Hecke3_std", "hecke", 1, 3), ("B3_2dim", "ii", 2, 6)])
def test_ybe_random_does_each_piece_of_work_once_per_draw(monkeypatch, name, fn, sites, rhats):
    # per draw: one site evaluation and one Q[sigma] per distinct site, one f batch, one Rhat per distinct factor;
    # f is compiled once per call.  Hecke3_std's sigma_1 = sigma_2 share theirs
    counts = dict.fromkeys(("_site_at", "_min_poly", "_f_values", "_numeric_rhat", "evaluator"), 0)
    for fname in counts:
        def counted(*args, _fname=fname, _original=getattr(verify, fname)):
            counts[_fname] += 1
            return _original(*args)

        monkeypatch.setattr(verify, fname, counted)
    rep, f, trials = builtin_rep(name), spectral_fn(fn), 4
    report = ybe_random(rep, f, trials=trials, seed=2)
    assert report.mode["resamples"] == 0
    assert counts == {"_site_at": sites * trials, "_min_poly": sites * trials, "_f_values": trials,
                      "_numeric_rhat": rhats * trials, "evaluator": 1}
    worst, samples, resamples = _fraction_ybe_worst(rep, f, trials, 2)
    assert report.residuals == [("ybe", worst)]
    assert report.mode["samples"] == samples and resamples == 0


def test_numeric_rhat_is_one_pair_whatever_the_scaling_of_f():
    # (p, q), (k p, k q) and (-p, -q) name one f value: the closing gcd leaves the one reduced pair, D > 0
    sites = {"Hecke3_std(2), k = 2 < n": _hecke_std_site(2), "2 x 2, k = n": (FieldMatrix(2, 2, [3, -1, 4, 2]), -5)}
    values = [(Fraction(3, 7), Fraction(-5, 2)), (Fraction(-2), Fraction(0)), (Fraction(0), Fraction(11, 4))]
    for S, s in sites.values():
        algebra = _min_poly(S)
        for a, b in values:
            (p_a, q_a), (p_b, q_b) = a.as_integer_ratio(), b.as_integer_ratio()
            want = _numeric_rhat(S, s, algebra, (p_a, q_a), (p_b, q_b))
            _uncleared(*want)
            for k_a, k_b in ((3, 1), (1, -1), (-1, -1), (6, -4)):
                assert _numeric_rhat(S, s, algebra, (k_a * p_a, k_a * q_a), (k_b * p_b, k_b * q_b)) == want


_T = RatFunc.var(("t",), "t")
# every builtin, symbolic and at numeric parameters, and B3_2dim at nu = t/(t + 1),
# whose entry denominators are not constant
SITE_REPS = {
    **{name: builtin_rep(name) for name in BUILTIN_NAMES},
    "Hecke3_std(2)": builtin_rep("Hecke3_std", q=2),
    "Hecke3_burau(1/3)": builtin_rep("Hecke3_burau", q=Fraction(1, 3)),
    "B3_2dim(t/(t+1))": builtin_rep("B3_2dim", nu=_T / (_T + 1)),
}


@pytest.mark.parametrize("name", SITE_REPS)
def test_cleared_site_evaluation_matches_per_entry_evaluation(name):
    rep = SITE_REPS[name]
    rng = split_rng(17, len(name))
    points = [{p: sample_fraction(rng) for p in rep.params} for _ in range(20)]
    if "t" in rep.params:
        points.append({"mu": Fraction(2), "t": Fraction(-1)})  # nu's pole
    poles = 0
    for site in range(1, rep.n):
        S, s = rep.site(site).cleared()
        for point in points:
            try:
                want = _site_matrices(rep, point)[site]
            except PoleError:
                poles += 1
                with pytest.raises(PoleError):
                    verify._site_at(S, s, point)
                continue
            S_p, s_p = verify._site_at(S, s, point)
            assert type(s_p) is int and s_p and all(type(e) is int for e in S_p.entries)
            assert _over(S_p, s_p) == want
    assert poles == (rep.n - 1 if "t" in rep.params else 0)


def _small_fraction(rng):
    """A draw from {-2, ..., 2}, so poles and singular factors are hit often."""
    return Fraction(rng.randint(-2, 2))


@pytest.mark.parametrize("seed", [4, 13])
def test_ybe_random_reports_match_the_per_entry_reference(monkeypatch, seed):
    # samples, resamples and residual, for every builtin x FIVE_FNS
    for rep in (builtin_rep(name) for name in BUILTIN_NAMES):
        for fn in FIVE_FNS.values():
            report = ybe_random(rep, fn, trials=2, seed=seed)
            worst, samples, resamples = _fraction_ybe_worst(rep, fn, 2, seed)
            assert report.residuals == [("ybe", worst)]
            assert report.mode == {"kind": "randomized", "seed": seed, "trials": 2,
                                   "samples": samples, "resamples": resamples}
    # small draws: rep poles (t = -1), poles of f and singular factors all force resamples
    monkeypatch.setattr(verify, "sample_fraction", _small_fraction)
    total = 0
    for rep in (SITE_REPS["B3_2dim(t/(t+1))"], builtin_rep("scalar")):
        for fn in FIVE_FNS.values():
            report = ybe_random(rep, fn, trials=2, seed=seed)
            worst, samples, resamples = _fraction_ybe_worst(rep, fn, 2, seed, _small_fraction)
            assert report.residuals == [("ybe", worst)]
            assert report.mode["samples"] == samples and report.mode["resamples"] == resamples
            total += resamples
    assert total > 0


def test_random_checks_build_no_fraction_matrices(monkeypatch):
    # the randomized routes stay on ints: no FieldMatrix with a Fraction entry is built
    built = []
    original = FieldMatrix.__init__

    def recording(self, rows, cols, entries):
        original(self, rows, cols, entries)
        if any(isinstance(e, Fraction) for e in self.entries):
            built.append(self)

    monkeypatch.setattr(FieldMatrix, "__init__", recording)
    for rep in SITE_REPS.values():
        for fn in (spectral_fn("ii"), spectral_fn("hecke")):
            ybe_random(rep, fn, trials=3, seed=1)
    assert built == []
    rep, f = builtin_rep("Hecke3_std", q=2), spectral_fn("hecke")
    for count, lengths, corrupt in ((1, [1], False), (4, [2, 3], False), (3, [3], True)):
        built.clear()
        transfer_commute(rep, 1, f, lengths, count=count, seed=count, corrupt=corrupt)
        assert len(built) <= 1  # at most the constant sigma


def test_ybe_random_reports_are_seed_reproducible():
    rep = builtin_rep("B3_2dim")
    r1 = ybe_random(rep, spectral_fn("ii"), trials=4, seed=9)
    r2 = ybe_random(rep, spectral_fn("ii"), trials=4, seed=9)
    assert r1.to_record() == r2.to_record()
    r3 = ybe_random(rep, spectral_fn("ii"), trials=4, seed=10)
    assert r3.mode["samples"] != r1.mode["samples"]


def test_ratio_sign_convention_pinned():
    # generators with eigenvalues {-1, -q} pair with +x/y, so they must FAIL
    # the implemented ratio function; the unnegated ones must pass
    rep = builtin_rep("Hecke3_burau")
    assert ybe_symbolic(rep, spectral_fn("hecke")).passed
    negated = Rep(rep.n, rep.dim, rep.params, {i: -m for i, m in rep.matrices.items()})
    assert ybe_symbolic(negated, spectral_fn("hecke")).status == "fail"


def test_two_site_tensor_rep_satisfies_ratio_ybe():
    # the tensor-leg picture behind the transfer harness: s acting on
    # adjacent pairs of (C^2)^3 is a faithful Hecke rep with distinct
    # generator images, and the ratio R-matrix solves the YBE on it
    from baxcheck.ncalg import relations_for
    from baxcheck.reps import check_relations

    std = builtin_rep("Hecke3_std")
    rep8 = Rep(3, 8, std.params, tensor_legs(std.matrices[1], 3, RatFunc.const(std.params, 1)))
    assert check_relations(rep8, relations_for("Hecke", 3)).passed
    assert ybe_random(rep8, spectral_fn("hecke"), trials=4, seed=2).passed


def test_scalar_rep_ybe_trivial():
    lam = builtin_rep("scalar")
    assert ybe_symbolic(lam, spectral_fn("ii")).passed
    assert ybe_random(lam, spectral_fn("hecke"), trials=3, seed=1).passed


def test_lemma_suite_A_vacuity_flags():
    report = lemma_suite_A(builtin_rep("A3_2dim", c=1), 2, 0, 1)
    assert report.passed
    vacuous = {note.split(":")[0] for note in report.notes if "vacuous" in note}
    assert vacuous == {"rel1a", "rel1b", "rel2a", "rel2b", "rel4"}  # rel5 is live


def test_lemma_suite_A_scalar_all_vacuous():
    report = lemma_suite_A(builtin_rep("scalar"), 2, 0, 1)
    assert report.passed
    assert len([n for n in report.notes if "vacuous" in n]) == 6


def test_lemma_suite_A_with_every_identity_live():
    # 3 and 1 are the two roots of a l^2 + b l - c at (1, -4, -3), so no identity is vacuous
    report = lemma_suite_A(builtin_rep("scalar", values=[3, 1]), 1, -4, -3)
    assert report.passed and report.notes == []


def test_lemma_suite_A_requires_nonzero_a():
    with pytest.raises(ValueError):
        lemma_suite_A(builtin_rep("A3_2dim", c=1), 0, 0, 1)


def test_library_scalars_are_exact():
    """spectral_fn, h_fun, lemma_suite_A and verify_scalar take an int, a Fraction or a "p/q" string, never a float."""
    half = Fraction(1, 2)
    assert spectral_fn("i", "1/2", "3/2", "1/10", 1) == spectral_fn("i", half, 3 * half, Fraction(1, 10), 1)
    assert baxter.h_fun("1/2", 0, 1) == baxter.h_fun(half, 0, 1)
    assert lemma_suite_A(builtin_rep("scalar"), "2", 0, 1).passed
    assert verify_scalar(["1", 0], "B")
    for call in (
        lambda: spectral_fn("i", 0.5, 1.5, 0.1, 1),
        lambda: spectral_fn("i", True, 0, 0, 1),
        lambda: baxter.h_fun(0.5, 0, 1),
        lambda: lemma_suite_A(builtin_rep("scalar"), 2.0, 0, 1),
        lambda: verify_scalar([0.5, 1.0], "B"),
    ):
        with pytest.raises(ValueError, match="scalar must be"):
            call()


def test_lemma_suite_A_precondition_error():
    rep = builtin_rep("A3_2dim", c=1, mu=Fraction(1, 2))
    broken = Rep(rep.n, rep.dim, rep.params, dict(rep.matrices))
    m = broken.matrices[2]
    bumped = FieldMatrix.from_rows([[m[0, 0] + 1, m[0, 1]], [m[1, 0], m[1, 1]]])
    broken.matrices[2] = bumped
    report = lemma_suite_A(broken, 2, 0, 1)
    assert report.status == "error"
    assert any("precondition" in note for note in report.notes)


def test_lemma_suite_B_passes_for_b3():
    report = lemma_suite_B(builtin_rep("B3_2dim"))
    assert report.passed
    assert [label for label, _ in report.residuals] == ["relb1", "rel2b", "rel2bb", "rel4b", "rel5b"]


def test_lemma_suite_B_on_c3_measured_pass():
    # the bilateral 2-dim family also satisfies the B orientation, so the
    # suite runs clean instead of reporting a precondition error
    assert lemma_suite_B(builtin_rep("C3_2dim")).passed


def test_lemma_suite_B_scalar_uniform():
    assert lemma_suite_B(builtin_rep("scalar")).passed


def test_lemma_suite_B_precondition_error():
    report = lemma_suite_B(builtin_rep("A3_2dim", c=1))  # nilpotents fail the braid relation
    assert report.status == "error"


def test_identity_suites_and_relation_checks_multiply_no_ratfunc_matrices(monkeypatch):
    # the suites and the relation checks sum cleared terms: every product is polynomial
    kinds = set()
    original = FieldMatrix.__mul__

    def recording(self, other):
        kinds.update(type(e) for e in self.entries + (other.entries if isinstance(other, FieldMatrix) else [other]))
        return original(self, other)

    monkeypatch.setattr(FieldMatrix, "__mul__", recording)
    passed = set()
    for name in BUILTIN_NAMES:
        rep = builtin_rep(name, c=1) if name == "A3_2dim" else builtin_rep(name)
        for algebra in ALGEBRAS:
            if check_relations(rep, relations_for(algebra, rep.n)).passed:
                passed.add((name, algebra))
        for suite, report in (("suite A", lemma_suite_A(rep, 2, 0, 1)), ("suite B", lemma_suite_B(rep))):
            assert report.status != "fail"
            if report.passed:
                passed.add((name, suite))
    assert {("A3_2dim", "suite A"), ("scalar", "suite A"), ("B3_2dim", "suite B"), ("C3_2dim", "suite B")} <= passed
    assert {("B3_2dim", "B"), ("C3_2dim", "C"), ("Hecke3_std", "Hecke"), ("Hecke3_burau", "Hecke")} <= passed
    assert MultiPoly in kinds and RatFunc not in kinds


def test_passing_lemma_suites_and_series_checks_take_no_gcd(monkeypatch):
    # sites, H's and identities are all cleared terms, and H_closed hands its cleared form over as it comes;
    # with constant site denominators, clearing H_series and the cleared difference take no gcd either
    calls = []
    original = poly_gcd

    def counted(p, q):
        calls.append((p, q))
        return original(p, q)

    patched = [m for name, m in sys.modules.items() if name.startswith("baxcheck") and getattr(m, "poly_gcd", None) is original]
    for module in patched:
        monkeypatch.setattr(module, "poly_gcd", counted)
    assert "baxcheck.exactnum.ratfunc" in {m.__name__ for m in patched}
    assert lemma_suite_B(builtin_rep("B3_2dim")).passed
    assert lemma_suite_A(builtin_rep("A3_2dim", c=1), 2, 0, 1).passed
    assert calls == []
    for name in BUILTIN_NAMES:
        baxter.series_agreement_order(builtin_rep(name), 1, 8)
        assert calls == [], name


def test_each_identity_suite_builds_H_once_per_site(monkeypatch):
    # H_i(v) is the rename z -> v of H_i(z), so a suite call builds H at sites 1 and 2 only
    calls = []
    original = verify.H_closed
    monkeypatch.setattr(verify, "H_closed", lambda rep, i: calls.append(i) or original(rep, i))
    assert lemma_suite_A(builtin_rep("A3_2dim", c=1), 2, 0, 1).passed
    assert calls == [1, 2]
    calls.clear()
    assert lemma_suite_B(builtin_rep("B3_2dim")).passed
    assert calls == [1, 2]


def test_reference_point_choice():
    assert choose_reference_point(spectral_fn("hecke")) == 1
    assert choose_reference_point(spectral_fn("ii")) == 0


def test_transfer_commutes_and_corruption_breaks_it():
    rep = builtin_rep("Hecke3_std", q=2)
    fn = spectral_fn("hecke")
    good = transfer_commute(rep, 1, fn, [2], count=3, seed=5)
    assert good.passed
    bad = transfer_commute(rep, 1, fn, [2], count=3, seed=5, corrupt=True)
    assert bad.status == "fail"


def test_transfer_trivial_chain():
    rep = builtin_rep("Hecke3_std", q=2)
    assert transfer_commute(rep, 1, spectral_fn("hecke"), [1], count=2, seed=1).passed


def test_transfer_usage_errors():
    with pytest.raises(ValueError):
        transfer_commute(builtin_rep("B3_2dim", nu=1, mu=2), 1, spectral_fn("ii"), [2])
    with pytest.raises(ValueError):
        transfer_commute(builtin_rep("Hecke3_std"), 1, spectral_fn("hecke"), [2])
    with pytest.raises(ValueError, match="^lengths: expected a nonempty list$"):
        transfer_commute(builtin_rep("Hecke3_std", q=2), 1, spectral_fn("hecke"), [])
    for lengths in ([2, 9], [2, 3, 2], [True, 2], [2, False], [2.5], ["3"], [2, None]):
        with pytest.raises(ValueError, match="chain length"):
            transfer_commute(builtin_rep("Hecke3_std", q=2), 1, spectral_fn("hecke"), lengths)
    for count in (0, -1, True, 2.5, "3", None):
        with pytest.raises(ValueError, match="^count: "):
            transfer_commute(builtin_rep("Hecke3_std", q=2), 1, spectral_fn("hecke"), [2], count=count)


def test_transfer_rejects_a_bad_count_before_any_site_work(monkeypatch):
    calls, site_at = [], verify._site_at

    def spy(*args):
        calls.append(args)
        return site_at(*args)

    monkeypatch.setattr(verify, "_site_at", spy)
    with pytest.raises(ValueError, match="^count: "):
        transfer_commute(builtin_rep("Hecke3_std", q=2), 1, spectral_fn("hecke"), [2], count=0)
    assert calls == []


def test_transfer_refuses_chain_lengths_that_are_not_a_list_or_a_tuple_before_any_site_work(monkeypatch):
    calls, site_at = [], verify._site_at

    def spy(*args):
        calls.append(args)
        return site_at(*args)

    monkeypatch.setattr(verify, "_site_at", spy)
    for lengths in (5, "23", {2, 3}, None):
        with pytest.raises(ValueError, match="^lengths: expected a nonempty list$"):
            verify.check_chain_lengths(lengths)
        with pytest.raises(ValueError, match="^lengths: expected a nonempty list$"):
            transfer_commute(builtin_rep("Hecke3_std", q=2), 1, spectral_fn("hecke"), lengths)
    assert calls == []


def test_transfer_refuses_a_corrupt_flag_that_is_not_a_bool_before_any_site_work(monkeypatch):
    calls, site_at = [], verify._site_at

    def spy(*args):
        calls.append(args)
        return site_at(*args)

    monkeypatch.setattr(verify, "_site_at", spy)
    for corrupt in ("no", 0, 1, None):
        with pytest.raises(ValueError, match="^corrupt: expected true or false$"):
            transfer_commute(builtin_rep("Hecke3_std", q=2), 1, spectral_fn("hecke"), [2], corrupt=corrupt)
    assert calls == []


def test_ybe_random_usage_errors():
    for trials in (0, -1, True, False, 2.5, "3", None):
        with pytest.raises(ValueError, match="^trials: "):
            ybe_random(builtin_rep("Hecke3_std", q=2), spectral_fn("hecke"), trials=trials)


def _dense_transfer(rhat, d, L):
    """Reference: embed R = P * rhat densely on legs (0, site) and multiply."""
    legs, dim = L + 1, d ** (L + 1)
    flip = FieldMatrix(d * d, d * d, [
        Fraction(int(r == (c % d) * d + c // d)) for r in range(d * d) for c in range(d * d)
    ])
    R = flip * rhat

    def digits(idx):
        return [idx // d ** (legs - 1 - k) % d for k in range(legs)]

    def embed(site):
        out = []
        for r in range(dim):
            dr = digits(r)
            for c in range(dim):
                dc = digits(c)
                same = all(dr[k] == dc[k] for k in range(legs) if k not in (0, site))
                out.append(R[dr[0] * d + dr[site], dc[0] * d + dc[site]] if same else Fraction(0))
        return FieldMatrix(dim, dim, out)

    T = embed(L)
    for site in range(L - 1, 0, -1):
        T = T * embed(site)
    return T.partial_trace_first(d)


def _hecke_rhat(x, corrupt=False):
    S, s = _hecke_std_site(2)
    f = spectral_fn("hecke")
    f_uw, f_wu = (f.eval(point).as_integer_ratio() for point in ({"x": x, "y": 1}, {"x": 1, "y": x}))
    rhat = _uncleared(*_numeric_rhat(S, s, _min_poly(S), f_uw, f_wu))
    if corrupt:
        rhat.entries[1] += 1
    return rhat


@pytest.mark.parametrize("L", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "rhat",
    [
        _hecke_rhat(Fraction(3)),
        _hecke_rhat(Fraction(-7, 5)),
        _hecke_rhat(Fraction(3), corrupt=True),
        # no zero entry and no symmetry, so any index mix-up shows
        FieldMatrix(4, 4, [Fraction(4 * i + j + 1, 7 - j) * (-1) ** (i * j) for i in range(4) for j in range(4)]),
    ],
    ids=["hecke-3", "hecke-7/5", "hecke-3-corrupt", "dense"],
)
def test_transfer_matrix_matches_dense_embedding(rhat, L):
    # one call builds every length up to L, asked for longest first
    _check_against_dense(rhat, 2, range(L, 0, -1))


@pytest.mark.parametrize(
    "d, rhat, lengths",
    [
        (1, FieldMatrix(1, 1, [Fraction(-5, 3)]), [1, 2, 3, 4]),
        # every builtin has d <= 2, so only d = 3 tells the leg dimension d from the pair dimension d*d
        (3, FieldMatrix(9, 9, [Fraction(9 * i + j + 1, 11 - j) * (-1) ** (i * j + i) for i in range(9)
                               for j in range(9)]), [1, 2, 3]),
    ],
    ids=["d1", "d3-dense"],
)
def test_transfer_matrices_match_dense_embedding_across_d(d, rhat, lengths):
    _check_against_dense(rhat, d, lengths)


def _check_against_dense(rhat, d, lengths):
    ts = _transfer_matrices(rhat, d, lengths)
    assert sorted(ts) == sorted(lengths)
    # the integer route: D * rhat builds D^L * t, entirely in ints
    D, scaled = _scaled(rhat)
    int_ts = _transfer_matrices(scaled, d, lengths)
    for L in lengths:
        reference = _dense_transfer(rhat, d, L)
        assert ts[L] == reference
        assert all(type(e) is int for e in int_ts[L].entries)
        assert int_ts[L] == reference.scale(D**L)


def _scaled(rhat):
    D = math.lcm(*(e.denominator for e in rhat.entries))
    return D, rhat.map_entries(lambda e: int(e * D))


@pytest.mark.parametrize("corrupt", [False, True])
def test_commutator_support_same_over_fractions_and_ints(corrupt):
    def support(t1, t2):
        return [bool(e) for e in (t1 * t2 - t2 * t1).entries]

    rhats = [_hecke_rhat(Fraction(3), corrupt), _hecke_rhat(Fraction(-7, 5), corrupt)]
    over_q = support(*(_transfer_matrices(r, 2, [3])[3] for r in rhats))
    over_z = support(*(_transfer_matrices(_scaled(r)[1], 2, [3])[3] for r in rhats))
    assert over_q == over_z
    assert any(over_q) == corrupt


def test_transfer_deeper_chain():
    rep = builtin_rep("Hecke3_std", q=2)
    fn = spectral_fn("hecke")
    assert transfer_commute(rep, 1, fn, [6], count=1, seed=0).passed
    bad = transfer_commute(rep, 1, fn, [6], count=1, seed=0, corrupt=True)
    assert bad.status == "fail"
    assert [size for _, size in bad.residuals] == [1586]


def test_det_rng_is_deterministic_and_split_is_stable():
    a = DetRng(42)
    b = DetRng(42)
    assert [a.next_u64() for _ in range(4)] == [b.next_u64() for _ in range(4)]
    # per-trial streams do not depend on evaluation order
    s3 = sample_fraction(split_rng(7, 3))
    for other in (0, 1, 2):
        sample_fraction(split_rng(7, other))
    assert sample_fraction(split_rng(7, 3)) == s3


def test_ybe_random_gives_up_after_max_resamples(monkeypatch):
    # every coordinate 0: f = -x/y has a pole at y = 0, so no draw is regular
    monkeypatch.setattr(verify, "sample_fraction", lambda rng: Fraction(0))
    report = ybe_random(builtin_rep("Hecke3_std"), spectral_fn("hecke"), trials=3)
    assert report.status == "error"
    assert report.notes == ["measure-zero sampling failure: 100 consecutive poles"] == [SAMPLING_FAILURE]
    assert report.mode["resamples"] == MAX_RESAMPLES == 100
    assert report.mode["samples"] == [] and report.residuals == []
    job = {"command": "verify-ybe", "mode": "random", "rep": {"builtin": "Hecke3_std"}, "fn": {"case": "hecke"}}
    payload, code = run_job(job)
    assert code == EXIT_INTERNAL
    assert payload["report"]["notes"] == [SAMPLING_FAILURE]


def test_a_zero_division_in_a_draw_propagates():
    # poles and singular factors are resampled; no regular draw divides by zero, so one that does is a defect
    draws = []

    def draw(rng):
        draws.append(rng.next_u64())
        if len(draws) == 1:
            raise PoleError("pole")
        raise ZeroDivisionError("defect")

    with pytest.raises(ZeroDivisionError):
        verify._regular_draw(draw, DetRng(0))
    assert len(draws) == 2


def test_transfer_point_pairs_give_up_after_max_resamples(monkeypatch):
    # y0 = 1 for f = -x/y, and f(1, 0) is a pole, so no point pair can be drawn
    monkeypatch.setattr(verify, "sample_fraction", lambda rng: Fraction(0))
    monkeypatch.setattr(verify, "ybe_random", lambda *args, **kwargs: VerifyReport("ybe randomized"))
    rep = builtin_rep("Hecke3_std", q=2)
    report = transfer_commute(rep, 1, spectral_fn("hecke"), [2], count=1)
    assert report.status == "error"
    assert report.notes == [f"L=2: {SAMPLING_FAILURE}"]
    assert report.mode["runs"][0]["y0"] == "1" and report.mode["runs"][0]["points"] == []
    job = {
        "command": "transfer-commute",
        "rep": {"builtin": "Hecke3_std", "parameters": {"q": "2"}},
        "fn": {"case": "hecke"},
        "lengths": [2],
        "pairs": 1,
    }
    payload, code = run_job(job)
    assert code == EXIT_INTERNAL
    assert payload["report"]["notes"] == [f"L=2: {SAMPLING_FAILURE}"]


def _hecke_transfer(lengths, corrupt=False):
    return transfer_commute(builtin_rep("Hecke3_std", q=2), 1, spectral_fn("hecke"), lengths,
                            count=2, seed=3, corrupt=corrupt)


@pytest.mark.parametrize("case, status", [("pass", "pass"), ("corrupt", "fail"), ("precheck", "error"),
                                          ("sampling", "error")])
def test_transfer_lengths_concatenate_single_length_reports(monkeypatch, case, status):
    if case == "precheck":
        failed = VerifyReport("ybe")
        failed.add_residual("lhs - rhs", 1)
        monkeypatch.setattr(verify, "ybe_random", lambda *args, **kwargs: failed)
    if case == "sampling":
        # no regular point pair exists (see above); the precheck is passed by fiat
        monkeypatch.setattr(verify, "sample_fraction", lambda rng: Fraction(0))
        monkeypatch.setattr(verify, "ybe_random", lambda *args, **kwargs: VerifyReport("ybe randomized"))
    singles = {L: _hecke_transfer([L], corrupt=case == "corrupt") for L in (2, 3)}
    assert [single.status for single in singles.values()] == [status, status]
    # merged reports follow the given order of lengths, sorted or not
    for lengths in ([2, 3], [3, 2]):
        merged = _hecke_transfer(lengths, corrupt=case == "corrupt")
        assert merged.status == status
        for field in ("residuals", "notes"):
            assert getattr(merged, field) == [item for L in lengths for item in getattr(singles[L], field)]
        assert merged.mode["runs"] == [run for L in lengths for run in singles[L].mode["runs"]]
        assert {k: v for k, v in merged.mode.items() if k != "runs"} == {"kind": "randomized", "seed": 3}
        if status == "error":
            assert merged.residuals == [] and all(run["points"] == [] for run in merged.mode["runs"])
            assert [note.split(": ")[0] for note in merged.notes] == [f"L={L}" for L in lengths]
    if case == "sampling":
        job = {
            "command": "transfer-commute",
            "rep": {"builtin": "Hecke3_std", "parameters": {"q": "2"}},
            "fn": {"case": "hecke"},
            "lengths": [2, 3],
            "pairs": 2,
        }
        payload, code = run_job(job)
        assert code == EXIT_INTERNAL
        assert payload["report"]["notes"] == [f"L=2: {SAMPLING_FAILURE}", f"L=3: {SAMPLING_FAILURE}"]


@pytest.mark.parametrize("seed", [0, 5, 11])
def test_corrupt_perturbs_the_cleared_rhat_as_the_rational_one(monkeypatch, seed):
    # M[1] += D is Rhat[1] += 1 cleared: the perturbed entry keeps its denominator
    seen = []
    original = verify._transfer_matrices

    def capture(rhat, d, lengths):
        seen.append(rhat)
        return original(rhat, d, lengths)

    monkeypatch.setattr(verify, "_transfer_matrices", capture)
    rep, f = builtin_rep("Hecke3_std", q=2), spectral_fn("hecke")
    report = transfer_commute(rep, 1, f, [2], count=4, seed=seed, corrupt=True)
    assert report.status == "fail"
    sigma = rep.site(1).map_entries(lambda e: e.constant_value())
    y0 = choose_reference_point(f)
    xs = [Fraction(x) for pair in report.mode["runs"][0]["points"] for x in pair]
    assert len(seen) == len(xs) == 8
    for x, M in zip(xs, seen):
        rhat = _two_inverse_rhat(sigma, f.eval({"x": x, "y": y0}), f.eval({"x": y0, "y": x}))
        rhat.entries[1] += 1
        assert M == _scaled(rhat)[1]


def test_transfer_job_shares_precheck_points_and_rhats(monkeypatch):
    counts = {"ybe_random": 0, "_numeric_rhat": 0, "_transfer_matrices": 0}

    def counted(name):
        original = getattr(verify, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(verify, name, wrapper)

    counted("ybe_random")
    counted("_numeric_rhat")
    counted("_transfer_matrices")
    job = {  # the first job of fixtures/criterion9.json
        "command": "transfer-commute",
        "rep": {"builtin": "Hecke3_std", "parameters": {"q": "2"}},
        "fn": {"case": "hecke"},
        "lengths": [2, 3, 4],
        "pairs": 5,
        "seed": 1,
    }
    _, code = run_job(job)
    assert code == 0
    # one precheck of 3 trials x 3 Rhats (sigma_1 = sigma_2 share theirs), then 2 Rhats and 2 monodromies
    # per drawn pair, for all lengths together
    assert counts == {"ybe_random": 1, "_numeric_rhat": 3 * 3 + 5 * 2, "_transfer_matrices": 5 * 2}
