"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every check runs at literal-zero tolerance and prints one PASS line on the
way out, so `pytest -s tests/test_acceptance.py` reads as a checklist.
Deviations discovered during the build (all recorded in the project notes)
are asserted as the measured truth here rather than silently weakened:
criterion 2's printed negative control is a legitimate pass for the repaired
two-dimensional family, so a genuinely failing pairing stands in as the
control with teeth.
"""

import time
from fractions import Fraction

from baxcheck.baxter import build_R, check_regularity, check_unitarity, series_agreement_order, spectral_fn
from baxcheck.ncalg import PROP1_TERMS, prop1_certificate
from baxcheck.reps import builtin_rep, check_relations, classify_scalar, correspondence_check, flip_rep, verify_scalar
from baxcheck.ncalg import relations_for
from baxcheck.verify import lemma_suite_A, lemma_suite_B, transfer_commute, ybe_random, ybe_symbolic

ALL_FNS = {
    "case i (2,1,0,1)": spectral_fn("i", 2, 1, 0, 1),
    "case ii": spectral_fn("ii"),
    "case iii": spectral_fn("iii"),
    "ratio": spectral_fn("hecke"),
}


def announce(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS  {detail}")


def test_criterion_1_prop1_certificate():
    start = time.monotonic()
    residual, ok = prop1_certificate()
    elapsed = time.monotonic() - start
    assert ok and residual.is_zero
    assert elapsed < 1.0, f"certificate took {elapsed:.2f}s"
    for term in PROP1_TERMS:
        mutated, passed = prop1_certificate(omit_term=term)
        assert not passed and not mutated.is_zero, f"dropping {term} must break the certificate"
    announce(1, f"certificate residual 0 in {elapsed:.3f}s; all 5 mutation controls nonzero")


def test_criterion_2_theorem_matrix():
    param_sets = [
        (2, 1, 0, 1),
        (1, 0, 0, 1),  # the a = 0 specialization
        (1, 2, 1, 1),
        (3, 2, 2, 3),
        (-1, 0, 1, 2),
        (1, 0, 1, 1),
    ]
    for alpha1, alpha2, b, c in param_sets:
        fn = spectral_fn("i", alpha1, alpha2, b, c)
        rep = builtin_rep("A3_2dim", c=Fraction(c))  # mu stays symbolic
        start = time.monotonic()
        report = ybe_symbolic(rep, fn)
        elapsed = time.monotonic() - start
        assert report.passed, (alpha1, alpha2, b, c, report.residuals)
        assert elapsed < 30.0
    checks = [
        ("B3_2dim + case ii", builtin_rep("B3_2dim"), spectral_fn("ii")),
        ("C3_2dim + case iii", builtin_rep("C3_2dim"), spectral_fn("iii")),
        ("Hecke3_std + ratio", builtin_rep("Hecke3_std"), spectral_fn("hecke")),
    ]
    for label, rep, fn in checks:
        start = time.monotonic()
        report = ybe_symbolic(rep, fn)
        elapsed = time.monotonic() - start
        assert report.passed, (label, report.residuals)
        assert elapsed < 30.0, label
    # the printed control (B3, case iii) is a true pass for this bilateral
    # family; assert the measured fact, then prove the checker has teeth
    assert ybe_symbolic(builtin_rep("B3_2dim"), spectral_fn("iii")).passed
    control = ybe_symbolic(builtin_rep("A3_2dim", c=1), spectral_fn("ii"))
    assert control.status == "fail" and control.residuals[0][1] > 0
    announce(2, f"{len(param_sets)} case-i parameter sets + B/C/Hecke rows pass; mismatch control fails")


def test_criterion_3_randomized_agreement():
    fixtures = [
        (builtin_rep("A3_2dim", c=1), spectral_fn("i", 2, 1, 0, 1)),
        (builtin_rep("A3_2dim", c=1), spectral_fn("i", 1, 0, 0, 1)),
        (builtin_rep("B3_2dim"), spectral_fn("ii")),
        (builtin_rep("C3_2dim"), spectral_fn("iii")),
        (builtin_rep("Hecke3_std"), spectral_fn("hecke")),
        (builtin_rep("B3_2dim"), spectral_fn("iii")),  # measured pass
        (builtin_rep("A3_2dim", c=1), spectral_fn("ii")),  # genuine mismatch
    ]
    agreements = 0
    for rep, fn in fixtures:
        symbolic = ybe_symbolic(rep, fn)
        random = ybe_random(rep, fn, trials=20, seed=1)
        assert symbolic.status == random.status, (fn.case, symbolic.status, random.status)
        again = ybe_random(rep, fn, trials=20, seed=1)
        assert random.to_record() == again.to_record(), "seeded reports must be byte-stable"
        agreements += 1
    announce(3, f"symbolic/randomized verdicts agree on {agreements} fixture pairs at trials=20")


def test_criterion_4_regularity_and_unitarity():
    reps = {
        "A3_2dim": builtin_rep("A3_2dim"),
        "B3_2dim": builtin_rep("B3_2dim"),
        "C3_2dim": builtin_rep("C3_2dim"),
        "Hecke3_std": builtin_rep("Hecke3_std"),
        "Hecke3_burau": builtin_rep("Hecke3_burau"),
        "scalar": builtin_rep("scalar"),
    }
    start = time.monotonic()
    cells = 0
    for rep_name, rep in reps.items():
        for fn_name, fn in ALL_FNS.items():
            R = build_R(rep, 1, fn)
            assert check_regularity(R), (rep_name, fn_name)
            assert check_unitarity(R), (rep_name, fn_name)
            cells += 1
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"{elapsed:.2f}s"
    announce(4, f"Rhat(x,x) = 1 and Rhat(x,y)Rhat(y,x) = 1 on all {cells} rep/function cells in {elapsed:.2f}s")


def test_criterion_5_lemma_suites():
    start = time.monotonic()
    suite_a = lemma_suite_A(builtin_rep("A3_2dim", c=1), 2, 0, 1)
    assert suite_a.passed, suite_a.residuals
    vacuous = {note.split(":")[0] for note in suite_a.notes if "vacuous" in note}
    assert "rel5" not in vacuous, "the four-term identity must be a live check"
    assert vacuous, "nilpotent generators make several identities vacuous; they must be flagged"
    suite_b = lemma_suite_B(builtin_rep("B3_2dim"))
    assert suite_b.passed, suite_b.residuals
    assert [label for label, _ in suite_b.residuals] == ["relb1", "rel2b", "rel2bb", "rel4b", "rel5b"]
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    announce(5, f"suite A (vacuous: {sorted(vacuous)}) and suite B (5 identities, symbolic nu/mu) in {elapsed:.2f}s")


def test_criterion_6_scalar_classification_vs_brute_force():
    start = time.monotonic()
    grid = sorted({Fraction(p, q) for p in range(-4, 5) for q in (1, 2)})
    assert len(grid) == 13

    def brute(algebra, params):
        return {(u, v) for u in grid for v in grid if verify_scalar([u, v], algebra, params)}

    def predicted(zero_pattern):
        uniform = {(u, u) for u in grid}
        pattern = {(u, v) for u in zero_pattern for v in zero_pattern}
        return uniform | pattern

    cases = [
        ("A", {"a": 1, "b": 0, "c": 1}, {Fraction(0), Fraction(1), Fraction(-1)}),
        ("B", None, {Fraction(0), Fraction(1)}),
        ("C", None, {Fraction(0), Fraction(1)}),
        # a = 0: the quadratic degenerates to the one root c/b, or to none at b = 0
        ("A", {"a": 0, "b": 1, "c": 2}, {Fraction(0), Fraction(2)}),
        ("A", {"a": 0, "b": 2, "c": -1}, {Fraction(0), Fraction(-1, 2)}),
        ("A", {"a": 0, "b": 1, "c": 0}, {Fraction(0)}),
        ("A", {"a": 0, "b": 0, "c": 3}, {Fraction(0)}),
    ]
    for algebra, params, expected_values in cases:
        classes = classify_scalar(algebra, params)
        assert set(classes[1].values) == expected_values, algebra
        assert brute(algebra, params) == predicted(classes[1].values), algebra
    lam_samples = [Fraction(n, 3) for n in range(-5, 5)]
    assert len(lam_samples) == 10
    for lam in lam_samples:
        for algebra, params, _ in cases:
            assert verify_scalar([lam, lam], algebra, params), (algebra, lam)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    announce(6, f"169-point grid matches the classification for A(1,0,1), B, C and four A(0,b,c); "
                f"10-point uniform sample in {elapsed:.1f}s")


def test_criterion_7_series_consistency():
    start = time.monotonic()
    results = {}
    for name in ("A3_2dim", "B3_2dim", "C3_2dim", "Hecke3_std", "Hecke3_burau", "scalar"):
        rep = builtin_rep(name)
        val = series_agreement_order(rep, 1, 8)
        assert val is None or val >= 9, (name, val)
        results[name] = "exact" if val is None else val
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    announce(7, f"H closed-form vs order-8 truncation: valuations {results} in {elapsed:.2f}s")


def test_criterion_8_correspondences():
    start = time.monotonic()
    assert correspondence_check("hecke_in_A", builtin_rep("Hecke3_std")).passed
    assert correspondence_check("hecke_in_A", builtin_rep("Hecke3_burau")).passed  # distinct generators
    assert check_relations(flip_rep(builtin_rep("B3_2dim")), relations_for("C", 3)).passed
    assert check_relations(flip_rep(builtin_rep("A3_2dim")), relations_for("A", 3)).passed
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    announce(8, f"Hecke reps inside A(0,0,-q); flip(B3) satisfies C; flip(A3) satisfies A in {elapsed:.2f}s")


def test_criterion_9_transfer_matrices():
    start = time.monotonic()
    rep = builtin_rep("Hecke3_std", q=2)
    fn = spectral_fn("hecke")
    report = transfer_commute(rep, 1, fn, (2, 3, 4), count=5, seed=1)
    assert report.passed, report.residuals
    assert len(report.residuals) == 15
    assert [(run["L"], len(run["points"])) for run in report.mode["runs"]] == [(2, 5), (3, 5), (4, 5)]
    control = transfer_commute(rep, 1, fn, [3], count=5, seed=1, corrupt=True)
    assert control.status == "fail"
    assert any(size for _, size in control.residuals)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    announce(9, f"[t(x1), t(x2)] = 0 at 5 point pairs for L in (2,3,4); corrupted control fails in {elapsed:.1f}s")
