import itertools
import random
from fractions import Fraction

import pytest

from baxcheck import cli
from baxcheck.exactnum import ClearedMatrix, FieldMatrix, MultiPoly, RatFunc, canonical_vars
from baxcheck.ncalg import NCPoly, relations_for
from baxcheck.reps import (
    BUILTIN_NAMES,
    Rep,
    builtin_rep,
    check_relations,
    classify_scalar,
    correspondence_check,
    evaluate_element,
    flip_rep,
    verify_scalar,
)
from helpers import cleared_value, tensor_legs


def test_a3_satisfies_relations_with_fully_symbolic_parameters():
    # measured scope: all five relations vanish for symbolic a, b, c, mu
    rep = builtin_rep("A3_2dim")
    report = check_relations(rep, relations_for("A", 3))
    assert report.passed, report.residuals


def test_a3_generators_square_to_zero():
    rep = builtin_rep("A3_2dim", c=1, mu=Fraction(1, 2))
    for i in (1, 2):
        m = rep.matrices[i]
        assert (m * m).is_zero


def _cleared_sites(rep, symbols):
    return {i: ClearedMatrix(*rep.site(i, symbols).cleared()) for i in rep.matrices}


def test_evaluate_element_of_the_empty_word_and_of_one_generator():
    rep = builtin_rep("B3_2dim")
    sites = _cleared_sites(rep, rep.params)
    one = RatFunc.const(rep.params, 1)
    value = evaluate_element(NCPoly.one(3, rep.params), sites, rep.dim, rep.params)
    assert cleared_value(value) == FieldMatrix.identity(2, one)
    for i in (1, 2):
        word = NCPoly.gen(3, i, rep.params)
        assert cleared_value(evaluate_element(word, sites, rep.dim, rep.params)) == rep.matrices[i]


def test_evaluate_element_with_denominators_in_sites_and_coefficients():
    t = RatFunc.var(("t",), "t")
    rep = builtin_rep("B3_2dim", nu=RatFunc.const(t.vars, 1) / (t + 1), mu=t)
    symbols = rep.params
    sites = _cleared_sites(rep, symbols)
    assert [str(f) for f in sites[1].factors] == ["t + 1"]
    s1, s2 = (NCPoly.gen(3, i, symbols) for i in (1, 2))
    coeff = RatFunc.const(symbols, 1) / (RatFunc.var(symbols, "t") - 2)
    value = evaluate_element(coeff * (s1 * s2 * s1) - s2 * s2 + s1, sites, rep.dim, symbols)
    m1, m2 = rep.matrices[1], rep.matrices[2]
    assert cleared_value(value) == (m1 * m2 * m1).scale(coeff) - m2 * m2 + m1


def test_an_element_with_no_terms_evaluates_to_zero():
    # at a = b = 0 the cubics aa5, aa3 and aa4 have no terms left
    rep = builtin_rep("A3_2dim")
    rels = relations_for("A", 3, {"a": 0, "b": 0, "c": -2})
    symbols = canonical_vars(set(rep.params) | set(rels.symbols))
    elements = dict(rels.elements)
    assert not elements["aa5(1)"].terms
    for element in (NCPoly(3, symbols), elements["aa5(1)"]):
        value = evaluate_element(element, _cleared_sites(rep, symbols), rep.dim, symbols)
        assert value.M == FieldMatrix(2, 2, [MultiPoly(symbols)] * 4) and not value.factors
        assert value.residual_size() == 0
    assert dict(check_relations(rep, rels).residuals)["aa5(1)"] == 0


def test_b3_and_c3_pass_their_relations():
    b3 = builtin_rep("B3_2dim")
    assert check_relations(b3, relations_for("B", 3)).passed
    c3 = builtin_rep("C3_2dim")
    assert check_relations(c3, relations_for("C", 3)).passed
    # this family is bilateral: the same matrices satisfy both orientations
    assert check_relations(b3, relations_for("C", 3)).passed
    assert check_relations(c3, relations_for("B", 3)).passed


def test_flip_rep_maps_b_to_c_and_preserves_a():
    b3 = builtin_rep("B3_2dim")
    assert check_relations(flip_rep(b3), relations_for("C", 3)).passed
    a3 = builtin_rep("A3_2dim")
    assert check_relations(flip_rep(a3), relations_for("A", 3)).passed
    assert flip_rep(flip_rep(b3)).matrices[1] == b3.matrices[1]


def test_hecke_std_quadratic_and_tensor_braid():
    rep = builtin_rep("Hecke3_std")
    assert check_relations(rep, relations_for("Hecke", 3)).passed
    legs = tensor_legs(rep.matrices[1], 3, RatFunc.const(rep.params, 1))
    s_left, s_right = legs[1], legs[2]
    assert s_left * s_right * s_left == s_right * s_left * s_right


@pytest.mark.parametrize("q", [2, None], ids=["q=2", "symbolic-q"])
def test_locality_on_hecke_std_legs_at_n4(q):
    # sigma_1 and sigma_3 act on disjoint legs of (C^2)^4, so they commute
    std = builtin_rep("Hecke3_std", q=q)
    legs = tensor_legs(std.matrices[1], 4, RatFunc.const(std.params, 1))
    rels = relations_for("Hecke", 4, {"q": q})
    others = [("braid(1)", 0), ("braid(2)", 0), ("hecke(1)", 0), ("hecke(2)", 0), ("hecke(3)", 0)]
    assert check_relations(Rep(4, 16, std.params, legs), rels).residuals == [("locality(1,3)", 0)] + others
    # control: sigma_3 acting on sigma_2's legs overlaps sigma_1, and only locality sees it
    control = Rep(4, 16, std.params, {**legs, 3: legs[2]})
    assert check_relations(control, rels).residuals == [("locality(1,3)", 2)] + others


def test_rep_entries_are_rational_functions_over_its_params():
    # an entry over an undeclared symbol x would merge with the spectral x
    x = RatFunc.var(("x",), "x")
    with pytest.raises(ValueError, match="rational functions over"):
        Rep(3, 1, (), {1: FieldMatrix(1, 1, [x]), 2: FieldMatrix(1, 1, [x])})
    with pytest.raises(ValueError, match="rational functions over"):
        Rep(3, 1, (), {1: FieldMatrix(1, 1, [Fraction(2)]), 2: FieldMatrix(1, 1, [Fraction(2)])})


# each builtin family's parameter names; a scalar rep takes a values list instead
JOB_PARAMETERS = {"A3_2dim": ("c", "mu"), "B3_2dim": ("nu", "mu"), "C3_2dim": ("nu", "mu"),
                  "Hecke3_std": ("q",), "Hecke3_burau": ("q",)}
JOB_VALUES = (None, Fraction(-3, 2), 2)  # a job keeps a parameter symbolic or fixes it to a rational


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_job_parameters_give_entries_over_one(name):
    # so every RatFunc sum a job forms adds two polynomials and takes no gcd
    if name == "scalar":
        choices = [{"values": v} for n in (1, 2, 3) for v in itertools.product(JOB_VALUES, repeat=n)]
    else:
        names = JOB_PARAMETERS[name]
        choices = [dict(zip(names, v)) for v in itertools.product(JOB_VALUES, repeat=len(names))]
    for params in choices:
        rep = builtin_rep(name, **params)
        for built in (rep, flip_rep(rep)):
            one = MultiPoly.const(built.params, 1)
            assert all(e.den == one for i in built.matrices for e in built.site(i).entries), params


def test_hecke_burau_has_distinct_generators():
    rep = builtin_rep("Hecke3_burau")
    assert check_relations(rep, relations_for("Hecke", 3)).passed
    assert rep.matrices[1] != rep.matrices[2]


def test_hecke_reps_also_satisfy_b_relations():
    # the parameter-free quotient sits between the braid and Hecke algebras
    rep = builtin_rep("Hecke3_burau")
    assert check_relations(rep, relations_for("B", 3)).passed


def test_uniform_scalar_passes_braid_and_cubic_algebras():
    lam = builtin_rep("scalar")
    for algebra in ("Braid", "A", "B", "C"):
        assert check_relations(lam, relations_for(algebra, 3)).passed, algebra


def test_scalar_hecke_needs_eigenvalue_normalization():
    q = RatFunc.var(("q",), "q")
    assert check_relations(builtin_rep("scalar", values=[q, q]), relations_for("Hecke", 3)).passed
    assert check_relations(builtin_rep("scalar", values=[1, 1]), relations_for("Hecke", 3)).passed
    assert not check_relations(builtin_rep("scalar"), relations_for("Hecke", 3)).passed


def test_random_dense_pair_fails_a_relations():
    rng = random.Random(42)
    symbols = ()
    rows = lambda: [[RatFunc.const(symbols, Fraction(rng.randint(-5, 5))) for _ in range(2)] for _ in range(2)]
    rep = Rep(3, 2, symbols, {1: FieldMatrix.from_rows(rows()), 2: FieldMatrix.from_rows(rows())})
    report = check_relations(rep, relations_for("A", 3, {"a": 1, "b": 1, "c": 1}))
    assert report.status == "fail"
    assert any(size for _, size in report.residuals)


def test_classify_scalar_families():
    classes = classify_scalar("A", {"a": 1, "b": 0, "c": 1})
    assert classes[0].kind == "uniform"
    assert classes[1].values == (Fraction(-1), Fraction(0), Fraction(1))
    assert classify_scalar("B")[1].values == (Fraction(0), Fraction(1))
    assert classify_scalar("C")[1].values == (Fraction(0), Fraction(1))
    # a = 0, b != 0: the nonzero value is c/b
    assert classify_scalar("A", {"a": 0, "b": 1, "c": 2})[1].values == (Fraction(0), Fraction(2))
    # irrational roots are reported symbolically, and so are non-real ones (l^2 + 1 at (1, 0, -1))
    for params, kind in (({"a": 1, "b": 1, "c": 1}, "irrational"), ({"a": 1, "b": 0, "c": -1}, "non-real")):
        zero_pattern = classify_scalar("A", params)[1]
        assert zero_pattern.values is None
        assert zero_pattern.description == f"values 0 and the two ({kind}) roots of the quadratic"
    # a = b = 0: only the zero value remains
    assert classify_scalar("A", {"a": 0, "b": 0, "c": 5})[1].values == (Fraction(0),)
    with pytest.raises(ValueError):
        classify_scalar("A", {"a": 0, "b": 0, "c": 0})
    with pytest.raises(ValueError):
        classify_scalar("Hecke")


def test_classify_scalar_zero_pattern_is_sorted_and_distinct():
    # b*l - c has the one root c/b at a = 0; it joins 0 once and in order
    for params, values, text in (
        ({"a": 0, "b": 1, "c": 0}, ["0"], "values in {0}"),
        ({"a": 0, "b": 1, "c": -2}, ["-2", "0"], "values in {-2, 0}"),
        ({"a": 0, "b": 0, "c": 5}, ["0"], "values in {0}"),
        ({"a": 1, "b": 0, "c": 0}, ["0"], "values in {0}"),
    ):
        record = classify_scalar("A", params)[1].to_record()
        assert (record["values"], record["description"]) == (values, text), params


def test_classify_scalar_needs_rational_parameters():
    # an absent or symbolic parameter stays symbolic, as in verify_scalar; none counts as 0
    for params in ({"a": 1}, {"a": 1, "b": 0}, {"a": 1, "b": 0, "c": RatFunc.var(("q",), "q")}, None):
        with pytest.raises(ValueError, match="needs rational a, b, c"):
            classify_scalar("A", params)
    with pytest.raises(ValueError, match=r"unexpected parameters \['q'\]"):
        classify_scalar("A", {"a": 1, "b": 0, "c": 1, "q": 2})


def test_verify_scalar_examples():
    params = {"a": 1, "b": 0, "c": 1}
    assert verify_scalar([Fraction(1), Fraction(-1)], "A", params)
    assert not verify_scalar([Fraction(1), Fraction(2)], "A", params)
    assert verify_scalar([Fraction(1), Fraction(0)], "B")
    assert not verify_scalar([Fraction(2), Fraction(0)], "B")


def test_zero_pattern_matches_brute_force_for_a012():
    # spot-check of the c/b classification against direct relation evaluation
    params = {"a": 0, "b": 1, "c": 2}
    grid = [Fraction(n) for n in range(-2, 4)]
    predicted = {(u, v) for u in grid for v in grid if u == v or {u, v} <= {Fraction(0), Fraction(2)}}
    actual = {(u, v) for u in grid for v in grid if verify_scalar([u, v], "A", params)}
    assert actual == predicted


def test_correspondence_hecke_in_A():
    for name in ("Hecke3_std", "Hecke3_burau"):
        report = correspondence_check("hecke_in_A", builtin_rep(name))
        assert report.passed, (name, report.residuals)


def test_correspondence_hecke_in_A_rejects_non_hecke_rep():
    report = correspondence_check("hecke_in_A", builtin_rep("A3_2dim"))
    assert report.status == "error"
    assert any("precondition" in note for note in report.notes)


def test_correspondence_braid_coset():
    rep = builtin_rep("Hecke3_burau")
    # the cubic coset relations hold exactly at b = 1 and b = q
    for b in (Fraction(1), RatFunc.var(("q",), "q")):
        report = correspondence_check("braid_coset_to_A", rep, b=b)
        assert report.passed, (b, report.residuals)
    # a generic symbolic b fails the precondition
    report = correspondence_check("braid_coset_to_A", rep, b=RatFunc.var(("b",), "b"))
    assert report.status == "error"


def test_correspondence_b_to_a_shift():
    rep = builtin_rep("B3_2dim")
    for b in (Fraction(1), Fraction(2), RatFunc.var(("b",), "b")):  # holds for symbolic b as well
        report = correspondence_check("B_to_A_shift", rep, b=b)
        assert report.passed, report.residuals
    with pytest.raises(ValueError):
        correspondence_check("B_to_A_shift", rep, b=Fraction(0))


def test_correspondence_unknown_kind():
    with pytest.raises(ValueError):
        correspondence_check("bogus", builtin_rep("B3_2dim"))


# n = 4 has two sites, so these pin the order of the per-site families and
# their elements' content where the golden reports (all n = 3) cannot.
# UNIFORM is lam at every generator; MIXED is (lam, 2, lam), so the two sites
# see (s, t) = (lam, 2) and (2, lam) and most residuals are nonzero.
UNIFORM, MIXED = {"values": [None, None, None]}, {"values": [None, 2, None]}
A_AT_N4 = [("locality(1,3)", 0)] + [(f"{f}({i})", 0) for i in (1, 2) for f in ("aa1", "aa2", "aa5", "aa3", "aa4")]


@pytest.mark.parametrize(
    "algebra, rep, expected",
    [
        ("Braid", UNIFORM, [("locality(1,3)", 0), ("braid(1)", 0), ("braid(2)", 0)]),
        ("Braid", MIXED, [("locality(1,3)", 0), ("braid(1)", 3), ("braid(2)", 3)]),
        ("Hecke", UNIFORM, [("locality(1,3)", 0), ("braid(1)", 0), ("braid(2)", 0),
                            ("hecke(1)", 5), ("hecke(2)", 5), ("hecke(3)", 5)]),
        ("Hecke", MIXED, [("locality(1,3)", 0), ("braid(1)", 3), ("braid(2)", 3),
                          ("hecke(1)", 5), ("hecke(2)", 3), ("hecke(3)", 5)]),
        ("A", UNIFORM, A_AT_N4),
        ("A", MIXED, [("locality(1,3)", 0),
                      ("aa1(1)", 0), ("aa2(1)", 7), ("aa5(1)", 5), ("aa3(1)", 5), ("aa4(1)", 7),
                      ("aa1(2)", 0), ("aa2(2)", 7), ("aa5(2)", 5), ("aa3(2)", 5), ("aa4(2)", 7)]),
        ("B", UNIFORM, [("locality(1,3)", 0), ("braid(1)", 0), ("braid(2)", 0),
                        ("bb2(1)", 0), ("bb3(1)", 0), ("bb4(1)", 0), ("bb2(2)", 0), ("bb3(2)", 0), ("bb4(2)", 0)]),
        ("B", MIXED, [("locality(1,3)", 0), ("braid(1)", 3), ("braid(2)", 3),
                      ("bb2(1)", 4), ("bb3(1)", 5), ("bb4(1)", 5), ("bb2(2)", 4), ("bb3(2)", 5), ("bb4(2)", 5)]),
        ("C", UNIFORM, [("locality(1,3)", 0), ("braid(1)", 0), ("braid(2)", 0),
                        ("cc2(1)", 0), ("cc3(1)", 0), ("cc4(1)", 0), ("cc2(2)", 0), ("cc3(2)", 0), ("cc4(2)", 0)]),
        ("C", MIXED, [("locality(1,3)", 0), ("braid(1)", 3), ("braid(2)", 3),
                      ("cc2(1)", 4), ("cc3(1)", 5), ("cc4(1)", 5), ("cc2(2)", 4), ("cc3(2)", 5), ("cc4(2)", 5)]),
    ],
)
def test_relation_residuals_at_n4(algebra, rep, expected):
    assert check_relations(builtin_rep("scalar", **rep), relations_for(algebra, 4)).residuals == expected


@pytest.mark.parametrize(
    "kind, values, status, expected",
    [
        ("hecke_in_A", [1, 1, 1], "pass",
         [("precheck Hecke:locality(1,3)", 0), ("precheck Hecke:braid(1)", 0), ("precheck Hecke:braid(2)", 0),
          ("precheck Hecke:hecke(1)", 0), ("precheck Hecke:hecke(2)", 0), ("precheck Hecke:hecke(3)", 0)]
         + [(f"A(0,0,-q):{label}", 0) for label, _ in A_AT_N4]),
        ("hecke_in_A", MIXED["values"], "error",
         [("precheck Hecke:locality(1,3)", 0), ("precheck Hecke:braid(1)", 3), ("precheck Hecke:braid(2)", 3),
          ("precheck Hecke:hecke(1)", 5), ("precheck Hecke:hecke(2)", 3), ("precheck Hecke:hecke(3)", 5)]),
        ("braid_coset_to_A", [1, 1, 1], "pass",
         [("precheck braid:locality(1,3)", 0), ("precheck braid:braid(1)", 0), ("precheck braid:braid(2)", 0),
          ("precheck coset1(1)", 0), ("precheck coset2(1)", 0), ("precheck coset1(2)", 0), ("precheck coset2(2)", 0)]
         + [(f"A(0,b,-b^2):{label}", 0) for label, _ in A_AT_N4]),
        ("braid_coset_to_A", MIXED["values"], "error",
         [("precheck braid:locality(1,3)", 0), ("precheck braid:braid(1)", 3), ("precheck braid:braid(2)", 3),
          ("precheck coset1(1)", 7), ("precheck coset2(1)", 7), ("precheck coset1(2)", 7), ("precheck coset2(2)", 7)]),
        ("B_to_A_shift", [1, 1, 1], "pass",
         [("precheck B:locality(1,3)", 0), ("precheck B:braid(1)", 0), ("precheck B:braid(2)", 0),
          ("precheck B:bb2(1)", 0), ("precheck B:bb3(1)", 0), ("precheck B:bb4(1)", 0),
          ("precheck B:bb2(2)", 0), ("precheck B:bb3(2)", 0), ("precheck B:bb4(2)", 0),
          ("precheck remark(1)", 0), ("precheck remark(2)", 0)]
         + [(f"A(0,b,-b^2):{label}", 0) for label, _ in A_AT_N4]),
        ("B_to_A_shift", MIXED["values"], "error",
         [("precheck B:locality(1,3)", 0), ("precheck B:braid(1)", 3), ("precheck B:braid(2)", 3),
          ("precheck B:bb2(1)", 4), ("precheck B:bb3(1)", 5), ("precheck B:bb4(1)", 5),
          ("precheck B:bb2(2)", 4), ("precheck B:bb3(2)", 5), ("precheck B:bb4(2)", 5),
          ("precheck remark(1)", 4), ("precheck remark(2)", 4)]),
    ],
)
def test_correspondence_residuals_at_n4(kind, values, status, expected):
    report = correspondence_check(kind, builtin_rep("scalar", values=values))
    assert (report.status, report.residuals) == (status, expected)


def test_builtin_rejects_unknown():
    with pytest.raises(ValueError):
        builtin_rep("nope")
    with pytest.raises(ValueError):
        builtin_rep("A3_2dim", q=1)
    with pytest.raises(ValueError, match="^values: expected a nonempty list$"):
        builtin_rep("scalar", values=[])
    with pytest.raises(ValueError, match=r"unexpected parameters \['n'\]"):
        builtin_rep("scalar", values=[1, 2], n=3)  # values fixes n


def test_scalar_values_are_a_list_or_a_tuple():
    # a string is a sequence of characters, not of values
    for values in ("12", 12, {1: 1, 2: 2}, None):
        with pytest.raises(ValueError, match="^values: expected a nonempty list$"):
            builtin_rep("scalar", values=values)
    assert builtin_rep("scalar", values=(1, 2)) == builtin_rep("scalar", values=[1, 2])


def test_a_rep_compares_by_value_and_has_no_hash():
    rep = builtin_rep("B3_2dim")
    assert rep == builtin_rep("B3_2dim") and rep != builtin_rep("C3_2dim") and rep != "B3_2dim"
    with pytest.raises(TypeError):
        hash(rep)


def test_scalar_uniform_rep_is_trivial_correspondence():
    lam = builtin_rep("scalar", values=[1, 1])
    assert correspondence_check("hecke_in_A", lam, q=Fraction(1)).passed
    assert correspondence_check("braid_coset_to_A", lam, b=Fraction(3)).passed
    assert correspondence_check("B_to_A_shift", lam, b=Fraction(2)).passed


# the params and printed matrices of builtin_rep(name, **kwargs), symbolic and
# at one numeric assignment
SERIALIZED = [
    ("A3_2dim", {}, ["c", "mu"], {"1": [["0", "c"], ["0", "0"]], "2": [["mu", "-mu^2"], ["1", "-mu"]]}),
    ("A3_2dim", {"c": 2, "mu": Fraction(1, 3)}, [],
     {"1": [["0", "2"], ["0", "0"]], "2": [["1/3", "-1/9"], ["1", "-1/3"]]}),
    ("B3_2dim", {}, ["mu", "nu"], {"1": [["mu*nu", "0"], ["nu", "1"]], "2": [["1", "-mu"], ["0", "mu*nu"]]}),
    ("B3_2dim", {"nu": 2, "mu": Fraction(1, 3)}, [],
     {"1": [["2/3", "0"], ["2", "1"]], "2": [["1", "-1/3"], ["0", "2/3"]]}),
    ("C3_2dim", {}, ["mu", "nu"], {"2": [["mu*nu", "0"], ["nu", "1"]], "1": [["1", "-mu"], ["0", "mu*nu"]]}),
    ("C3_2dim", {"nu": 2, "mu": Fraction(1, 3)}, [],
     {"2": [["2/3", "0"], ["2", "1"]], "1": [["1", "-1/3"], ["0", "2/3"]]}),
    ("Hecke3_std", {}, ["q"], {
        str(i): [["q", "0", "0", "0"], ["0", "0", "q", "0"], ["0", "-1", "q + 1", "0"], ["0", "0", "0", "q"]]
        for i in (1, 2)
    }),
    ("Hecke3_std", {"q": 2}, [], {
        str(i): [["2", "0", "0", "0"], ["0", "0", "2", "0"], ["0", "-1", "3", "0"], ["0", "0", "0", "2"]]
        for i in (1, 2)
    }),
    ("Hecke3_burau", {}, ["q"], {"1": [["q", "1"], ["0", "1"]], "2": [["1", "0"], ["-q", "q"]]}),
    ("Hecke3_burau", {"q": Fraction(-1, 2)}, [],
     {"1": [["-1/2", "1"], ["0", "1"]], "2": [["1", "0"], ["1/2", "-1/2"]]}),
    ("scalar", {}, ["lam"], {"1": [["lam"]], "2": [["lam"]]}),
    ("scalar", {"values": [2, Fraction(1, 2)]}, [], {"1": [["2"]], "2": [["1/2"]]}),
]


def _rep_record(rep: Rep) -> dict:
    matrices = {str(i): [[str(e) for e in m.row(r)] for r in range(m.rows)] for i, m in rep.matrices.items()}
    return {"n": rep.n, "dim": rep.dim, "params": list(rep.params), "matrices": matrices}


def test_rep_serialization_shape():
    for name, kwargs, params, matrices in SERIALIZED:
        record = _rep_record(builtin_rep(name, **kwargs))
        dim = len(matrices["1"])
        assert record == {"n": 3, "dim": dim, "params": params, "matrices": matrices}, (name, kwargs)


T = RatFunc.var(("t",), "t")
Q = RatFunc.var(("q",), "q")


@pytest.mark.parametrize(
    "given, want",
    [
        ({}, Q),  # an absent name stays symbolic as its own symbol
        ({"q": None}, Q),
        ({"q": "2"}, RatFunc.const((), 2)),  # a str is always a "p/q" scalar
        ({"q": T}, T),  # a RatFunc names a symbol of another name
        ({"q": 2}, RatFunc.const((), 2)),
        ({"q": Fraction(-1, 3)}, RatFunc.const((), Fraction(-1, 3))),
        ({"q": (T + 1) / T}, (T + 1) / T),  # a RatFunc is lifted
        ({"b": 2}, r"unexpected parameters \['b'\]$"),
        ({"q": 0.5}, "got 0.5$"),
    ],
    ids=["absent", "None", "str", "RatFunc-symbol", "int", "Fraction", "RatFunc", "unknown-name", "float"],
)
def test_parameter_resolution_is_shared(given, want):
    """builtin_rep, relations_for and correspondence_check resolve q alike."""
    if isinstance(want, str):
        for call in (
            lambda: builtin_rep("Hecke3_std", **given),
            lambda: relations_for("Hecke", 3, given),
            lambda: correspondence_check("hecke_in_A", builtin_rep("Hecke3_std"), **given),
        ):
            with pytest.raises(ValueError, match=want):
                call()
        return
    rep = builtin_rep("Hecke3_std", **given)
    assert rep.params == want.vars and rep.matrices[1][0, 0] == want
    rels = relations_for("Hecke", 3, given)
    # (s - 1)(s - q) has constant coefficient q
    assert rels.symbols == want.vars and dict(rels.elements)["hecke(1)"].terms[()] == want
    assert correspondence_check("hecke_in_A", rep, **given).passed
    # a different q fails the Hecke precheck
    assert correspondence_check("hecke_in_A", rep, q=want + 1).status == "error"


def test_a_string_parameter_is_a_scalar_in_the_library_and_in_jobs():
    rep = builtin_rep("Hecke3_std", q="2")
    assert rep.params == () and rep == builtin_rep("Hecke3_std", q=2)
    assert rep == cli._build(cli._rep({"builtin": "Hecke3_std", "parameters": {"q": "2"}}, "rep"))


def test_evaluate_at_point():
    # entry by entry, the independent route the cleared evaluation is checked against
    rep = builtin_rep("B3_2dim")
    point = {"nu": Fraction(2), "mu": Fraction(3)}
    mats = {i: m.map_entries(lambda e: e.eval(point)) for i, m in rep.matrices.items()}
    assert [mats[1].row(i) for i in range(mats[1].rows)] == [[6, 0], [2, 1]]
    assert [mats[2].row(i) for i in range(mats[2].rows)] == [[1, -3], [0, 6]]
