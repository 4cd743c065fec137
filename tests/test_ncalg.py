import random
from fractions import Fraction

import pytest

from baxcheck import ncalg
from baxcheck.exactnum import RatFunc
from baxcheck.ncalg import (
    NCPoly,
    PROP1_TERMS,
    flip,
    nc_commutator,
    prop1_certificate,
    relations_for,
)

S = ()  # rational coefficients
SYM = ("a", "b")  # rational-function coefficients


def gen(i, n=3, symbols=S):
    return NCPoly.gen(n, i, symbols)


def test_self_commutator_vanishes():
    s1 = gen(1)
    assert nc_commutator(s1, s1).is_zero


def test_commutator_has_two_words():
    s1, s2 = gen(1), gen(2)
    comm = s1 * s2 - s2 * s1
    assert comm.num_terms() == 2


def test_distinct_words_stay_distinct():
    s1, s2 = gen(1), gen(2)
    p = (s1 + s2) * s1
    assert p.terms.keys() == {(1, 1), (2, 1)}


def test_mismatched_strands_rejected():
    with pytest.raises(ValueError):
        gen(1, n=3) + gen(1, n=4)


def test_relation_counts():
    braid4 = relations_for("Braid", 4)
    assert [label for label, _ in braid4.elements] == ["locality(1,3)", "braid(1)", "braid(2)"]
    a3 = relations_for("A", 3)
    assert len(a3.elements) == 5 and not [label for label, _ in a3.elements if label.startswith("locality")]
    hecke3 = relations_for("Hecke", 3)
    assert sorted(label for label, _ in hecke3.elements) == ["braid(1)", "hecke(1)", "hecke(2)"]
    a4 = relations_for("A", 4)
    assert len(a4.elements) == 11  # one locality pair plus five relations per site pair
    hecke4 = relations_for("Hecke", 4)
    assert len(hecke4.elements) == 6


def test_relations_reject_bad_input():
    with pytest.raises(ValueError):
        relations_for("A", 1)
    with pytest.raises(ValueError):
        relations_for("Frobnitz", 3)
    with pytest.raises(ValueError):
        relations_for("B", 3, {"q": 1})  # B takes no parameters


def test_prop1_certificate_is_identically_zero():
    residual, ok = prop1_certificate()
    assert ok and residual.is_zero


def test_prop1_specialization_a2():
    # substitute a = 2 (b, c arbitrary rationals) into the symbolic residual
    residual, _ = prop1_certificate()
    point = {"a": Fraction(2), "b": Fraction(3, 2), "c": Fraction(-5)}
    values = [coeff.eval(point) for coeff in residual.terms.values()]
    assert all(v == 0 for v in values)  # empty residual: vacuously exact


@pytest.mark.parametrize("term", PROP1_TERMS)
def test_prop1_mutation_controls(term):
    residual, ok = prop1_certificate(omit_term=term)
    assert not ok and not residual.is_zero


def test_prop1_takes_the_aa1_aa2_aa3_aa5_elements_of_the_a_relations(monkeypatch):
    # record each element prop1_certificate builds from the A family table
    taken = {}
    a_cubics = ncalg._a_cubics

    def spy(a, b, c):
        def recording(label, element):
            def build(s, t):
                taken[label] = element(s, t)
                return taken[label]
            return build

        return tuple((label, recording(label, element)) for label, element in a_cubics(a, b, c))

    monkeypatch.setattr(ncalg, "_a_cubics", spy)
    assert prop1_certificate()[1]
    monkeypatch.undo()
    relations = dict(relations_for("A", 3).elements)
    assert sorted(taken) == ["aa1", "aa2", "aa3", "aa5"]
    for label, element in taken.items():
        assert element == relations[f"{label}(1)"]


def test_prop1_unknown_term_rejected():
    with pytest.raises(ValueError):
        prop1_certificate(omit_term="nonsense")


def test_flip_single_word():
    p = gen(1) * gen(2) * gen(2)  # s1 s2^2
    assert flip(p).terms.keys() == {(2, 1, 1)}


def test_flip_is_involution():
    rng = random.Random(5)
    p = _random_ncpoly(rng)
    assert flip(flip(p)) == p


def test_flip_fixes_first_cubic_element():
    # the aa1 element maps to itself (measured sign +1)
    aa1 = dict(relations_for("A", 3).elements)["aa1(1)"]
    assert flip(aa1) == aa1


def test_flip_is_multiplicative():
    rng = random.Random(11)
    for _ in range(10):
        p, q = _random_ncpoly(rng), _random_ncpoly(rng)
        assert flip(p * q) == flip(p) * flip(q)


def test_c_relations_are_flip_images_of_b():
    for n in range(3, 7):
        b = dict(relations_for("B", n).elements)
        c = dict(relations_for("C", n).elements)
        for i in range(1, n - 1):
            for k in (2, 3, 4):
                assert flip(b[f"bb{k}({i})"]) == c[f"cc{k}({n - 1 - i})"], (n, i, k)


def test_associativity_and_distributivity():
    rng = random.Random(23)
    for _ in range(10):
        p, q, r = (_random_ncpoly(rng) for _ in range(3))
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
    # c * p is the one scalar multiple; it commutes with the product and distributes over sums
    for _ in range(10):
        p, q = (_random_ncpoly(rng, symbols=SYM) for _ in range(2))
        c = _random_ratfunc(rng)
        assert c * (p * q) == (c * p) * q == p * (c * q)
        assert c * (p + q) == c * p + c * q
        assert (0 * p).is_zero and (RatFunc.zero(SYM) * p).is_zero
        assert 2 * p == p + p and Fraction(1, 2) * (2 * p) == p


def test_a_scalar_multiple_is_written_on_the_left_over_the_same_field():
    p = gen(1, symbols=SYM)
    for scalar in (RatFunc.var(SYM, "a"), 2, Fraction(1, 2)):
        with pytest.raises(TypeError):
            p * scalar
    with pytest.raises(TypeError):
        1.5 * p
    for other_field in (RatFunc.var(("a",), "a"), RatFunc.var(("a", "b", "c"), "c")):
        with pytest.raises(ValueError, match="coefficient field mismatch"):
            other_field * p


def test_serialization_is_length_then_lex():
    s1, s2 = gen(1), gen(2)
    p = s2 * s1 + s1 * s1 * s1 + NCPoly.one(3, S) + s1
    words = ["".join(map(str, w)) for w in p.sorted_words()]
    assert words == ["", "1", "21", "111"]


def _random_ratfunc(rng, symbols=SYM):
    """(i*a*b + j) / (b + k) for small random ints, k > 0; zero when i = j = 0."""
    a, b = (RatFunc.var(symbols, name) for name in symbols)
    return (rng.randint(-3, 3) * a * b + rng.randint(-3, 3)) / (b + rng.randint(1, 3))


def _random_ncpoly(rng, n=3, symbols=S):
    p = NCPoly.zero(n, symbols)
    for _ in range(rng.randint(1, 3)):
        word = tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 3)))
        coeff = _random_ratfunc(rng, symbols) if symbols else RatFunc.const(S, Fraction(rng.randint(-3, 3)))
        p = p + NCPoly(n, symbols, {word: coeff})
    return p
