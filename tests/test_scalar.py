import pytest
from fractions import Fraction

from baxcheck import cli
from baxcheck.baxter import SPECTRAL_CASES, H_series, build_R, spectral_fn
from baxcheck.exactnum import MultiPoly, RatFunc, format_scalar, parse_scalar
from baxcheck.exactnum.scalar import as_bool, as_int, as_list, as_scalar
from baxcheck.ncalg import ALGEBRAS, PROP1_TERMS, NCPoly, prop1_certificate, relations_for
from baxcheck.reps import BUILTIN_NAMES, CORRESPONDENCE_KINDS, builtin_rep, classify_scalar, correspondence_check
from baxcheck.verify import transfer_commute, ybe_random


def test_parse_plain_and_fraction():
    assert parse_scalar("3") == 3
    assert parse_scalar("-7") == -7
    assert parse_scalar("2/3") == Fraction(2, 3)
    assert parse_scalar("-6/4") == Fraction(-3, 2)


def test_format_roundtrip():
    for text in ("0", "5", "-5", "1/2", "-22/7"):
        assert format_scalar(parse_scalar(text)) == text


@pytest.mark.parametrize("bad", ["1/0", "1.5", "a", "", "1/-2", "0x3", "2/", None, "\u0663", "\uff11", "1/\uff12",
                                 "3\u3000", " 3 ", "3\n", " 3", "1/2 ", "1 /2", "\t-1"])
def test_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_scalar(bad)


def test_as_scalar_keeps_exact_rationals_and_rejects_the_rest():
    assert as_scalar(3) == 3 and type(as_scalar(3)) is Fraction
    assert as_scalar(Fraction(-3, 4)) == Fraction(-3, 4)
    assert as_scalar("3/2") == Fraction(3, 2)
    # a binary float names a different rational than its decimal text; a bool is no scalar
    for bad in (0.5, 0.1, 1.0, True, None, "0.1", "\u0663", [1]):
        with pytest.raises(ValueError):
            as_scalar(bad)


def test_as_scalar_returns_a_fraction_itself():
    f = Fraction(-7, 3)
    assert as_scalar(f) is f


# every entry that reads a rational a caller passes in, each called with one bad value
RATIONAL_ENTRIES = {
    "builtin_rep": lambda bad: builtin_rep("Hecke3_std", q=bad),
    "relations_for": lambda bad: relations_for("Hecke", 3, {"q": bad}),
    "correspondence_check": lambda bad: correspondence_check("hecke_in_A", builtin_rep("Hecke3_std"), q=bad),
    "classify_scalar": lambda bad: classify_scalar("A", {"a": 1, "b": bad, "c": 1}),
    "MultiPoly": lambda bad: MultiPoly(("x",), {(1,): bad}),
    "MultiPoly.const": lambda bad: MultiPoly.const(("x",), bad),
    "RatFunc.const": lambda bad: RatFunc.const(("x",), bad),
    "RatFunc.eval": lambda bad: RatFunc.var(("x",), "x").eval({"x": bad}),
    "format_scalar": format_scalar,
}


@pytest.mark.parametrize("bad", [True, 0.5], ids=["bool", "float"])
@pytest.mark.parametrize("entry", RATIONAL_ENTRIES.values(), ids=RATIONAL_ENTRIES.keys())
def test_every_rational_entry_refuses_a_bool_and_a_float(entry, bad):
    with pytest.raises(ValueError):
        entry(bad)


def test_as_int_messages_are_the_job_schema_messages():
    assert as_int(3, "trials") == 3 and as_int(-5, "seed") == -5 and as_int(2, "site", 1, 2) == 2
    for value, floor, cap, message in (
        (True, None, None, "^trials: expected an integer$"),
        (2.0, None, None, "^trials: expected an integer$"),
        (0, 1, None, "^trials: at least 1, got 0$"),
        (9, 1, 8, "^trials: at most 8, got 9$"),
    ):
        with pytest.raises(ValueError, match=message):
            as_int(value, "trials", floor, cap)


def test_as_bool_and_as_list_messages_are_the_job_schema_messages():
    assert as_bool(False, "corrupt") is False
    assert as_list((2, 3), "lengths") == (2, 3) and as_list([None], "values", 1) == [None]
    for value in (0, 1, "true", None):
        with pytest.raises(ValueError, match="^corrupt: expected true or false$"):
            as_bool(value, "corrupt")
    for value in ([], (), "12", 12, {2: 3}, {2, 3}, None):
        with pytest.raises(ValueError, match="^lengths: expected a nonempty list$"):
            as_list(value, "lengths")
    with pytest.raises(ValueError, match="^jobs: at most 2 items, got 3$"):
        as_list([1, 2, 3], "jobs", 2)


def _hecke():
    return builtin_rep("Hecke3_std", q=2)


def _xy_plus_one():
    x, y = MultiPoly.var(("x", "y"), "x"), MultiPoly.var(("x", "y"), "y")
    return x * y + 1


# every entry that reads an int a caller passes in (a count, an index, a seed), each called with one bad value
INT_ENTRIES = {
    "ybe_random.trials": lambda bad: ybe_random(_hecke(), spectral_fn("hecke"), trials=bad),
    "ybe_random.seed": lambda bad: ybe_random(_hecke(), spectral_fn("hecke"), trials=1, seed=bad),
    "transfer_commute.count": lambda bad: transfer_commute(_hecke(), 1, spectral_fn("hecke"), [2], count=bad),
    "transfer_commute.seed": lambda bad: transfer_commute(_hecke(), 1, spectral_fn("hecke"), [2], count=1, seed=bad),
    "transfer_commute.lengths": lambda bad: transfer_commute(_hecke(), 1, spectral_fn("hecke"), [2, bad]),
    "H_series.order": lambda bad: H_series(_hecke(), 1, bad),
    "relations_for.n": lambda bad: relations_for("B", bad),
    "NCPoly.n": lambda bad: NCPoly(bad, ()),
    "NCPoly.gen": lambda bad: NCPoly.gen(3, bad, ()),
    "NCPoly.__pow__": lambda bad: NCPoly.gen(3, 1, ()) ** bad,
    "Rep.site": lambda bad: build_R(_hecke(), bad, spectral_fn("hecke")),
    "MultiPoly.at": lambda bad: _xy_plus_one().at("y", bad),
}


@pytest.mark.parametrize("bad", [True, 2.0, Fraction(2), "2"], ids=["bool", "float", "Fraction", "str"])
@pytest.mark.parametrize("entry", INT_ENTRIES.values(), ids=INT_ENTRIES.keys())
def test_every_int_entry_refuses_a_bool_a_float_a_fraction_and_a_string(entry, bad):
    with pytest.raises(ValueError, match=": expected an integer$"):
        entry(bad)


# every entry that reads a name: (its label, its options, the entry called with one name)
NAME_ENTRIES = {
    "spectral_fn": ("case", SPECTRAL_CASES, lambda name: spectral_fn(name)),
    "builtin_rep": ("builtin", BUILTIN_NAMES, lambda name: builtin_rep(name)),
    "relations_for": ("algebra", ALGEBRAS, lambda name: relations_for(name, 3)),
    "classify_scalar": ("algebra", ("A", "B", "C"), lambda name: classify_scalar(name)),
    "correspondence_check": ("kind", CORRESPONDENCE_KINDS, lambda name: correspondence_check(name, _hecke())),
    "prop1_certificate": ("omit_term", PROP1_TERMS, lambda name: prop1_certificate(omit_term=name)),
}


@pytest.mark.parametrize("label, options, entry", NAME_ENTRIES.values(), ids=NAME_ENTRIES.keys())
def test_every_name_entry_refuses_an_unknown_name_as_the_job_schema_does(label, options, entry):
    with pytest.raises(ValueError) as schema:
        cli._one_of(options)("bogus", label)
    with pytest.raises(ValueError) as library:
        entry("bogus")
    assert str(library.value) == str(schema.value)


@pytest.mark.parametrize("make", [
    lambda: MultiPoly.var(("x",), "x"),
    lambda: RatFunc.var(("x",), "x"),
    lambda: NCPoly.gen(3, 1, ()),
], ids=["MultiPoly", "RatFunc", "NCPoly"])
def test_a_bool_operand_is_refused_like_a_float(make):
    p = make()
    for bad in (True, 0.5):
        with pytest.raises(TypeError):
            bad * p
        if not isinstance(p, NCPoly):  # an element takes no scalar sum
            with pytest.raises(TypeError):
                p + bad
    assert (p == True) is False and True not in [p]  # noqa: E712
    assert 2 * p == p + p
