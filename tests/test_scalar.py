import pytest
from fractions import Fraction

from baxcheck.exactnum import MultiPoly, RatFunc, format_scalar, parse_scalar
from baxcheck.exactnum.scalar import as_scalar
from baxcheck.ncalg import relations_for
from baxcheck.reps import builtin_rep, classify_scalar, correspondence_check


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
