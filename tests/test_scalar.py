import pytest
from fractions import Fraction

from baxcheck.exactnum import format_scalar, parse_scalar
from baxcheck.exactnum.scalar import as_scalar


def test_parse_plain_and_fraction():
    assert parse_scalar("3") == 3
    assert parse_scalar("-7") == -7
    assert parse_scalar("2/3") == Fraction(2, 3)
    assert parse_scalar("-6/4") == Fraction(-3, 2)


def test_format_roundtrip():
    for text in ("0", "5", "-5", "1/2", "-22/7"):
        assert format_scalar(parse_scalar(text)) == text


@pytest.mark.parametrize("bad", ["1/0", "1.5", "a", "", "1/-2", "0x3", "2/", None, "\u0663", "\uff11", "1/\uff12"])
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
