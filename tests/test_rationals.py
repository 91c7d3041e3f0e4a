from fractions import Fraction

import pytest

from cuboidsearch.rationals import (
    RationalParseError,
    format_rational,
    height,
    parse_rational,
)


def test_parse_integer_and_fraction():
    assert parse_rational("3") == 3
    assert parse_rational("-7") == -7
    assert parse_rational("+2") == 2
    assert parse_rational("1/2") == Fraction(1, 2)
    assert parse_rational("-3/9") == Fraction(-1, 3)
    assert parse_rational(" 5/10 ") == Fraction(1, 2)


def test_parse_rejects_zero_denominator():
    with pytest.raises(RationalParseError):
        parse_rational("1/0")


def test_parse_rejects_decimals_with_hint():
    with pytest.raises(RationalParseError) as info:
        parse_rational("0.5")
    assert "1/2" in str(info.value)


@pytest.mark.parametrize("bad", ["", "a", "1/2/3", "1 / 2", "--3", "1e3", "nan"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(RationalParseError):
        parse_rational(bad)


def test_format_round_trip():
    for text in ["0", "5", "-5", "1/2", "-22/7", "1000000000000000001/3"]:
        assert format_rational(parse_rational(text)) == text


def test_height():
    assert height(Fraction(0)) == 1
    assert height(Fraction(5)) == 5
    assert height(Fraction(-1, 8)) == 8
    assert height(Fraction(22, 7)) == 22


# 3/4, 3 and 1/2 in Arabic-Indic, fullwidth and Devanagari digits, which int() reads
@pytest.mark.parametrize("text", ["٣/4", "３", "१/२"])
def test_parse_rejects_digits_that_are_not_ascii(text):
    with pytest.raises(RationalParseError):
        parse_rational(text)
