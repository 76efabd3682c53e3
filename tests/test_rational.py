from fractions import Fraction

import pytest

from convexkit.kernel.rational import format_rational, parse_rational


def test_parse_plain_integer():
    assert parse_rational("7") == Fraction(7)
    assert parse_rational("-3") == Fraction(-3)


def test_parse_fraction_literal():
    assert parse_rational("19/2") == Fraction(19, 2)
    assert parse_rational("-5/10") == Fraction(-1, 2)


def test_parse_decimal_is_exact():
    # 9.5 must become 19/2, not a float detour
    v = parse_rational("9.5")
    assert v == Fraction(19, 2)
    assert parse_rational("0.1") == Fraction(1, 10)


def test_parse_rejects_garbage():
    for bad in ("", "x", "1/0", "1//2", "1.2.3"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_format_roundtrip():
    for text in ("3", "-3", "19/2", "-7/3"):
        assert format_rational(parse_rational(text)) == text


def test_format_integer_has_no_denominator():
    assert format_rational(Fraction(8, 4)) == "2"

