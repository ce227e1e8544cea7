from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nscoding.rational import (
    as_rational,
    format_rational,
    parse_rational,
    read_rational,
)

rationals = st.fractions(max_denominator=10**6)


def test_parse_basic_forms():
    assert parse_rational("13/16") == Fraction(13, 16)
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational("7") == Fraction(7)
    assert parse_rational(" 1/2 ") == Fraction(1, 2)


def test_parse_decimal_is_exact():
    # 0.1 has no finite binary expansion; parsing must not go through float.
    assert parse_rational("0.1") == Fraction(1, 10)
    assert parse_rational("0.1") != Fraction(0.1)
    assert parse_rational("0.25") == Fraction(1, 4)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_rational("one half")
    with pytest.raises(ValueError):
        parse_rational("1/2/3")


def test_zero_denominator_is_division_error():
    with pytest.raises(ZeroDivisionError):
        parse_rational("1/0")


def test_as_rational_rejects_float():
    with pytest.raises(ValueError):
        as_rational(0.5)


@pytest.mark.parametrize("value", [True, False])
def test_as_rational_rejects_booleans(value):
    with pytest.raises(ValueError, match="^cannot use bool as an exact rational$"):
        as_rational(value)
    assert as_rational(1) == 1 and as_rational(0) == 0


@pytest.mark.parametrize("value, word", [(True, "true"), (False, "false")])
def test_read_rational_rejects_booleans(value, word):
    # JSON true/false load as bool, a subclass of int
    with pytest.raises(ValueError, match=f"^{word} is a boolean, not a rational$"):
        read_rational(value)
    assert read_rational(1) == 1 and read_rational(0) == 0


def test_format():
    assert format_rational(Fraction(13, 16)) == "13/16"
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    assert format_rational(Fraction(0)) == "0"


def test_canonical_form():
    r = parse_rational("6/8")
    assert (r.numerator, r.denominator) == (3, 4)
    assert parse_rational("-2/4") == Fraction(-1, 2)
    assert parse_rational("-2/4").denominator == 2  # denominator normalized positive


@given(rationals, rationals, rationals)
def test_field_axioms_sample(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


@given(rationals)
def test_render_parse_round_trip(r):
    assert parse_rational(format_rational(r)) == r
