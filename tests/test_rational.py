import re
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nscoding.auth_scheme import build_auth_scheme
from nscoding.channels import BlockStateSource, builtin_z0z1, make_channel
from nscoding.rational import as_distribution, as_integer, as_rational, format_rational
from nscoding.type_mapping import budgets

rationals = st.fractions(max_denominator=10**6)


def test_parse_basic_forms():
    assert as_rational("13/16") == Fraction(13, 16)
    assert as_rational("-3/4") == Fraction(-3, 4)
    assert as_rational("7") == Fraction(7)
    assert as_rational(" 1/2 ") == Fraction(1, 2)


def test_parse_decimal_is_exact():
    # 0.1 has no finite binary expansion; parsing must not go through float.
    assert as_rational("0.1") == Fraction(1, 10)
    assert as_rational("0.1") != Fraction(0.1)
    assert as_rational("0.25") == Fraction(1, 4)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError, match="^not a rational literal: 'one half'$"):
        as_rational("one half")
    with pytest.raises(ValueError, match="^not a rational literal: '1/2/3'$"):
        as_rational("1/2/3")


def test_zero_denominator_is_division_error():
    # bad input, not an arithmetic fault: a ValueError naming the literal
    with pytest.raises(ValueError, match="^zero denominator in rational literal '1/0'$"):
        as_rational("1/0")


@pytest.mark.parametrize("text, message", [
    ("x" * 3000, "^not a rational literal: 'x{12}\\.\\.\\.x{13}'$"),
    ("1/" + "0" * 3000, "^zero denominator in rational literal '1/0{10}\\.\\.\\.0{13}'$"),
    ("1e-" + "9" * 3000, "^decimal exponent of rational literal '1e-9{9}\\.\\.\\.9{13}' exceeds 4300$"),
])
def test_a_refused_long_literal_is_echoed_shortened(text, message):
    with pytest.raises(ValueError, match=message):
        as_rational(text)


@pytest.mark.parametrize("text, shown", [
    ("1" * 4301, "1{12}"),
    ("0." + "1" * 4301, "0\\.1{10}"),
    ("1/" + "3" * 5000, "1/3{10}"),
])
def test_a_digit_run_past_the_limit_names_the_limit(text, shown):
    message = f"^rational literal '{shown}\\.\\.\\.{text[-1]}{{13}}' has a run of more than 4300 digits$"
    with pytest.raises(ValueError, match=message):
        as_rational(text)


def test_digit_runs_up_to_the_limit_read():
    # the limit bounds each run of digits, not the literal
    run = "1" * 4300
    assert as_rational(run + "." + run) == int(run) + Fraction(int(run), 10**4300)
    assert as_rational("1/" + run) == Fraction(1, int(run))


HALF = Fraction(1, 2)

# each exact-law check in the package, fed one two-entry law where it reads one
LAW_CHECKS = {
    "kernel row s=0, x=1": lambda law: make_channel([[[1, 0], law]], [1]),
    "state_dist": lambda law: make_channel([[[1]], [[1]]], law),
    "block_state": lambda law: BlockStateSource(1, (((0,), law[0]), ((1,), law[1]))).validate(2),
    "dist": lambda law: budgets(10, law, HALF),
    "strategy row 0": lambda law: build_auth_scheme(builtin_z0z1(), [law, [HALF, HALF]], 2, HALF),
}


@pytest.mark.parametrize("what", LAW_CHECKS)
@pytest.mark.parametrize("law, problem", [
    (["3/2", "-1/2"], "3/2 is outside \\[0, 1\\]"),
    (["1/2", "1/3"], "it sums to 5/6"),
])
def test_every_law_check_is_as_distribution(what, law, problem):
    with pytest.raises(ValueError, match=f"^{re.escape(what)} is not a probability distribution: {problem}$"):
        LAW_CHECKS[what](law)


def first_primes(count):
    primes = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    return primes


@pytest.mark.parametrize("law, problem", [
    (["1/3000"] * 2999 + ["0"], "it sums to 2999/3000"),
    (["1/2999"] * 2999 + ["-1/3000"], "-1/3000 is outside \\[0, 1\\]"),
    # the sum's numerator and denominator have about 850 digits each
    pytest.param([f"1/{p}" for p in first_primes(300)], r"it sums to \d{8}\.\.\.\d{9}/\d{8}\.\.\.\d{9}",
                 id="300-primes"),
    # past Python's digit limit the sum cannot be printed at all
    pytest.param([f"1/{p}" for p in first_primes(2000)], r"it sums to about 10\^74\d\d/about 10\^74\d\d",
                 id="2000-primes"),
])
def test_a_long_law_is_refused_in_a_short_message(law, problem):
    # the message shows one entry or the sum, shortened, never the entries
    with pytest.raises(ValueError, match=f"^state_dist is not a probability distribution: {problem}$") as info:
        make_channel([[[1]]] * len(law), law)
    assert len(str(info.value)) < 100


def test_as_distribution_returns_the_law_read_exactly():
    assert as_distribution(["1/4", "0.75", 0], "law") == (Fraction(1, 4), Fraction(3, 4), Fraction(0))


def test_as_integer_reads_int_literals_and_names_the_digit_limit():
    assert as_integer("-12") == -12 and as_integer(" 7 ") == 7
    for text, shown in [("a", "'a'"), ("1/2", "'1/2'"), ("1" * 5001, "'1{12}\\.\\.\\.1{13}'")]:
        with pytest.raises(ValueError, match=f"^not an integer of at most 4300 digits: {shown}$"):
            as_integer(text)


def test_as_rational_rejects_float():
    with pytest.raises(ValueError, match="^0.5 is a float, not a rational$"):
        as_rational(0.5)


@pytest.mark.parametrize("value, word", [(True, "true"), (False, "false")])
def test_as_rational_rejects_booleans(value, word):
    # JSON true/false load as bool, a subclass of int
    with pytest.raises(ValueError, match=f"^{word} is a boolean, not a rational$"):
        as_rational(value)
    assert as_rational(1) == 1 and as_rational(0) == 0


@pytest.mark.parametrize("text", ["1e-000001", "1E-4300", "2.5e4300", "-7e+12"])
def test_decimal_exponents_up_to_the_digit_limit_read_exactly(text):
    assert as_rational(text) == Fraction(text)


@pytest.mark.parametrize("text", ["1e-99999999", "1e99999999", "1E-4301", "1e+1_0000"])
def test_decimal_exponent_past_the_digit_limit_is_refused_at_once(text):
    start = time.perf_counter()
    with pytest.raises(ValueError, match=re.escape(f"decimal exponent of rational literal '{text}' exceeds 4300")):
        as_rational(text)
    assert time.perf_counter() - start < 0.1


def test_format():
    assert format_rational(Fraction(13, 16)) == "13/16"
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    assert format_rational(Fraction(0)) == "0"


def test_canonical_form():
    r = as_rational("6/8")
    assert (r.numerator, r.denominator) == (3, 4)
    assert as_rational("-2/4") == Fraction(-1, 2)
    assert as_rational("-2/4").denominator == 2  # denominator normalized positive


@given(rationals, rationals, rationals)
def test_field_axioms_sample(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


@given(rationals)
def test_render_parse_round_trip(r):
    assert as_rational(format_rational(r)) == r
