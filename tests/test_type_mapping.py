import random
from fractions import Fraction

import pytest

from nscoding.type_mapping import (
    Budgets,
    budgets,
    flag_predicate,
    map_sequence,
    map_with_budgets,
    placeholder,
)

PHI = placeholder(2)

# Worked instances with budgets (5, 3) + 2 placeholder slots at n = 10.
FIG_BUDGETS = Budgets(per_symbol=(5, 3), extra=2)


def test_worked_instance_flag_stays_up():
    got = map_with_budgets((0, 1, 0, 0, 1, 1, 1, 0, 1, 0), FIG_BUDGETS)
    assert got.output == (0, 1, 0, 0, 1, 1, PHI, 0, PHI, 0)
    assert got.flag == 1


def test_worked_instance_flag_drops():
    got = map_with_budgets((0, 1, 0, 0, 1, 1, 1, 1, 1, 0), FIG_BUDGETS)
    assert got.output == (0, 1, 0, 0, 1, 1, PHI, PHI, 0, 0)
    assert got.flag == 0


def test_budget_formula_uses_exact_floor():
    b = budgets(10, (Fraction(3, 5), Fraction(2, 5)), Fraction(1, 10))
    # 10 * 9/10 * 3/5 = 27/5 -> 5 and 10 * 9/10 * 2/5 = 18/5 -> 3
    assert b.per_symbol == (5, 3)
    assert b.extra == 2
    # a boundary that floats would get wrong: 10 * (1 - 1/3) * 3/10 = 2 exactly
    b2 = budgets(10, (Fraction(3, 10), Fraction(7, 10)), Fraction(1, 3))
    assert b2.per_symbol[0] == 2


def test_budgets_reject_bad_eps_and_dist():
    with pytest.raises(ValueError, match="eps"):
        budgets(10, (Fraction(1, 2), Fraction(1, 2)), Fraction(1))
    with pytest.raises(ValueError, match="eps"):
        budgets(10, (Fraction(1, 2), Fraction(1, 2)), Fraction(0))
    with pytest.raises(ValueError, match="distribution"):
        budgets(10, (Fraction(1, 2), Fraction(1, 3)), Fraction(1, 2))


def test_map_sequence_end_to_end():
    got = map_sequence(10, (Fraction(3, 5), Fraction(2, 5)), (0, 1, 0, 0, 1, 1, 1, 0, 1, 0), Fraction(1, 10))
    assert got.output == (0, 1, 0, 0, 1, 1, PHI, 0, PHI, 0)
    with pytest.raises(ValueError, match="length"):
        map_sequence(10, (Fraction(3, 5), Fraction(2, 5)), (0, 1), Fraction(1, 10))
    with pytest.raises(ValueError, match="^n must be >= 1, got 0$"):
        map_sequence(0, (Fraction(3, 5), Fraction(2, 5)), (), Fraction(1, 10))


def _output_counts(out, alphabet_size):
    counts = [0] * (alphabet_size + 1)
    for a in out:
        counts[a] += 1
    return counts


@pytest.mark.parametrize("alphabet_size,n", [(2, 10), (2, 50), (3, 10), (3, 50)])
def test_random_inputs_fixed_type_prefix_determinism_and_flag(alphabet_size, n):
    """The three defining properties, on a seeded random batch."""
    rng = random.Random(1234 + alphabet_size * 100 + n)
    if alphabet_size == 2:
        dist = (Fraction(3, 5), Fraction(2, 5))
    else:
        dist = (Fraction(1, 2), Fraction(3, 10), Fraction(1, 5))
    b = budgets(n, dist, Fraction(1, 7))
    expected_counts = list(b.per_symbol) + [b.extra]
    for _ in range(300):
        seq = tuple(rng.randrange(alphabet_size) for _ in range(n))
        got = map_with_budgets(seq, b)
        # fixed output composition, input-independent
        assert _output_counts(got.output, alphabet_size) == expected_counts
        # flag matches the composition criterion
        assert got.flag == int(flag_predicate(seq, b))
        # causality: mapping any prefix reproduces the output prefix
        cut = rng.randrange(n + 1)
        assert map_with_budgets(seq[:cut], b).output == got.output[:cut]


def test_flag_zero_forces_budget_fill_in_alphabet_order():
    b = Budgets(per_symbol=(2, 1), extra=1)
    got = map_with_budgets((1, 1, 1, 1), b)
    # copies one 1, placeholder, then falls back to filling 0-slots
    assert got.output == (1, PHI, 0, 0)
    assert got.flag == 0


def test_budgets_validation():
    with pytest.raises(ValueError, match="negative"):
        Budgets(per_symbol=(-1, 4), extra=1)
    with pytest.raises(ValueError, match="negative"):
        Budgets(per_symbol=(2, 1), extra=-1)
    with pytest.raises(ValueError, match="^budgets for an alphabet with no symbol$"):
        Budgets(per_symbol=(), extra=3)
    with pytest.raises(ValueError, match="^n must be >= 0, got -1$"):
        budgets(-1, (Fraction(1, 2), Fraction(1, 2)), Fraction(1, 2))


def test_budgets_read_n_and_the_alphabet_size_off_their_slots():
    assert (FIG_BUDGETS.n, FIG_BUDGETS.alphabet_size) == (10, 2)
    empty = budgets(0, (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)), Fraction(1, 2))
    assert empty == Budgets(per_symbol=(0, 0, 0), extra=0)
    assert (empty.n, empty.alphabet_size) == (0, 3)
    assert map_with_budgets((), empty).output == ()


def test_mapper_refuses_an_input_longer_than_the_block():
    with pytest.raises(ValueError, match="^input of length 11 exceeds block length n = 10$"):
        map_with_budgets((0,) * 11, FIG_BUDGETS)


def test_flag_predicate_refuses_a_sequence_of_another_length():
    with pytest.raises(ValueError, match="^expected a length-10 sequence, got length 9$"):
        flag_predicate((0,) * 9, FIG_BUDGETS)
