"""Tests for the hand-built 4-message scheme on the y = x*s channel.

The state source is supported on the three blocks with exactly one
zero; the channel erases exactly the position that the scheme's test
ignores, so the decoder is always right.  The interesting part is that
the tensor still satisfies all the non-signaling and stepwise
conditions once extended off the source support.
"""

import itertools
from fractions import Fraction

from nscoding.auth_scheme import tensor_success, toy_product_scheme, verify_conditions
from nscoding.channels import builtin_product_xs
from nscoding.indexing import seq_to_index

F = Fraction

SUPPORTED = [(0, 1, 1), (1, 0, 1), (1, 1, 0)]


def entry(tensor, xs, w_hat, w, ss, ys):
    """The cell Z(x^n, w-hat | w, s^n, y^n) of a tensor over binary alphabets."""
    cell = tensor.numerators[seq_to_index(xs, 2), w_hat, w, seq_to_index(ss, 2), seq_to_index(ys, 2)]
    return F(int(cell), tensor.denominator)


def test_toy_tensor_is_a_valid_scheme():
    tensor = toy_product_scheme()
    assert tensor.message_count == 4 and tensor.n == 3
    tensor.validate()


def test_toy_tensor_passes_all_conditions():
    report = verify_conditions(toy_product_scheme())
    assert report.all_pass()


def test_toy_input_marginal_is_uniform_over_messages():
    # Summing out the input block must leave 1/4 in every cell, for
    # every state block (not only the supported ones).
    tensor = toy_product_scheme()
    marginal = tensor.entries.sum(axis=0)
    assert all(v == F(1, 4) for v in marginal.flat)


def test_toy_prefix_sums_match_across_the_state_fork():
    # The two state blocks sharing the prefix (1,) lead to different
    # test patterns, yet the partial sums over the last two inputs
    # agree: 2 when the first input matches the first output, else 0.
    def pattern_sum(pattern, x1, ys):
        total = 0
        for x2, x3 in itertools.product(range(2), repeat=2):
            xs = (x1, x2, x3)
            total += all(y == x for x, y, s in zip(xs, ys, pattern) if s == 1)
        return total

    for x1 in range(2):
        for ys in itertools.product(range(2), repeat=3):
            a = pattern_sum((1, 0, 1), x1, ys)
            b = pattern_sum((1, 1, 0), x1, ys)
            assert a == b == (2 if x1 == ys[0] else 0)


def test_toy_scheme_never_misses_on_its_source():
    channel = builtin_product_xs()
    value = tensor_success(toy_product_scheme(), channel)
    assert value == 1


def test_toy_diagonal_entries_on_support():
    # On a supported block, inputs that echo the state-selected
    # positions put full weight on the sent message: 1/8 * 1.
    tensor = toy_product_scheme()
    for ss in SUPPORTED:
        xs = (0, 1, 1)
        ys = tuple(x * s for x, s in zip(xs, ss))
        value = entry(tensor, xs, 2, 2, ss, ys)
        assert value == F(1, 8)
        # and a wrong guess in the same cell carries nothing
        assert entry(tensor, xs, 1, 2, ss, ys) == 0


def test_toy_off_support_blocks_reuse_a_supported_pattern():
    # Blocks outside the source support inherit the pattern of the
    # supported block they share their decisive prefix with, keeping the
    # stepwise conditions intact; (1,1,1) behaves like (1,1,0).
    tensor = toy_product_scheme()
    si_probe = seq_to_index((1, 1, 1), 2)
    si_base = seq_to_index((1, 1, 0), 2)
    assert (tensor.entries[:, :, :, si_probe, :] == tensor.entries[:, :, :, si_base, :]).all()
