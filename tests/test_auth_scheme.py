"""Tests for the type-mapping-based coding scheme.

The workhorse instances: the noiseless binary identity channel with a
single state (everything about it is hand-computable) and the two-state
builtin, which at small blocks produces only vacuous tests and therefore
exercises the degenerate corners.
"""

import dataclasses
import itertools
import math
import random
import re
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nscoding import auth_scheme
from nscoding.auth_scheme import (
    MU_WORK_CAP,
    DegenerateSchemeError,
    SchemeTensor,
    SuccessDecomposition,
    build_auth_scheme,
    compute_mu,
    materialize_tensor,
    success_decomposition,
    success_probability,
    t_function,
    message_success,
    tensor_success,
    verify_conditions,
    zeta,
)
from nscoding.channels import (
    block_law_array, builtin_product_xs, builtin_z0z1, load_channel_file, make_channel,
    state_block_count, state_blocks,
)
from nscoding.indexing import index_to_seq
from nscoding.ns_lp import build_lp1, build_lp2, lp1_to_lp2, lp2_to_lp1
from nscoding.type_mapping import budgets, map_with_budgets, placeholder
from nscoding.typicality import count_window, jointly_typical
from test_channels import reference_block_outputs
from test_golden_reports import xor_block_channel, zero_probability_channel

F = Fraction
HALF = F(1, 2)
UNIFORM2 = [[HALF, HALF]]


def identity_channel():
    return make_channel(kernel=[[[1, 0], [0, 1]]], state_dist=[1])


def noise_channel():
    return make_channel(kernel=[[[HALF, HALF], [HALF, HALF]]], state_dist=[1])


# -- pass probability over a fixed output composition ------------------------


REFERENCE_ENUMERATION_CAP = 2**16  # input blocks the reference walks at most


def pass_probability(p_x, p_xy, y_type, eps):
    """`auth_scheme._pass_probability` against the windows `count_window`
    gives each pair of `p_xy` at the kept length sum(y_type), flat at
    x * |Y| + y as `AuthScheme.windows` stores them."""
    window = tuple(zip(*(count_window(sum(y_type), F(p), F(eps)) for row in p_xy for p in row)))
    return auth_scheme._pass_probability([F(p) for p in p_x], window, y_type)


def reference_pass_probability(p_x, p_xy, y_type, eps):
    """The pass probability by brute force: every input block of positive
    probability against a canonical arrangement of `y_type`, judged by
    `jointly_typical`."""
    eps, px = F(eps), [F(p) for p in p_x]
    joint = [[F(v) for v in row] for row in p_xy]
    canonical = [y for y, m in enumerate(y_type) for _ in range(m)]
    if len(px) ** len(canonical) > REFERENCE_ENUMERATION_CAP:
        raise ValueError(f"{len(px)}^{len(canonical)} input blocks exceed the enumeration cap")
    total = F(0)
    for xs in itertools.product(range(len(px)), repeat=len(canonical)):
        prob = math.prod((px[x] for x in xs), start=F(1))
        if prob and jointly_typical(xs, canonical, joint, eps):
            total += prob
    return total


def reference_joint(ch, strategy):
    """The joint laws p_xy[s][x][y] = P(x|s) * N(y|x,s) of each state."""
    return [[[F(p) * ch.prob(y, x, s) for y in range(ch.y_size)] for x, p in enumerate(row)]
            for s, row in enumerate(strategy)]


def reference_mu(ch, strategy, n, eps):
    """`compute_mu` with every per-state factor from `reference_pass_probability`,
    on the state budgets and on output budgets from each state's output law."""
    eps = F(eps)
    p_xy = reference_joint(ch, strategy)
    prob = F(1)
    for s, n_s in enumerate(budgets(n, ch.state_dist, eps).per_symbol):
        if n_s:
            y_type = budgets(n_s, [sum(col) for col in zip(*p_xy[s])], eps).per_symbol
            prob *= reference_pass_probability(strategy[s], p_xy[s], y_type, eps)
    if prob == 0:
        raise DegenerateSchemeError("no input block passes the typicality test for these parameters")
    return 1 / prob


def test_pass_probability_uniform_pairs_is_zero_both_ways():
    # With independent uniform pairs, a block of two kept positions
    # admits no pair count inside the window [1/4, 3/4]: nothing passes.
    px = [HALF, HALF]
    pxy = [[F(1, 4), F(1, 4)], [F(1, 4), F(1, 4)]]
    assert pass_probability(px, pxy, (1, 1), HALF) == 0
    assert reference_pass_probability(px, pxy, (1, 1), HALF) == 0


def test_pass_probability_identity_pairs():
    # Perfectly correlated pairs: the two kept inputs must reproduce the
    # two distinct outputs exactly, which uniform inputs do w.p. 1/4.
    px = [HALF, HALF]
    pxy = [[HALF, F(0)], [F(0), HALF]]
    assert pass_probability(px, pxy, (1, 1), HALF) == F(1, 4)
    assert reference_pass_probability(px, pxy, (1, 1), HALF) == F(1, 4)


def test_pass_probability_empty_block_is_one():
    assert pass_probability([1], [[1]], (0,), HALF) == 1


def test_pass_probability_positive_cell_in_empty_group_kills_everything():
    # Output symbol 1 gets no slots, yet pairs (x, 1) have positive
    # probability: the zero-count window is violated by every sequence.
    px = [HALF, HALF]
    pxy = [[F(1, 4), F(1, 4)], [F(1, 4), F(1, 4)]]
    assert pass_probability(px, pxy, (2, 0), HALF) == 0


# (p_x, p_xy, output composition, eps, pass probability).  Column 1 of the
# first two gets no slots: a zero column passes with count 0, a positive
# one fails every block.  Input 0 has probability 0 in the next two: beside
# a zero joint row it may not appear, beside a positive cell nothing
# passes.  In the last, the pair windows of output 0 admit no count that
# sums to its three slots, so that factor is 0 before a factor of 1/2.
PASS_PROBABILITY_CASES = [
    ([HALF, HALF], [[HALF, F(0)], [HALF, F(0)]], (3, 0), HALF, F(3, 4)),
    ([HALF, HALF], [[F(1, 4), F(1, 4)], [F(1, 4), F(1, 4)]], (2, 0), HALF, F(0)),
    ([F(0), F(1)], [[F(0), F(0)], [HALF, HALF]], (2, 2), HALF, F(1)),
    ([F(0), F(1)], [[F(1, 4), F(0)], [F(1, 4), HALF]], (2, 2), HALF, F(0)),
    ([HALF, HALF], [[F(1, 4), F(0)], [F(1, 4), HALF]], (3, 1), HALF, F(0)),
]


@pytest.mark.parametrize("p_x, p_xy, y_type, eps, expected", PASS_PROBABILITY_CASES)
def test_pass_probability_types_match_enumeration_on_empty_and_zero_corners(p_x, p_xy, y_type, eps, expected):
    assert pass_probability(p_x, p_xy, y_type, eps) == expected
    assert reference_pass_probability(p_x, p_xy, y_type, eps) == expected


# -- mu -----------------------------------------------------------------------


def test_mu_identity_channel_n8():
    # floor(8/2) = 4 states kept; output budgets (1, 1) plus two extras
    # leave a two-position test that uniform inputs pass w.p. 1/4.
    assert compute_mu(identity_channel(), UNIFORM2, 8, HALF) == 4
    assert reference_mu(identity_channel(), UNIFORM2, 8, HALF) == 4


def test_mu_vacuous_when_no_output_slots_survive():
    # Both states of the builtin keep one position each at n = 4, and a
    # single position yields zero per-output budgets: mu collapses to 1.
    ch = builtin_z0z1()
    strat = [[HALF, HALF], [HALF, HALF]]
    assert compute_mu(ch, strat, 4, HALF) == 1
    assert reference_mu(ch, strat, 4, HALF) == 1
    scheme = build_auth_scheme(ch, strat, 4, HALF)
    assert scheme.mu == 1 and scheme.message_count == 1 and scheme.acceptance == 1


@pytest.mark.parametrize("calibrate", [build_auth_scheme, compute_mu])
def test_mu_infinite_raises(calibrate):
    with pytest.raises(DegenerateSchemeError):
        calibrate(noise_channel(), UNIFORM2, 8, HALF)


@pytest.mark.parametrize("calibrate", [build_auth_scheme, compute_mu])
@pytest.mark.parametrize("letters, n, steps", [
    # at eps = 1/2 the identity channel keeps 9000 of 18000 states and tests
    # 2250 + 2250 of their outputs: 4500 * 4508 steps
    (2, 18000, 20286000),
    # 496 kept positions over 16 letters, whose DP combines each letter's
    # window with every total the letters before it can reach
    (16, 1984, 22998528),
])
def test_mu_dp_over_the_work_cap_is_refused(calibrate, letters, n, steps):
    assert MU_WORK_CAP == 20_000_000
    ch = identity_channel() if letters == 2 else make_channel([[[HALF, HALF]] * letters], [1])
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"^mu's typicality test needs {steps} steps, above the cap 20000000$"):
        calibrate(ch, [[F(1, letters)] * letters], n, HALF)
    assert time.perf_counter() - start < 1


def test_mu_of_sixteen_inputs_just_below_the_work_cap_within_a_second():
    # 480 kept positions over 16 input letters: 19,612,800 steps of the DP
    # over the input letters, which keeps one sum per total count
    ch = make_channel([[[HALF, HALF]] * 16], [1])
    start = time.perf_counter()
    scheme = build_auth_scheme(ch, [[F(1, 16)] * 16], 1920, HALF)
    assert time.perf_counter() - start < 1
    assert scheme.kept_block_lengths() == (480,) and scheme.mu > 1


def test_mu_type_counts_match_brute_force_on_random_channels():
    rng = random.Random(11)
    nontrivial = 0
    for _ in range(8):
        rows = []
        for _x in range(2):
            cuts = sorted(rng.randint(0, 4) for _ in range(2))
            rows.append([F(cuts[0], 4), F(cuts[1] - cuts[0], 4), F(4 - cuts[1], 4)])
        ch = make_channel(kernel=[rows], state_dist=[1])
        for n, eps in [(10, F(1, 3)), (9, F(1, 4))]:
            try:
                by_types = compute_mu(ch, UNIFORM2, n, eps)
            except DegenerateSchemeError:
                by_types = None
            try:
                by_brute = reference_mu(ch, UNIFORM2, n, eps)
            except DegenerateSchemeError:
                by_brute = None
            assert by_types == by_brute
            if by_types not in (None, 1):
                nontrivial += 1
    assert nontrivial >= 4  # the comparison actually bites


def random_law(rng, size, den=4):
    """A law over `size` letters with entries in multiples of 1/den."""
    cuts = sorted(rng.randint(0, den) for _ in range(size - 1))
    return [F(b - a, den) for a, b in zip([0, *cuts], [*cuts, den])]


def test_mu_matches_brute_force_on_two_state_channels_with_random_strategies():
    # mu is a product over the tested states, each against its own output
    # budget and its own strategy row: seeded channels of (|X|, |S|, |Y|) =
    # (2, 2, 2) and (2, 2, 3), kernel rows mostly point masses so that some
    # tests pass with a probability strictly between 0 and 1
    rng = random.Random(1)
    verdicts = {"degenerate": 0, "one": 0, "nontrivial": 0, "two tested states": 0}
    for y_size in [2, 3] * 24:
        kernel = [[random_law(rng, y_size, rng.choice([1, 1, 2])) for _x in range(2)] for _s in range(2)]
        k = rng.randint(1, 3)
        ch = make_channel(kernel, [F(k, 4), F(4 - k, 4)])
        strategy = [random_law(rng, 2, rng.choice([2, 3, 4])) for _s in range(2)]
        n, eps = rng.randint(6, 10), rng.choice([F(1, 4), F(1, 3), HALF])
        try:
            by_types = compute_mu(ch, strategy, n, eps)
        except DegenerateSchemeError:
            by_types = None
        try:
            by_brute = reference_mu(ch, strategy, n, eps)
        except DegenerateSchemeError:
            by_brute = None
        assert by_types == by_brute
        verdicts["degenerate" if by_types is None else "one" if by_types == 1 else "nontrivial"] += 1
        if by_types not in (None, 1) and len(build_auth_scheme(ch, strategy, n, eps).windows) == 2:
            verdicts["two tested states"] += 1
    # the comparison bites on every verdict, and on a product of two factors (17, 24, 7 and 2)
    assert min(verdicts.values()) >= 2, verdicts


def test_the_builder_derives_each_tested_window_once(monkeypatch):
    # z0z1 at n = 16, eps = 1/4 tests both states on 2 x 2 pairs: 8 windows,
    # each counted once and read by mu's DP as the scheme stores it
    calls = []

    def counting_window(n, p, eps):
        calls.append((n, p, eps))
        return count_window(n, p, eps)

    monkeypatch.setattr(auth_scheme, "count_window", counting_window)
    scheme = build_auth_scheme(builtin_z0z1(), [[HALF, HALF]] * 2, 16, F(1, 4))
    assert [s for s, _ in scheme.windows] == [0, 1]
    assert len(calls) == 8
    assert scheme.mu == F(256, 9) and scheme.message_count == 29 and scheme.acceptance == F(256, 261)
    assert scheme.n == 16 == scheme.state_budgets.n


def test_a_scheme_stores_only_what_it_cannot_derive():
    # n is the state budget's length and lambda is mu / M: read, not stored
    scheme = build_auth_scheme(identity_channel(), UNIFORM2, 8, HALF, message_count=6)
    assert "n" not in {f.name for f in dataclasses.fields(scheme)}
    assert "acceptance" not in {f.name for f in dataclasses.fields(scheme)}
    assert (scheme.n, scheme.mu, scheme.acceptance) == (8, 4, F(2, 3))


# -- scheme construction -------------------------------------------------------


def test_build_scheme_identity_n8():
    scheme = build_auth_scheme(identity_channel(), UNIFORM2, 8, HALF)
    assert scheme.mu == 4
    assert scheme.message_count == 4
    assert scheme.acceptance == 1
    assert scheme.kept_block_lengths() == (2,)
    assert scheme.message_count * scheme.acceptance == scheme.mu


@pytest.mark.parametrize("calibrate", [build_auth_scheme, compute_mu])
def test_block_source_of_another_length_is_refused(calibrate):
    with pytest.raises(ValueError, match="^block length 4 does not match block source length 3$"):
        calibrate(builtin_product_xs(), UNIFORM2 * 2, 4, HALF)


def test_message_count_override():
    scheme = build_auth_scheme(identity_channel(), UNIFORM2, 8, HALF, message_count=8)
    assert scheme.acceptance == HALF
    assert scheme.message_count * scheme.acceptance == scheme.mu
    with pytest.raises(ValueError, match="at least"):
        build_auth_scheme(identity_channel(), UNIFORM2, 8, HALF, message_count=3)
    for bad in (2.5, True, "3"):
        with pytest.raises(ValueError, match=f"^message_count must be an int, got {re.escape(repr(bad))}$"):
            build_auth_scheme(identity_channel(), UNIFORM2, 8, HALF, message_count=bad)


@pytest.mark.parametrize("n", [2.0, True, 0, -1])
def test_block_length_must_be_a_positive_int(n):
    # 2.0 used to build a scheme with n = 2.0
    why = f"must be >= 1, got {n}" if type(n) is int else f"must be an int, got {n!r}"
    with pytest.raises(ValueError, match=f"^n {re.escape(why)}$"):
        build_auth_scheme(builtin_z0z1(), [[HALF, HALF]] * 2, n, HALF)


def test_fractional_mu_rounds_message_count_up():
    # A channel that always outputs the middle symbol keeps four output
    # slots; the window then demands a balanced input block, which
    # uniform inputs produce w.p. C(4,2)/16 = 3/8: mu = 8/3, M = 3.
    rows = [[0, 1, 0], [0, 1, 0]]
    ch = make_channel(kernel=[rows], state_dist=[1])
    scheme = build_auth_scheme(ch, UNIFORM2, 10, F(1, 3))
    assert scheme.mu == F(8, 3)
    assert scheme.message_count == 3
    assert scheme.acceptance == F(8, 9)


def test_bad_strategy_rejected():
    with pytest.raises(ValueError, match="strategy row"):
        build_auth_scheme(identity_channel(), [[HALF, F(1, 4)]], 8, HALF)
    with pytest.raises(ValueError, match="strategy rows"):
        build_auth_scheme(identity_channel(), UNIFORM2 * 2, 8, HALF)


@pytest.mark.parametrize("strategy, eps, message", [
    # the strategy rows and eps are checked before any window or mu is counted
    ([[F(1)]], HALF, "strategy row 0 has 1 entries for 2 inputs"),
    ([[F(1), F(1)]], HALF, "strategy row 0 is not a probability distribution: it sums to 2"),
    ([[F(3, 2), -HALF]], HALF, "strategy row 0 is not a probability distribution: 3/2 is outside [0, 1]"),
    (UNIFORM2, 1, "eps must be in (0, 1), got 1"),
    (UNIFORM2, 0, "eps must be in (0, 1), got 0"),
])
def test_the_builder_refuses_a_bad_eps_or_strategy_row_before_counting_mu(strategy, eps, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build_auth_scheme(identity_channel(), strategy, 8, eps)


# -- per-position encoder weight ----------------------------------------------


def test_zeta_kept_vs_placeholder_positions():
    # Non-uniform inputs make the two branches distinguishable: with
    # eps = 2/3 the state budget keeps floor(8/3) = 2 of 8 positions,
    # so the third state onward overflows into placeholders.
    scheme = build_auth_scheme(identity_channel(), [[F(1, 4), F(3, 4)]], 8, F(2, 3))
    assert scheme.state_budgets.per_symbol == (2,)
    assert zeta(scheme, 1, 1, (0,)) == F(3, 4)
    assert zeta(scheme, 2, 0, (0, 0)) == F(1, 4)
    assert zeta(scheme, 3, 1, (0,) * 3) == HALF  # placeholder: uniform
    assert zeta(scheme, 8, 0, (0,) * 8) == HALF


def test_zeta_validates_prefix():
    scheme = build_auth_scheme(identity_channel(), UNIFORM2, 8, HALF)
    with pytest.raises(ValueError, match="position"):
        zeta(scheme, 0, 0, ())
    with pytest.raises(ValueError, match="prefix"):
        zeta(scheme, 2, 0, (0,))
    with pytest.raises(ValueError, match="^input symbol 2 out of range$"):
        zeta(scheme, 1, 2, (0,))


@given(st.lists(st.integers(0, 1), min_size=1, max_size=8))
def test_zeta_rows_normalized(prefix):
    scheme = build_auth_scheme(
        builtin_z0z1(), [[F(1, 4), F(3, 4)], [F(3, 4), F(1, 4)]], 8, HALF
    )
    i = len(prefix)
    assert zeta(scheme, i, 0, prefix) + zeta(scheme, i, 1, prefix) == 1


# -- acceptance weight ---------------------------------------------------------


def test_t_function_accepts_matching_blocks():
    scheme = build_auth_scheme(identity_channel(), UNIFORM2, 8, HALF, message_count=8)
    xs = (0, 1, 0, 1, 0, 0, 0, 0)
    assert t_function(scheme, xs, xs, (0,) * 8) == scheme.acceptance == HALF


def test_t_function_rejects_monotone_output_block():
    # All-equal outputs on the kept block leave the budget of the other
    # symbol unfilled; the fallback fill mismatches and typicality fails.
    scheme = build_auth_scheme(identity_channel(), UNIFORM2, 8, HALF)
    xs = (0,) * 8
    assert t_function(scheme, xs, xs, (0,) * 8) == 0


def test_t_function_rejects_out_of_range_inputs():
    # Pair counts are indexed by x * |Y| + y: an input outside the
    # alphabet must be refused, not counted as another pair.
    scheme = build_auth_scheme(identity_channel(), UNIFORM2, 8, HALF)
    for bad in (2, -1):
        with pytest.raises(ValueError, match="x-sequence"):
            t_function(scheme, (bad,) + (0,) * 7, (0, 1) + (0,) * 6, (0,) * 8)


def test_t_function_refuses_a_block_of_another_length():
    scheme = build_auth_scheme(identity_channel(), UNIFORM2, 8, HALF)
    with pytest.raises(ValueError, match="^s-sequence has length 7, expected 8$"):
        t_function(scheme, (0,) * 8, (0,) * 8, (0,) * 7)


def test_t_function_rejects_out_of_range_outputs():
    # Position 4 is a placeholder state there, so its output is never
    # mapped; position 1 is a tested sigma position.
    scheme = build_auth_scheme(builtin_z0z1(), [[HALF, HALF]] * 2, 4, HALF)
    for ys in ((0, 0, 0, 7), (7, 0, 0, 0), (0, 0, -1, 0)):
        with pytest.raises(ValueError, match=re.escape(f"y-sequence {ys} has a symbol outside 0..1")):
            t_function(scheme, (0, 0, 0, 0), ys, (0, 1, 0, 1))


def test_t_function_vacuous_scheme_accepts_everything():
    ch = builtin_z0z1()
    scheme = build_auth_scheme(ch, [[HALF, HALF]] * 2, 4, HALF, message_count=2)
    for xs in itertools.product(range(2), repeat=4):
        assert t_function(scheme, xs, (1, 0, 1, 0), (0, 1, 1, 0)) == HALF


def test_t_function_against_direct_reimplementation():
    # Independent restatement of the whole test pipeline for the
    # single-state channel: keep the first four positions, map their
    # outputs onto composition (1, 1) + 2 placeholders, and demand the
    # kept (input, output) pairs match one-for-one.
    scheme = build_auth_scheme(identity_channel(), UNIFORM2, 8, HALF)

    def oracle(xs, ys):
        kept_y = []
        kept_x = []
        seen = {0: 0, 1: 0}
        extras = 0
        for i in range(4):
            y = ys[i]
            if seen[y] < 1:
                seen[y] += 1
                kept_y.append(y)
                kept_x.append(xs[i])
            elif extras < 2:
                extras += 1
            else:  # forced fill with the other symbol
                other = 1 - y
                seen[other] += 1
                kept_y.append(other)
                kept_x.append(xs[i])
        counts = {}
        for pair in zip(kept_x, kept_y):
            counts[pair] = counts.get(pair, 0) + 1
        return counts.get((0, 0), 0) == 1 and counts.get((1, 1), 0) == 1 and len(kept_y) == 2

    rng = random.Random(5)
    ss = (0,) * 8
    for _ in range(300):
        xs = tuple(rng.randint(0, 1) for _ in range(8))
        ys = tuple(rng.randint(0, 1) for _ in range(8))
        expected = scheme.acceptance if oracle(xs, ys) else 0
        assert t_function(scheme, xs, ys, ss) == expected


# -- dense tensor ----------------------------------------------------------------


def test_materialized_tensor_is_normalized_with_uniform_guess_marginal():
    ch = builtin_z0z1()
    scheme = build_auth_scheme(ch, [[HALF, HALF]] * 2, 2, HALF, message_count=2)
    tensor = materialize_tensor(scheme)
    tensor.validate()
    marginals = tensor.message_marginals()
    assert all(v == HALF for v in marginals.flat)


def test_materialized_tensor_passes_all_conditions():
    ch = builtin_z0z1()
    scheme = build_auth_scheme(ch, [[HALF, HALF]] * 2, 2, HALF, message_count=2)
    report = verify_conditions(materialize_tensor(scheme))
    assert report.all_pass()
    assert report.c1 == report.c2 == report.c3 == []


def test_single_message_tensor_is_input_weight_only():
    scheme = build_auth_scheme(identity_channel(), UNIFORM2, 4, HALF)
    tensor = materialize_tensor(scheme)
    tensor.validate()
    assert tensor.message_count == 1
    assert verify_conditions(tensor).all_pass()
    assert all(v == F(1, 16) for v in tensor.entries.flat)  # all placeholders: uniform


def test_tensor_cap_enforced(monkeypatch):
    scheme = build_auth_scheme(identity_channel(), UNIFORM2, 8, HALF)
    # 4 cells (x, s, y) per position: 4^8 * 4^2 entries at M = 4
    assert scheme.message_count == 4
    monkeypatch.setattr(auth_scheme, "TENSOR_ENTRY_CAP", 100)
    message = "the scheme tensor (M=4, n=8) needs 1048576 entries, above the cap 100"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        materialize_tensor(scheme)
    monkeypatch.setattr(auth_scheme, "TENSOR_ENTRY_CAP", 1048576)
    assert materialize_tensor(scheme).numerators.size == 1048576


def routed_tensor():
    # x_1 deterministically copies s_2: a non-causal strategy.  Block
    # marginals stay uniform, so only the stepwise condition can see it.
    entries = np.full((4, 2, 2, 4, 4), F(0), dtype=object)
    for xi in range(4):
        for si in range(4):
            if xi >> 1 != si & 1:
                continue
            for wh in range(2):
                for w in range(2):
                    for yi in range(4):
                        entries[xi, wh, w, si, yi] = F(1, 4)
    return SchemeTensor.from_entries(message_count=2, n=2, x_size=2, s_size=2, y_size=2, entries=entries)


def test_state_routing_trips_only_the_stepwise_condition():
    tensor = routed_tensor()
    tensor.validate()
    report = verify_conditions(tensor)
    assert report.c1 == []
    assert report.c2 == []
    assert report.c3 != []
    assert not report.all_pass()


def test_fully_uniform_tensor_passes_everything():
    entries = np.full((4, 2, 2, 4, 4), F(1, 8), dtype=object)
    tensor = SchemeTensor.from_entries(message_count=2, n=2, x_size=2, s_size=2, y_size=2, entries=entries)
    tensor.validate()
    assert verify_conditions(tensor).all_pass()


def test_tensor_validation_catches_bad_tables():
    entries = np.full((4, 2, 2, 4, 4), F(1, 8), dtype=object)
    entries[0, 0, 0, 0, 0] = F(-1, 8)
    bad = SchemeTensor.from_entries(message_count=2, n=2, x_size=2, s_size=2, y_size=2, entries=entries)
    with pytest.raises(ValueError, match="negative"):
        bad.validate()
    entries = np.full((4, 2, 2, 4, 4), F(1, 4), dtype=object)
    bad = SchemeTensor.from_entries(message_count=2, n=2, x_size=2, s_size=2, y_size=2, entries=entries)
    with pytest.raises(ValueError, match="sum"):
        bad.validate()


@pytest.mark.parametrize("shape, denominator, message", [
    ((1, 1, 1, 1, 2), 1, "entry shape (1, 1, 1, 1, 2) does not match (1, 1, 1, 1, 1)"),
    ((1, 1, 1, 1, 1), 0, "denominator 0 is not positive"),
])
def test_tensor_validation_refuses_a_bad_shape_or_denominator(shape, denominator, message):
    bad = SchemeTensor(1, 1, 1, 1, 1, np.zeros(shape, dtype=np.int64), denominator)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        bad.validate()


# -- cell-by-cell reference for the array forms -----------------------------------


def reference_tensor(scheme):
    """Z one cell at a time from the public zeta and t_function:
    zeta * t on the diagonal, zeta * (1 - t) / (M - 1) off it."""
    ch, n, m = scheme.channel, scheme.n, scheme.message_count
    xs_all, ss_all, ys_all = (
        list(itertools.product(range(size), repeat=n))
        for size in (ch.x_size, ch.s_size, ch.y_size)
    )
    entries = np.empty((len(xs_all), m, m, len(ss_all), len(ys_all)), dtype=object)
    for si, ss in enumerate(ss_all):
        for xi, xs in enumerate(xs_all):
            weight = F(1)
            for i in range(1, n + 1):
                weight *= zeta(scheme, i, xs[i - 1], ss[:i])
            for yi, ys in enumerate(ys_all):
                t = t_function(scheme, xs, ys, ss)
                miss = (1 - t) / (m - 1)
                for w in range(m):
                    for wh in range(m):
                        entries[xi, wh, w, si, yi] = weight * (t if wh == w else miss)
    return entries


def reference_conditions(tensor):
    """The condition checks as nested loops over every cell, each cell named
    as its causal full-program row and listed in row order, with the
    combined family that `verify_conditions` leaves out because c1 and c3
    imply it."""
    z = tensor.entries
    nx, m, _, ns, ny = z.shape
    n, xk, sk = tensor.n, tensor.x_size, tensor.s_size
    c1, c2, c3, combined = [], [], [], []

    guess = z.sum(axis=1)  # (x, w, s, y)
    for xi in range(nx):
        for w in range(m):
            for si in range(ns):
                ref = guess[xi, w, si, 0]
                for yi in range(1, ny):
                    if guess[xi, w, si, yi] != ref:
                        c1.append(f"c1[x={xi},w={w},s={si},y={yi}]")

    inputs = z.sum(axis=0)  # (wh, w, s, y)
    for wh in range(m):
        for w in range(m):
            for si in range(ns):
                for yi in range(ny):
                    if inputs[wh, w, si, yi] != inputs[wh, 0, 0, yi]:
                        c2.append(f"c2[wh={wh},w={w},s={si},y={yi}]")

    for i in range(1, n):
        head_x, tail_x = xk**i, xk ** (n - i)
        head_s, tail_s = sk**i, sk ** (n - i)
        g = z.reshape(head_x, tail_x, m, m, head_s, tail_s, ny).sum(axis=1)
        for hx in range(head_x):
            for wh in range(m):
                for w in range(m):
                    for hs in range(head_s):
                        for ts in range(tail_s):
                            for yi in range(ny):
                                if g[hx, wh, w, hs, ts, yi] != g[hx, wh, w, hs, 0, yi]:
                                    c3.append(f"c3[i={i},px={hx},wh={wh},w={w},s={hs * tail_s + ts},y={yi}]")
        h = g.sum(axis=1)  # (head_x, w, head_s, tail_s, y)
        for hx in range(head_x):
            for w in range(m):
                for hs in range(head_s):
                    ref = h[hx, w, hs, 0, 0]
                    for ts in range(tail_s):
                        for yi in range(ny):
                            if h[hx, w, hs, ts, yi] != ref:
                                combined.append(
                                    f"combined[i={i},x^i={hx},w={w},s^i={hs},"
                                    f"tail={ts},y={yi}]"
                                )
    return c1, c2, c3, combined


def assert_conditions_match_the_reference(tensor):
    """`verify_conditions` lists the reference's c1, c2 and c3 cells, and
    the reference's combined cells never come without a c1 or c3 cell."""
    c1, c2, c3, combined = reference_conditions(tensor)
    report = verify_conditions(tensor)
    assert (report.c1, report.c2, report.c3) == (c1, c2, c3)
    assert not combined or c1 or c3
    return report, combined


def reference_validate_message(tensor):
    """The first validation failure found cell by cell, or None."""
    if any(v < 0 for v in tensor.entries.flat):
        return "negative tensor entry"
    sums = tensor.entries.sum(axis=(0, 1))
    for w, si, yi in itertools.product(*map(range, sums.shape)):
        if sums[w, si, yi] != 1:
            return f"entries for (w={w}, s_index={si}, y_index={yi}) sum to {sums[w, si, yi]}, not 1"
    return None


def validate_message(tensor):
    try:
        tensor.validate()
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize(
    "ch, strategy, n, m",
    [(builtin_z0z1(), [[HALF, HALF]] * 2, 2, 2), (identity_channel(), UNIFORM2, 4, 4)],
    ids=["z0z1-n2", "identity-n4"],
)
def test_materialized_entries_match_the_cell_rule(ch, strategy, n, m):
    scheme = build_auth_scheme(ch, strategy, n, HALF, message_count=m)
    entries = materialize_tensor(scheme).entries
    expected = reference_tensor(scheme)
    assert entries.shape == expected.shape
    assert entries.tolist() == expected.tolist()


def test_condition_labels_and_messages_match_the_cell_loops():
    scheme = build_auth_scheme(builtin_z0z1(), [[HALF, HALF]] * 2, 3, HALF, message_count=2)
    base = materialize_tensor(scheme)
    cases = [routed_tensor()]
    for seed in range(50):
        rng = random.Random(seed)
        entries = base.entries.copy()
        for _ in range(rng.randint(1, 4)):
            cell = tuple(rng.randrange(d) for d in entries.shape)
            entries[cell] += F(rng.randint(-2, 2), rng.randint(1, 8))
        if seed % 3 == 0:  # move mass between guesses: normalization survives
            xi, w, si, yi = (rng.randrange(entries.shape[k]) for k in (0, 2, 3, 4))
            entries[xi, 0, w, si, yi] += F(1, 64)
            entries[xi, 1, w, si, yi] -= F(1, 64)
        cases.append(SchemeTensor.from_entries(2, 3, 2, 2, 2, entries))

    for tensor in cases:
        assert_conditions_match_the_reference(tensor)
        assert validate_message(tensor) == reference_validate_message(tensor)
    assert sum(len(labels) for t in cases for labels in reference_conditions(t)) > 1000
    messages = [validate_message(t) for t in cases]
    assert None in messages and "negative tensor entry" in messages
    assert any(m and m.endswith("not 1") for m in messages)


def test_object_numerators_check_like_the_cell_loops():
    # A perturbation over a denominator near 2^62 pushes the common
    # denominator past what int64 cells can sum: Python ints take over.
    scheme = build_auth_scheme(builtin_z0z1(), [[HALF, HALF]] * 2, 3, HALF, message_count=2)
    base = materialize_tensor(scheme)
    assert base.numerators.dtype == np.int64
    base = base.entries
    tiny = F(1, 2**62 - 57)
    cases = []
    for seed in range(6):
        rng = random.Random(seed)
        entries = base.copy()
        xi, w, si, yi = (rng.randrange(entries.shape[k]) for k in (0, 2, 3, 4))
        entries[xi, 0, w, si, yi] += tiny  # moved between guesses: sums survive
        entries[xi, 1, w, si, yi] -= tiny
        if seed % 2:
            cell = tuple(rng.randrange(d) for d in entries.shape)
            entries[cell] += tiny * rng.randint(-3, 3)
        cases.append(SchemeTensor.from_entries(2, 3, 2, 2, 2, entries))
    assert all(t.numerators.dtype == object for t in cases)
    for tensor in cases:
        assert_conditions_match_the_reference(tensor)
        assert validate_message(tensor) == reference_validate_message(tensor)
    assert any(validate_message(t) is None for t in cases)
    assert any(not verify_conditions(t).all_pass() for t in cases)


# -- scheme tensors as points of the full program --------------------------------


def lp1_point(lp, tensor):
    """The tensor's entries named as the full program's variables z[x,wh,w,s,y]."""
    return dict(zip(lp.var_names, tensor.entries.flat))


def assert_lift_of_its_reduced_point(ch, tensor, point, value):
    """The tensor's point maps to a point of the causal reduced program with
    the same value, whose lift is exactly the tensor's nonzero entries."""
    m, n = tensor.message_count, tensor.n
    reduced = lp1_to_lp2(ch, m, n, point)
    lp2 = build_lp2(ch, m, n, causal=True)
    assert lp2.violated_rows(reduced) == []
    assert lp2.objective_value(reduced) == value
    assert lp2_to_lp1(ch, m, n, reduced) == {name: v for name, v in point.items() if v}


@pytest.mark.parametrize(
    "ch, strategy, n, eps, m, expected",
    [
        (builtin_z0z1(), [[HALF, HALF]] * 2, 2, HALF, 2, (2, HALF)),
        (builtin_z0z1(), [[HALF, HALF]] * 2, 3, HALF, 2, (2, HALF)),
        (identity_channel(), UNIFORM2, 4, F(1, 4), None, (4, F(3, 4))),
        (identity_channel(), UNIFORM2, 4, F(1, 4), 5, (5, F(3, 5))),  # lambda = 4/5
    ],
    ids=["z0z1-n2", "z0z1-n3", "identity-n4", "identity-n4-m5"],
)
def test_scheme_tensor_is_a_point_of_the_causal_full_program(ch, strategy, n, eps, m, expected):
    scheme = build_auth_scheme(ch, strategy, n, eps, message_count=m)
    tensor = materialize_tensor(scheme)
    lp = build_lp1(ch, tensor.message_count, n, causal=True)
    point = lp1_point(lp, tensor)
    assert lp.violated_rows(point) == []
    value = lp.objective_value(point)
    assert value == success_decomposition(scheme).success == tensor_success(tensor, ch)
    assert (tensor.message_count, value) == expected
    assert_lift_of_its_reduced_point(ch, tensor, point, value)


def test_toy_tensor_is_a_point_of_the_causal_full_program():
    ch, tensor = builtin_product_xs(), auth_scheme.toy_product_scheme()
    lp = build_lp1(ch, tensor.message_count, tensor.n, causal=True)
    point = lp1_point(lp, tensor)
    assert lp.violated_rows(point) == []
    assert lp.objective_value(point) == tensor_success(tensor, ch) == 1
    assert_lift_of_its_reduced_point(ch, tensor, point, 1)


def test_mutated_tensors_fail_the_same_cells_in_the_program_and_the_checks():
    # Mass moved between inputs or between guesses within one (wh, w, s, y)
    # keeps every normalization sum but may go negative.
    ch, n = builtin_z0z1(), 3
    base = materialize_tensor(build_auth_scheme(ch, [[HALF, HALF]] * 2, n, HALF, message_count=2)).entries
    lp = build_lp1(ch, 2, n, causal=True)
    seen = dict.fromkeys(("c1", "c2", "c3", "combined", "invalid", "pass"), 0)
    for seed in range(100):
        rng = random.Random(seed)
        entries = base.copy()
        for _ in range(rng.randint(1, 3)):
            cell = [rng.randrange(d) for d in entries.shape]
            other = list(cell)
            axis = rng.choice((0, 1))
            other[axis] = rng.randrange(entries.shape[axis])
            mass = F(rng.randint(1, 6), 64)  # the entries are all 1/16
            entries[tuple(cell)] += mass
            entries[tuple(other)] -= mass
        tensor = SchemeTensor.from_entries(2, n, 2, 2, 2, entries)
        violated = lp.violated_rows(lp1_point(lp, tensor))
        report, combined = assert_conditions_match_the_reference(tensor)
        for family in ("c1", "c2", "c3"):
            assert getattr(report, family) == [v for v in violated if v.startswith(family + "[")]
        invalid = any(v.startswith(("norm[", "nonneg(")) for v in violated)
        assert invalid == (validate_message(tensor) is not None)
        for family in ("c1", "c2", "c3"):
            seen[family] += bool(getattr(report, family))
        seen["combined"] += bool(combined)
        seen["invalid"] += invalid
        seen["pass"] += not violated
    assert all(seen.values()), seen


# -- acceptance table against the per-sequence test --------------------------------


def reference_accepts(scheme, xs, ss, ys):
    """The test for one block triple, straight from the definitions: map
    the states, map each sigma-block of outputs, and ask `jointly_typical`
    about the kept (input, output) pairs."""
    phi_y = placeholder(scheme.channel.y_size)
    p_xy = reference_joint(scheme.channel, scheme.strategy)
    mapped_states = map_with_budgets(ss, scheme.state_budgets).output
    for s, b in enumerate(scheme.y_budgets):
        block = [i for i, v in enumerate(mapped_states) if v == s]
        outputs = map_with_budgets([ys[i] for i in block], b).output
        kept = [(xs[i], y) for i, y in zip(block, outputs) if y != phi_y]
        kept_x, kept_y = [x for x, _ in kept], [y for _, y in kept]
        if not jointly_typical(kept_x, kept_y, p_xy[s], scheme.eps):
            return False
    return True


def random_two_state_cases(count, eps=F(1, 8)):
    """Scheme inputs at n = 3 and 4 on random binary two-state channels,
    drawn until `count` channels give a nondegenerate scheme at both
    lengths and a nonempty test at one of them at least."""
    rng = random.Random(2)

    def dist(den):
        cut = rng.randint(0, den)
        return [F(cut, den), F(den - cut, den)]

    cases = []
    for _ in range(200):
        ch = make_channel([[dist(4) for _ in range(2)] for _ in range(2)], dist(4))
        strategy = [dist(2) for _ in range(2)]
        try:
            pair = [build_auth_scheme(ch, strategy, n, eps) for n in (3, 4)]
        except DegenerateSchemeError:
            continue
        if any(any(s.kept_block_lengths()) for s in pair):
            k = len(cases) // 2
            cases += [(f"random{k}-n{n}", ch, strategy, n, eps, None) for n in (3, 4)]
        if len(cases) == 2 * count:
            return cases
    raise AssertionError(f"fewer than {count} usable random channels in 200 draws")


# (label, channel, strategy, n, eps, message count).  z0z1 keeps one
# position per state at n <= 3, which leaves every test empty: those two
# cases pin the all-pass corner.  The one-output channel tests only the
# input composition of a kept block of four, with the window [1, 1] from
# bounds 2/3 and 4/3 for input 0 and [2, 4] for input 1.
ACCEPTANCE_CASES = [
    (f"z0z1-n{n}", builtin_z0z1(), [[F(1, 4), F(3, 4)], [HALF, HALF]], n, F(1, 4), 2) for n in (2, 3)
] + [
    (f"identity-n{n}", identity_channel(), UNIFORM2, n, F(1, 4), 4) for n in (4, 5)
] + random_two_state_cases(6) + [
    ("one-output-n10", make_channel(kernel=[[[1], [1]]], state_dist=[1]), [[F(1, 4), F(3, 4)]],
     10, F(1, 3), None),
]


@pytest.mark.parametrize(
    "ch, strategy, n, eps, m", [case[1:] for case in ACCEPTANCE_CASES],
    ids=[case[0] for case in ACCEPTANCE_CASES],
)
def test_acceptance_table_matches_the_per_sequence_test(ch, strategy, n, eps, m):
    scheme = build_auth_scheme(ch, strategy, n, eps, message_count=m)
    table = auth_scheme._acceptance_table(scheme, auth_scheme._mapped_states(scheme))
    expected = np.array([
        [[reference_accepts(scheme, xs, ss, ys) for ys in itertools.product(range(ch.y_size), repeat=n)]
         for ss in itertools.product(range(ch.s_size), repeat=n)]
        for xs in itertools.product(range(ch.x_size), repeat=n)
    ])
    assert table.shape == expected.shape
    assert (table == expected).all()


# The constant-output channel tests only the input composition of a kept
# block of seven positions, over 2^7 input sub-blocks per output sub-block.
SUB_TABLE_CASES = ACCEPTANCE_CASES + [
    (f"constant-output-n{n}", make_channel([[[1, 0], [1, 0]]], [1]), UNIFORM2, n, eps, 4)
    for n, eps in ((9, F(1, 8)), (10, F(1, 4)))
]


@pytest.mark.parametrize(
    "ch, strategy, n, eps, m", [case[1:] for case in SUB_TABLE_CASES],
    ids=[case[0] for case in SUB_TABLE_CASES],
)
def test_sub_tables_match_the_block_test(ch, strategy, n, eps, m):
    scheme = build_auth_scheme(ch, strategy, n, eps, message_count=m)
    tables = auth_scheme._sub_tables(scheme)
    windows = dict(scheme.windows)
    assert tables.keys() == windows.keys()
    for s, table in tables.items():
        length = scheme.state_budgets.per_symbol[s]
        block = (s, windows[s], range(length))
        expected = np.array([
            [auth_scheme._block_test(scheme, block, xs, ys)[0]
             for ys in itertools.product(range(ch.y_size), repeat=length)]
            for xs in itertools.product(range(ch.x_size), repeat=length)
        ])
        assert table.shape == expected.shape
        assert (table == expected).all()


def test_constant_output_sub_tables_bite():
    ch, n, eps = make_channel([[[1, 0], [1, 0]]], [1]), 9, F(1, 8)
    table = auth_scheme._sub_tables(build_auth_scheme(ch, UNIFORM2, n, eps, message_count=4))[0]
    assert table.any() and not table.all()


def test_acceptance_comparisons_bite():
    tables = [
        auth_scheme._acceptance_table(scheme, auth_scheme._mapped_states(scheme))
        for scheme in (build_auth_scheme(*case[1:5], message_count=case[5]) for case in ACCEPTANCE_CASES)
    ]
    assert sum(t.any() and not t.all() for t in tables) >= 11


# -- success probability ----------------------------------------------------------


def test_blind_guessing_succeeds_one_in_m():
    entries = np.full((4, 2, 2, 4, 4), F(1, 8), dtype=object)
    tensor = SchemeTensor.from_entries(message_count=2, n=2, x_size=2, s_size=2, y_size=2, entries=entries)
    assert tensor_success(tensor, builtin_z0z1()) == HALF


def test_message_success_is_kept_per_message():
    # a decoder that always guesses message 0 is right on message 0 only
    entries = np.zeros((4, 2, 2, 4, 4), dtype=object)
    entries[:, 0] = F(1, 4)
    tensor = SchemeTensor.from_entries(message_count=2, n=2, x_size=2, s_size=2, y_size=2, entries=entries)
    assert message_success(tensor, builtin_z0z1()) == (1, 0)
    assert tensor_success(tensor, builtin_z0z1()) == HALF
    # the toy scheme never errs on its own source, whichever message is sent
    assert message_success(auth_scheme.toy_product_scheme(), builtin_product_xs()) == (1,) * 4


def test_scheme_and_tensor_paths_agree():
    scheme = build_auth_scheme(identity_channel(), UNIFORM2, 4, HALF, message_count=4)
    direct = success_probability(scheme)
    via_tensor = tensor_success(materialize_tensor(scheme), scheme.channel)
    assert direct == via_tensor == F(1, 4)


def test_tensor_success_sums_products_past_int64():
    # z0z1 with the noisy input's flip at 1/2 + 1/262139: the law (57 bits)
    # and the tensor are int64, but law * diagonal products pass 2^63
    a = HALF + F(1, 262139)
    ch = make_channel([[[1, 0], [a, 1 - a]], [[1 - a, a], [0, 1]]], [HALF, HALF])
    scheme = build_auth_scheme(ch, [[F(7, 31), F(24, 31)], [F(15, 31), F(16, 31)]], 3, F(1, 4), message_count=2)
    tensor = materialize_tensor(scheme)
    law, _ = block_law_array(ch, 3)
    diagonal = np.trace(tensor.numerators, axis1=1, axis2=2)
    assert law.dtype == tensor.numerators.dtype == np.int64
    assert int(law.max()) * int(diagonal.max()) >= 2**63
    assert tensor_success(tensor, ch) == success_decomposition(scheme).success == HALF


@pytest.mark.parametrize(
    "ch, strategy, n, eps, m", [case[1:] for case in ACCEPTANCE_CASES],
    ids=[case[0] for case in ACCEPTANCE_CASES],
)
def test_exact_walk_and_tensor_sum_agree(ch, strategy, n, eps, m):
    scheme = build_auth_scheme(ch, strategy, n, eps, message_count=m)
    via_tensor = tensor_success(materialize_tensor(scheme), scheme.channel)
    assert success_probability(scheme) == via_tensor


@pytest.mark.parametrize("kernel, states", [
    ([[[1, 0], [0, 1]]], [1]),
    ([[[1, 0, 0], [0, 1, 0]], [[0, 0, 1], [0, 1, 0]]], [HALF, HALF]),
])
def test_tensor_on_channel_with_other_alphabets_is_refused(kernel, states):
    ch = make_channel(kernel, states)
    sizes = f"({ch.x_size}, {ch.s_size}, {ch.y_size})"
    with pytest.raises(ValueError, match=re.escape(f"(2, 2, 2) do not match the channel's {sizes}")):
        tensor_success(auth_scheme.toy_product_scheme(), ch)


def test_identity_family_success_values_and_monotonicity():
    values = []
    for n in (4, 8, 12):
        scheme = build_auth_scheme(identity_channel(), UNIFORM2, n, HALF, message_count=4)
        values.append(success_probability(scheme))
    assert values == [F(1, 4), F(7, 8), F(31, 32)]
    assert values[0] < values[1] < values[2]


def test_monte_carlo_matches_exact_within_ci():
    scheme = build_auth_scheme(identity_channel(), UNIFORM2, 8, HALF, message_count=4)
    exact = success_probability(scheme)
    estimate, (lo, hi) = success_probability(scheme, mode="monte_carlo", samples=20_000, seed=3)
    assert exact == F(7, 8)
    assert lo <= float(exact) <= hi
    assert 0 <= lo <= estimate <= hi <= 1


def test_monte_carlo_of_degenerate_message_count_one():
    scheme = build_auth_scheme(builtin_z0z1(), [[HALF, HALF]] * 2, 4, HALF)
    assert success_probability(scheme) == 1
    estimate, _ = success_probability(scheme, mode="monte_carlo", samples=100, seed=0)
    assert estimate == 1.0


# The Monte Carlo sampler as it was before its draws moved to `bisect` on
# tables built once: one `random.choices` call per drawn letter, and the
# test run on every sample.  The current sampler must report the same,
# draw for draw.


class CountingRandom(random.Random):
    """`random.Random` that counts the floats it has handed out."""

    drawn = 0

    def random(self):
        self.drawn += 1
        return super().random()


def reference_monte_carlo(scheme, samples, seed, coins=None, y_maps=None):
    """The reference estimate; `coins`, if given, collects the offset in the
    stream of every lambda coin, and `y_maps` the output mapper's run on
    every tested sigma-block."""
    ch, n = scheme.channel, scheme.n

    def cumulative(probs):
        return list(itertools.accumulate(float(p) for p in probs))

    rng = CountingRandom(seed)
    source = ch.block_state
    if source is None:
        state_cum = cumulative(ch.state_dist)
    else:
        atoms = [ss for ss, _ in source.atoms]
        state_cum = cumulative(p for _, p in source.atoms)
    input_cum = [cumulative(row) for row in scheme.strategy] + [cumulative([1] * ch.x_size)]
    output_cum = [[cumulative(row) for row in state_slice] for state_slice in ch.kernel]
    x_range, y_range = range(ch.x_size), range(ch.y_size)
    lam = float(scheme.acceptance)
    windows = scheme.windows
    wins = 0
    for _ in range(samples):
        if source is None:
            ss = rng.choices(range(ch.s_size), cum_weights=state_cum, k=n)
        else:
            ss = rng.choices(atoms, cum_weights=state_cum)[0]
        mapped_states = map_with_budgets(ss, scheme.state_budgets).output
        xs = [rng.choices(x_range, cum_weights=input_cum[ms])[0] for ms in mapped_states]
        ys = [rng.choices(y_range, cum_weights=output_cum[s][x])[0] for x, s in zip(xs, ss)]
        blocks = auth_scheme._sigma_blocks(windows, mapped_states)
        if y_maps is not None:
            y_maps += [map_with_budgets([ys[i] for i in positions], scheme.y_budgets[s])
                       for s, _window, positions in blocks]
        wins += scheme.message_count == 1 or (
            all(auth_scheme._block_test(scheme, block, xs, ys)[0] for block in blocks)
            and (coins is None or coins.append(rng.drawn) is None)
            and rng.random() < lam
        )
    p_hat = wins / samples
    half = 1.96 * math.sqrt(max(p_hat * (1 - p_hat), 0.0) / samples)
    return p_hat, (max(p_hat - half, 0.0), min(p_hat + half, 1.0))


def with_two_messages_at_least(label, ch, strategy, n, eps, m):
    """The case with its message count raised to 2 when it would be 1, so
    that the sampler runs the test and the lambda coin."""
    if m is None:
        m = max(2, build_auth_scheme(ch, strategy, n, eps).message_count)
    return label, ch, strategy, n, eps, m


# (label, channel, strategy, n, eps, message count)
MONTE_CARLO_CASES = [with_two_messages_at_least(*case) for case in ACCEPTANCE_CASES] + [
    ("product-xs-block-source", builtin_product_xs(), [[HALF, HALF]] * 2, 3, HALF, 2),
    ("z0z1-n4-one-message", builtin_z0z1(), [[HALF, HALF]] * 2, 4, HALF, None),
    ("zero-probability-n16", zero_probability_channel(), [[1, 0], [HALF, HALF], [F(1, 4), F(3, 4)]],
     16, F(1, 3), 4),
    # 3000 samples read 22 chunks of floats
    ("identity-and-flip-n10-chunks", make_channel([[[1, 0], [0, 1]], [[0, 1], [1, 0]]], [HALF, HALF]),
     [[HALF, HALF]] * 2, 10, F(1, 4), None),
    # six positions in its one tested sigma-block
    ("z-and-flip-n12-block-test", make_channel([[[1, 0], [F(1, 4), F(3, 4)]], [[0, 1], [1, 0]]],
                                               [F(1, 4), F(3, 4)]),
     [[HALF, HALF], [F(1, 4), F(3, 4)]], 12, F(1, 3), None),
    # three outputs: once the output mapper has dropped its flag it fills
    # the first output with room, which need not be the one drawn
    ("three-outputs-n14", make_channel([[[HALF, F(1, 4), F(1, 4)], [F(1, 4), F(1, 4), HALF]]], [1]),
     [[HALF, HALF]], 14, F(1, 6), None),
    # three occurring states: once the state mapper has dropped its flag it
    # fills the first state with room, which need not be the one drawn
    ("three-states-n12-flag-drop",
     make_channel([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[1, 0], [0, 1]]], [F(1, 4), HALF, F(1, 4)]),
     [[HALF, HALF]] * 3, 12, F(1, 4), None),
    # the golden block source, with a tested sigma
    ("xor-block-source-n8-tested", xor_block_channel(), [[HALF, HALF]] * 2, 8, F(1, 4), 16),
]


@pytest.mark.parametrize(
    "ch, strategy, n, eps, m", [case[1:] for case in MONTE_CARLO_CASES],
    ids=[case[0] for case in MONTE_CARLO_CASES],
)
def test_monte_carlo_draws_as_the_reference_sampler(ch, strategy, n, eps, m):
    scheme = build_auth_scheme(ch, strategy, n, eps, message_count=m)
    for samples in (50, 3000):
        for seed in (0, 1):
            expected = reference_monte_carlo(scheme, samples, seed)
            assert success_probability(scheme, mode="monte_carlo", samples=samples, seed=seed) == expected


def test_monte_carlo_cases_cover_the_output_mapper_branches_and_both_sources():
    labels = [case[0] for case in MONTE_CARLO_CASES]
    schemes = [build_auth_scheme(*case[1:-1], message_count=case[-1]) for case in MONTE_CARLO_CASES]
    tested = [s for s in schemes if s.message_count > 1 and s.windows]

    def reaches_placeholder_and_flag_drop(scheme):
        y_maps = []
        reference_monte_carlo(scheme, 3000, 0, y_maps=y_maps)
        phi_y = placeholder(scheme.channel.y_size)
        return any(phi_y in mapped.output for mapped in y_maps) and any(not mapped.flag for mapped in y_maps)

    # on the reference draws, a tested case's output mapper emits a
    # placeholder on some block and drops its flag on another
    assert any(map(reaches_placeholder_and_flag_drop, tested))
    assert any(s.message_count == 1 for s in schemes)
    assert any(s.channel.block_state is not None for s in tested)
    # the sampler's no-test branch, which only skips letters and draws coins,
    # on an i.i.d. source and on a block source
    untested = [s for s in schemes if s.message_count > 1 and not s.windows]
    assert any(s.channel.block_state is None for s in untested)
    assert any(s.channel.block_state is not None for s in untested)
    # a case reads several chunks, and a coin is the last float of one and the first of another
    coins = []
    for seed in (0, 1):
        reference_monte_carlo(schemes[labels.index("identity-and-flip-n10-chunks")], 3000, seed, coins)
    chunk = auth_scheme.MC_CHUNK
    assert max(coins) > 3 * chunk
    assert any(c % chunk == chunk - 1 for c in coins) and any(c % chunk == 0 for c in coins)


def test_monte_carlo_does_not_map_per_sample(monkeypatch):
    """The sampler runs the state mapper and the output mappers inline, and
    builds no verdict table."""
    schemes = [build_auth_scheme(*case[1:-1], message_count=case[-1]) for case in MONTE_CARLO_CASES]
    expected = [reference_monte_carlo(scheme, 3000, 2) for scheme in schemes]

    def refuse(*_args):
        raise AssertionError("a mapper or verdict table ran outside the sampling loop")

    for name in ("map_with_budgets", "_sub_tables", "_block_test"):
        monkeypatch.setattr(auth_scheme, name, refuse)
    assert [success_probability(s, mode="monte_carlo", samples=3000, seed=2) for s in schemes] == expected


def assert_monte_carlo_peak_is_flat(scheme, sample_counts):
    peaks = []
    for samples in sample_counts:
        tracemalloc.start()
        success_probability(scheme, mode="monte_carlo", samples=samples, seed=0)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    # one list of MC_CHUNK floats, with the float objects it holds
    chunk = sys.getsizeof([0.5] * auth_scheme.MC_CHUNK) + auth_scheme.MC_CHUNK * sys.getsizeof(0.5)
    assert abs(peaks[1] - peaks[0]) <= chunk


def test_monte_carlo_memory_does_not_grow_with_samples():
    # no kept block: every sample skips its three letter floats and reads its coin
    scheme = build_auth_scheme(builtin_z0z1(), [[HALF, HALF]] * 2, 1, HALF, message_count=2)
    assert not scheme.windows
    assert_monte_carlo_peak_is_flat(scheme, (10_000, 100_000))


def test_monte_carlo_chunk_buffer_does_not_grow_with_samples():
    # a tested sigma: each sample reads its 12 letter floats, and its coin
    # when it passes, through the MC_CHUNK buffer: about 3 chunks at the
    # first count and 30 at the second
    scheme = build_auth_scheme(identity_channel(), UNIFORM2, 4, F(1, 4), message_count=4)
    assert scheme.windows
    assert_monte_carlo_peak_is_flat(scheme, (1_000, 10_000))


def test_success_probability_refuses_an_unknown_mode():
    scheme = build_auth_scheme(identity_channel(), UNIFORM2, 4, HALF)
    with pytest.raises(ValueError, match=r"^mode must be 'exact' or 'monte_carlo', got 'mc'$"):
        success_probability(scheme, mode="mc")


def test_exact_cap_points_to_sampling(monkeypatch):
    scheme = build_auth_scheme(identity_channel(), UNIFORM2, 8, HALF)
    monkeypatch.setattr(auth_scheme, "EXACT_SUCCESS_CAP", 10)
    with pytest.raises(ValueError, match="monte_carlo"):
        success_probability(scheme)


@pytest.mark.parametrize("samples", [0, -3, True, 2.5])
def test_sample_count_must_be_positive(samples):
    scheme = build_auth_scheme(builtin_z0z1(), [[HALF, HALF]] * 2, 2, HALF)
    why = f"must be >= 1, got {samples}" if type(samples) is int else f"must be an int, got {samples!r}"
    with pytest.raises(ValueError, match=f"^samples {re.escape(why)}$"):
        success_probability(scheme, mode="monte_carlo", samples=samples)


@pytest.mark.parametrize("m", [1, 2])
def test_seed_must_not_be_negative(m):
    # random.Random seeds from abs(seed), so -3 would repeat the estimate of 3
    # and True the stream of 1, while a float would seed from its hash
    scheme = build_auth_scheme(builtin_z0z1(), [[HALF, HALF]] * 2, 2, HALF, message_count=m)
    for seed, why in ((-3, "must be >= 0, got -3"), (1.5, "must be an int, got 1.5"), (True, "must be an int, got True")):
        with pytest.raises(ValueError, match=f"^seed {re.escape(why)}$"):
            success_probability(scheme, mode="monte_carlo", samples=10, seed=seed)


def test_success_decomposition_inequality():
    scheme = build_auth_scheme(identity_channel(), UNIFORM2, 9, HALF)
    assert scheme.message_count == 4 and scheme.acceptance == 1
    dec = success_decomposition(scheme)
    assert dec.success == F(7, 8)
    assert dec.p_flag == F(7, 8)
    assert dec.p_accept_given_flag == 1
    assert dec.success >= dec.lower_bound()
    assert dec.success == success_probability(scheme)


# -- the exact pass against the per-triple walk -----------------------------------


def reference_decomposition(scheme):
    """(decomposition, exact success) as they were found before the exact
    pass factored over sigma-blocks: a walk over every (s^n, x^n, y^n)
    triple of positive weight that runs every sigma test on each, with the
    success at M = 1 read as the total weight."""
    ch, n = scheme.channel, scheme.n
    phi = placeholder(ch.s_size)
    windows = scheme.windows
    total = p_accept = p_flag = p_both = F(0)
    for _si, ss, p_s in state_blocks(ch, n):
        mapped = map_with_budgets(ss, scheme.state_budgets)
        blocks = auth_scheme._sigma_blocks(windows, mapped.output)
        for xs in itertools.product(range(ch.x_size), repeat=n):
            w_in = math.prod(
                F(1, ch.x_size) if v == phi else scheme.strategy[v][x] for x, v in zip(xs, mapped.output)
            )
            for yi, p_y in reference_block_outputs(ch, xs, ss) if w_in else ():
                tests = [auth_scheme._block_test(scheme, block, xs, index_to_seq(yi, ch.y_size, n))
                         for block in blocks]
                accept = all(ok for ok, _ in tests)
                flag = mapped.flag == 1 and all(y_flag for _, y_flag in tests)
                weight = p_s * w_in * p_y
                total += weight
                p_accept += weight if accept else 0
                p_flag += weight if flag else 0
                p_both += weight if accept and flag else 0
    decomposition = SuccessDecomposition(
        success=scheme.acceptance * p_accept,
        acceptance=scheme.acceptance,
        p_flag=p_flag,
        p_accept_given_flag=p_both / p_flag if p_flag else F(0),
    )
    return decomposition, total if scheme.message_count == 1 else decomposition.success


def random_three_letter_cases(count, eps=F(1, 8)):
    """Scheme inputs at n = 3 on random channels with one alphabet of three
    letters, cycling through (|X|, |Y|, |S|) = (3, 2, 2), (2, 3, 2),
    (2, 2, 3), drawn until `count` give a nondegenerate scheme."""
    rng = random.Random(5)

    def dist(k, den):
        cuts = sorted(rng.randint(0, den) for _ in range(k - 1))
        return [F(b - a, den) for a, b in zip([0] + cuts, cuts + [den])]

    shapes = [(3, 2, 2), (2, 3, 2), (2, 2, 3)]
    cases = []
    for _ in range(200):
        x_size, y_size, s_size = shapes[len(cases) % 3]
        ch = make_channel([[dist(y_size, 4) for _ in range(x_size)] for _ in range(s_size)], dist(s_size, 4))
        strategy = [dist(x_size, 2) for _ in range(s_size)]
        try:
            m = build_auth_scheme(ch, strategy, 3, eps).message_count
        except DegenerateSchemeError:
            continue
        cases.append((f"random3-{len(cases)}", ch, strategy, 3, eps, m + len(cases) % 2))
        if len(cases) == count:
            return cases
    raise AssertionError(f"fewer than {count} usable random channels in 200 draws")


GOLDEN_IDENTITY = load_channel_file(str(Path(__file__).parent / "golden" / "identity.json"))

# (label, channel, strategy, n, eps, message count)
DECOMPOSITION_CASES = ACCEPTANCE_CASES + [
    ("product-xs-block-source", builtin_product_xs(), [[HALF, HALF]] * 2, 3, HALF, 2),
    *((f"z0z1-skewed-n{n}", builtin_z0z1(), [[F(1, 4), F(3, 4)], [F(3, 4), F(1, 4)]], n, F(1, 4), 2)
      for n in (4, 5, 6)),
    ("golden-identity-n8", GOLDEN_IDENTITY, [[F(1, 4), F(3, 4)]], 8, F(1, 4), None),
    ("golden-identity-n12", GOLDEN_IDENTITY, UNIFORM2, 12, F(1, 4), None),
    ("identity-and-flip-n7", make_channel([[[1, 0], [0, 1]], [[0, 1], [1, 0]]], [HALF, HALF]),
     [[HALF, HALF]] * 2, 7, F(1, 8), None),
] + random_three_letter_cases(20)


@pytest.mark.parametrize(
    "ch, strategy, n, eps, m", [case[1:] for case in DECOMPOSITION_CASES],
    ids=[case[0] for case in DECOMPOSITION_CASES],
)
def test_exact_pass_matches_the_per_triple_walk(ch, strategy, n, eps, m):
    scheme = build_auth_scheme(ch, strategy, n, eps, message_count=m)
    decomposition, success = reference_decomposition(scheme)
    assert success_decomposition(scheme) == decomposition
    assert success_probability(scheme) == success


def test_decomposition_cases_cover_tested_states_and_fallback_positions():
    schemes = [build_auth_scheme(*case[1:-1], message_count=case[-1]) for case in DECOMPOSITION_CASES]
    assert any(sum(1 for k in s.kept_block_lengths() if k) >= 2 for s in schemes)
    assert any(s.message_count == 1 for s in schemes)
    assert any(s.channel.block_state is not None for s in schemes)
    assert sum(3 in (s.channel.x_size, s.channel.y_size, s.channel.s_size) for s in schemes) >= 20

    def fallback_blocks(scheme):
        """State blocks with state flag 0 on which a tested sigma's
        positions hold another state."""
        tested = {s for s, _ in scheme.windows}
        for _si, ss, _p in state_blocks(scheme.channel, scheme.n):
            mapped = map_with_budgets(ss, scheme.state_budgets)
            if mapped.flag == 0 and any(v in tested and v != s for v, s in zip(mapped.output, ss)):
                yield ss

    assert any(any(fallback_blocks(s)) for s in schemes)
    assert any(success_decomposition(s).p_accept_given_flag not in (0, 1) for s in schemes)


@pytest.mark.parametrize("eps", [F(1, 4), F(39, 40)])
def test_exact_pass_refuses_z0z1_at_n40_without_walking_the_state_blocks(eps):
    scheme = build_auth_scheme(builtin_z0z1(), [[HALF, HALF]] * 2, 40, eps)
    if eps == F(39, 40):
        assert not scheme.windows and scheme.message_count == 1
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^the exact success pass needs \d+ terms, above the cap 4000000; use monte_carlo mode$"):
        success_decomposition(scheme)
    with pytest.raises(ValueError, match="above the cap 4000000"):
        success_probability(scheme)
    assert time.perf_counter() - start < 1


# -- the sigma-block DP against the sub-block enumeration ------------------------


def reference_sigma_sums(scheme, s, window, states):
    """The (accept, flag, both) sums of `_sigma_sums` on a sigma-block whose
    positions hold the real states `states`, as they were found before the
    DP: every input sub-block and each of its supported output sub-blocks,
    run through `_block_test`."""
    ch, k = scheme.channel, len(states)
    sums = [F(0)] * 3
    for xs in itertools.product(range(ch.x_size), repeat=k):
        w_in = math.prod(scheme.strategy[s][x] for x in xs)
        for yi, p_y in reference_block_outputs(ch, xs, states) if w_in else ():
            ys = index_to_seq(yi, ch.y_size, k)
            passes, y_flag = auth_scheme._block_test(scheme, (s, window, range(k)), xs, ys)
            sums = [t + w_in * p_y * v for t, v in zip(sums, (passes, y_flag, passes and y_flag))]
    return tuple(sums)


def reference_term_count(scheme):
    """The exact pass's term count before the DP: (state blocks) * (1 + the
    sum over tested sigma of (|X| y_max)^n_sigma)."""
    ch = scheme.channel
    y_max = max(sum(1 for p in row if p) for state_slice in ch.kernel for row in state_slice)
    lengths = scheme.state_budgets.per_symbol
    tested = scheme.windows
    return state_block_count(ch, scheme.n) * (1 + sum((ch.x_size * y_max) ** lengths[s] for s, _ in tested))


IDENTITY_AND_FLIP = make_channel([[[1, 0], [0, 1]], [[0, 1], [1, 0]]], [HALF, HALF])
BSC = make_channel([[[F(7, 8), F(1, 8)], [F(1, 8), F(7, 8)]]], [1])

# Past the per-triple walk.  z0z1 at n = 8 is degenerate but at eps = 1/2,
# where it keeps no outputs, so its tests are empty.  At eps = 1/8 few
# placeholder slots are left: a state block of identity-and-flip at n = 10
# maps 0.48 positions on average to the tested sigma they do not hold.
# The two-state channel keeps a block of four outputs of state 0 at n = 9.
LARGER_DECOMPOSITION_CASES = [
    ("z0z1-n8", builtin_z0z1(), [[HALF, HALF]] * 2, 8, HALF, None),
    *((f"identity-and-flip-n{n}", IDENTITY_AND_FLIP, [[HALF, HALF]] * 2, n, F(1, 8), None) for n in (9, 10, 11)),
    ("two-state-kept4-n9", make_channel([[[HALF, HALF], [0, 1]], [[1, 0], [HALF, HALF]]], [F(3, 4), F(1, 4)]),
     [[HALF, HALF], [0, 1]], 9, F(1, 8), None),
    # the same with its states swapped: the one tested sigma is 1, and its
    # strategy row is not row 0
    ("two-state-kept4-swapped-n8", make_channel([[[1, 0], [HALF, HALF]], [[HALF, HALF], [0, 1]]], [F(1, 4), F(3, 4)]),
     [[0, 1], [HALF, HALF]], 8, F(1, 8), None),
]


def reference_sigma_decomposition(scheme):
    """The decomposition as the exact pass found it before the DP: per state
    block, the product over tested sigma of `reference_sigma_sums`, cached
    by sigma and the real states of its positions."""
    windows = scheme.windows
    cache, totals = {}, [F(0)] * 3
    for _si, ss, p_s in state_blocks(scheme.channel, scheme.n):
        mapped = map_with_budgets(ss, scheme.state_budgets)
        parts = [p_s, p_s * mapped.flag, p_s * mapped.flag]
        for s, window, positions in auth_scheme._sigma_blocks(windows, mapped.output):
            key = s, tuple(ss[i] for i in positions)
            if key not in cache:
                cache[key] = reference_sigma_sums(scheme, s, window, key[1])
            parts = [p * q for p, q in zip(parts, cache[key])]
        totals = [t + p for t, p in zip(totals, parts)]
    p_accept, p_flag, p_both = totals
    return SuccessDecomposition(
        success=scheme.acceptance * p_accept,
        acceptance=scheme.acceptance,
        p_flag=p_flag,
        p_accept_given_flag=p_both / p_flag if p_flag else F(0),
    )


@pytest.mark.parametrize(
    "ch, strategy, n, eps, m", [case[1:] for case in LARGER_DECOMPOSITION_CASES],
    ids=[case[0] for case in LARGER_DECOMPOSITION_CASES],
)
def test_exact_pass_matches_the_sub_block_enumeration(ch, strategy, n, eps, m):
    scheme = build_auth_scheme(ch, strategy, n, eps, message_count=m)
    assert success_decomposition(scheme) == reference_sigma_decomposition(scheme)


def test_larger_cases_keep_outputs_and_fall_back():
    schemes = {case[0]: build_auth_scheme(*case[1:-1], message_count=case[-1]) for case in LARGER_DECOMPOSITION_CASES}
    assert schemes["z0z1-n8"].kept_block_lengths() == (0, 0)
    assert schemes["two-state-kept4-n9"].kept_block_lengths() == (4, 0)
    assert schemes["two-state-kept4-n9"].message_count == 6
    flip = schemes["identity-and-flip-n10"]
    assert flip.kept_block_lengths() == (2, 2) and flip.message_count == 16
    # mean number of positions mapped to a tested sigma that hold the other state
    phi = placeholder(flip.channel.s_size)
    fallback = sum(
        p * sum(v != s for v, s in zip(map_with_budgets(ss, flip.state_budgets).output, ss) if v != phi)
        for _si, ss, p in state_blocks(flip.channel, flip.n)
    )
    assert fallback > F(2, 5)


def test_exact_pass_answers_bsc_at_n48_within_a_second():
    # the first n >= 8 at which the scheme on BSC(1/8) is not degenerate
    scheme = build_auth_scheme(BSC, UNIFORM2, 48, HALF)
    assert scheme.message_count == 114 and scheme.kept_block_lengths() == (12,)
    start = time.perf_counter()
    decomposition = success_decomposition(scheme)
    assert time.perf_counter() - start < 1
    assert decomposition.success == F(148151893793645, 1002754604531712)
    assert decomposition.success >= decomposition.lower_bound()
    estimate, _ = success_probability(scheme, mode="monte_carlo", samples=20_000, seed=1)
    p = float(decomposition.success)
    assert abs(estimate - p) < 5 * math.sqrt(p * (1 - p) / 20_000)


def test_exact_cap_admits_every_scheme_the_term_count_admitted(monkeypatch):
    class Admitted(Exception):
        pass

    def admitted(*_args):
        raise Admitted

    noisy_two_state = make_channel(
        [[[F(7, 8), F(1, 8)], [F(1, 8), F(7, 8)]], [[1, 0], [F(1, 4), F(3, 4)]]], [HALF, HALF]
    )
    channels = [builtin_z0z1(), GOLDEN_IDENTITY, IDENTITY_AND_FLIP, BSC, noisy_two_state, zero_probability_channel()]
    schemes = []
    for ch in channels:
        for n in range(1, 41):
            for eps in (F(1, 8), F(1, 4), F(1, 3), HALF, F(3, 4)):
                try:
                    schemes.append(build_auth_scheme(ch, [[HALF, HALF]] * ch.s_size, n, eps))
                except DegenerateSchemeError:
                    pass
    # the walk over state blocks starts only past the cap check
    monkeypatch.setattr(auth_scheme, "state_blocks", admitted)
    verdicts = []
    for scheme in schemes:
        try:
            success_decomposition(scheme)
        except Admitted:
            verdicts.append((reference_term_count(scheme) <= 4_000_000, True))
        except ValueError:
            verdicts.append((reference_term_count(scheme) <= 4_000_000, False))
    assert (True, False) not in verdicts
    # 423 schemes were admitted before the DP and are still; 68 more are now
    assert verdicts.count((True, True)) >= 400 and verdicts.count((False, True)) >= 60

