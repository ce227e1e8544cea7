"""Exhaustive classical encoder search on small instances.

The headline numbers: with two uses of the two-state builtin and the
receiver informed of the states, the best deterministic causal strategy
succeeds with probability exactly 7/8 (the state-correcting repetition
strategy is a maximizer), while without receiver state information the
optimum drops to 3/4 — below the assisted causal value 13/16, as it
must be.
"""

import functools
import math
import random
import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest

from nscoding import auth_scheme, channels, classical
from nscoding.auth_scheme import message_success, tensor_success, verify_conditions
from nscoding.channels import (
    BlockStateSource,
    block_law_array,
    builtin_z0z1,
    lift_csir,
    make_channel,
    state_block_count,
    state_blocks,
)
from nscoding.classical import (
    classical_opt_success,
    code_tensor,
    encoder_table_lines,
    explicit_z0z1_strategy,
)
from nscoding.indexing import all_sequences, index_to_seq, seq_to_index
from nscoding.ns_lp import MAX_LP_VARIABLES, build_lp1, build_lp2
from nscoding.rational import int_dtype
from nscoding.simplex import solve_exact
from test_auth_scheme import lp1_point
from test_channels import reference_block_outputs

CSIR_OPT = F(7, 8)
PLAIN_OPT = F(3, 4)


def test_explicit_strategy_value_and_breakdown():
    strat = explicit_z0z1_strategy()
    assert strat.success == CSIR_OPT
    assert strat.per_message == (F(1), F(3, 4))


def test_explicit_strategy_agrees_with_direct_evaluation():
    # the success field is itself read off the code tensor; force the
    # comparison with the per-triple walk so a refactor of either side
    # gets caught
    strat = explicit_z0z1_strategy()
    per_message = reference_code_success(lift_csir(builtin_z0z1()), strat.encoder)
    assert per_message == strat.per_message
    assert sum(per_message) / 2 == strat.success


def test_explicit_decoder_is_the_state_correcting_rule():
    # the MAP decoder decodes 0 exactly when every corrected output
    # y_j XOR s_j is 0, on each state block with the receiver's copy of it
    lifted = lift_csir(builtin_z0z1())
    tensor = code_tensor(lifted, explicit_z0z1_strategy().encoder)
    for si, ss in enumerate(all_sequences(2, 2)):
        for ys in all_sequences(2, 2):
            yi = seq_to_index([y * 2 + s for y, s in zip(ys, ss)], 4)
            decoded = np.flatnonzero(tensor.numerators[:, :, 0, si, yi].sum(axis=0))
            assert decoded.tolist() == [0 if ys == ss else 1]


def test_explicit_encoder_sends_state_xor_message():
    enc = explicit_z0z1_strategy().encoder
    assert enc.input_block(0, (0, 1)) == (0, 1)
    assert enc.input_block(1, (0, 1)) == (1, 0)
    assert enc.input_symbol(2, 1, (1, 1)) == 0


@pytest.mark.parametrize("w", [-1, 2])
def test_encoder_refuses_a_message_outside_its_range(w):
    # -1 would read message 1's table, and 2 would run off the table's end
    enc = explicit_z0z1_strategy().encoder
    with pytest.raises(ValueError, match=f"^message {w} outside 0..1$"):
        enc.input_symbol(1, w, (0,))
    with pytest.raises(ValueError, match=f"^message {w} outside 0..1$"):
        enc.input_block(w, (0, 1))


def test_encoder_refuses_a_position_or_prefix_outside_its_block():
    enc = explicit_z0z1_strategy().encoder
    for j in (0, 3):
        with pytest.raises(ValueError, match=f"^position {j} outside 1..2$"):
            enc.input_symbol(j, 0, (0,) * j)
    with pytest.raises(ValueError, match="^prefix of length 2 at position 1$"):
        enc.input_symbol(1, 0, (0, 1))


def test_sequence_indices_refuse_what_lies_outside_their_range():
    with pytest.raises(ValueError, match="^symbol 2 out of range for alphabet of size 2$"):
        seq_to_index((0, 2), 2)
    with pytest.raises(ValueError, match=r"^index 4 out of range for 2\^2 sequences$"):
        index_to_seq(4, 2, 2)


def test_enumeration_reaches_the_explicit_value():
    value, witness = classical_opt_success(builtin_z0z1(), 2, 2, csir=True)
    assert value == CSIR_OPT
    # the witness must actually achieve the optimum when re-evaluated as
    # a code with its MAP decoder
    lifted = lift_csir(builtin_z0z1())
    assert tensor_success(code_tensor(lifted, witness), lifted) == CSIR_OPT


def test_csir_search_at_three_uses_reaches_fifteen_sixteenths():
    # the witness decodes message 1 always and message 0 in 7 of 8 cases
    value, witness = classical_opt_success(builtin_z0z1(), 2, 3, csir=True)
    assert value == F(15, 16)
    lifted = lift_csir(builtin_z0z1())
    assert message_success(code_tensor(lifted, witness), lifted) == (F(7, 8), 1)


def test_receiver_state_info_is_worth_one_sixteenth():
    plain, _ = classical_opt_success(builtin_z0z1(), 2, 2, csir=False)
    assert plain == PLAIN_OPT
    assert plain < CSIR_OPT


def test_csir_flag_equals_lifted_channel():
    flagged, _ = classical_opt_success(builtin_z0z1(), 2, 2, csir=True)
    lifted, _ = classical_opt_success(lift_csir(builtin_z0z1()), 2, 2, csir=False)
    assert flagged == lifted == CSIR_OPT


def test_classical_never_beats_the_assisted_causal_value():
    assisted = solve_exact(build_lp2(builtin_z0z1(), M=2, n=2)).value
    plain, _ = classical_opt_success(builtin_z0z1(), 2, 2, csir=False)
    assert plain <= assisted
    assert (assisted, plain) == (F(13, 16), F(3, 4))


def test_single_message_always_succeeds():
    value, enc = classical_opt_success(builtin_z0z1(), 1, 3)
    assert value == F(1)
    assert enc.message_count == 1 and enc.n == 3


def test_noiseless_single_use_is_perfect():
    noiseless = make_channel(kernel=[[[1, 0], [0, 1]]], state_dist=[1])
    value, _ = classical_opt_success(noiseless, 2, 1)
    assert value == F(1)


def test_indistinguishable_messages_cap_at_a_coin_flip():
    # the channel ignores its input, so MAP ties land on message 0 and
    # the optimum is exactly 1/2 whatever the encoder does
    constant = make_channel(kernel=[[[1, 0], [1, 0]]], state_dist=[1])
    for csir in (False, True):
        value, _ = classical_opt_success(constant, 2, 2, csir=csir)
        assert value == F(1, 2)


def test_a_worker_count_other_than_one_is_refused():
    # the search runs in one process; the keyword stays only for the benchmark
    assert classical_opt_success(builtin_z0z1(), 2, 2, csir=True, workers=1)[0] == F(7, 8)
    for workers in (0, -4, 2, 3):
        with pytest.raises(ValueError, match=f"^workers must be 1, got {workers}$"):
            classical_opt_success(builtin_z0z1(), 2, 2, csir=True, workers=workers)


def test_work_cap_rejects_large_instances(monkeypatch):
    with pytest.raises(ValueError, match="above the cap 20000000"):
        classical_opt_success(builtin_z0z1(), 2, 3, csir=False)
    monkeypatch.setattr(classical, "SEARCH_WORK_CAP", 10)
    with pytest.raises(ValueError, match="above the cap 10"):
        classical_opt_success(builtin_z0z1(), 2, 2, csir=True)
    # the law array spans all 2^5 state blocks, not just the one atom
    atom = BlockStateSource(n=5, atoms=(((0,) * 5, F(1)),))
    single = make_channel(kernel=[[[1]], [[1]]], state_dist=[F(1, 2), F(1, 2)], block_state=atom)
    with pytest.raises(ValueError, match=r"^the encoder search \(M=2, n=5\) needs 32 block law cells, above the cap 10$"):
        classical_opt_success(single, 2, 5)


def test_plain_work_counts_the_pairs_i_at_most_k(monkeypatch):
    # z0z1 at n = 1: b = 4 branches, so 4 * 5 / 2 = 10 pairs of 2 outputs
    # (the law array has 8 cells)
    monkeypatch.setattr(classical, "SEARCH_WORK_CAP", 19)
    with pytest.raises(ValueError, match=r"^the encoder search \(M=2, n=1\) needs 20 steps, above the cap 19$"):
        classical_opt_success(builtin_z0z1(), 2, 1)
    monkeypatch.setattr(classical, "SEARCH_WORK_CAP", 20)
    assert classical_opt_success(builtin_z0z1(), 2, 1)[0] == F(1, 2) + F(1, 4)


@pytest.mark.parametrize("M, n, name, why", [
    (True, 2, "M", "must be an int, got True"),
    (2.0, 2, "M", "must be an int, got 2.0"),
    (0, 2, "M", "must be >= 1, got 0"),
    (2, 2.0, "n", "must be an int, got 2.0"),
    (2, True, "n", "must be an int, got True"),
    (2, 0, "n", "must be >= 1, got 0"),
])
def test_message_count_and_block_length_must_be_positive_ints(M, n, name, why):
    # M = True used to answer 1, and n = 2.0 to end in a TypeError
    with pytest.raises(ValueError, match=f"^{name} {re.escape(why)}$"):
        classical_opt_success(builtin_z0z1(), M, n, csir=True)


def test_more_than_two_messages_rejected():
    with pytest.raises(ValueError, match="M in"):
        classical_opt_success(builtin_z0z1(), 3, 2)


def test_witness_table_covers_every_cell():
    _, enc = classical_opt_success(builtin_z0z1(), 2, 2, csir=True)
    lines = encoder_table_lines(enc)
    assert len(lines) == 2 * 2 + 2 * 4
    assert lines[0].startswith("x_1(w=0, s^1=0) = ")


@pytest.mark.parametrize("x_size, s_size, ch", [
    (3, 2, builtin_z0z1()),
    (2, 2, make_channel([[[1, 0], [0, 1]]] * 3, [F(1, 3)] * 3)),
], ids=["three-inputs-on-z0z1", "two-states-on-three"])
def test_encoder_on_a_channel_with_other_alphabets_is_refused(x_size, s_size, ch):
    # one position, two messages, inputs 0 and x_size - 1 whatever the state
    enc = classical.DeterministicEncoder(2, 1, x_size, s_size, ((0,) * s_size + (x_size - 1,) * s_size,))
    sizes = f"({ch.x_size}, {ch.s_size})"
    with pytest.raises(ValueError, match=re.escape(f"= ({x_size}, {s_size}) do not match the channel's {sizes}")):
        code_tensor(ch, enc)


def _random_two_state_channel(seed):
    rng = random.Random(seed)

    def row():
        a = rng.randint(0, 4)
        return [F(a, 4), F(4 - a, 4)]

    b = rng.randint(1, 3)
    return make_channel(
        kernel=[[row(), row()], [row(), row()]],
        state_dist=[F(b, 4), F(4 - b, 4)],
    )


def test_state_info_never_hurts_on_random_channels():
    for seed in range(8):
        ch = _random_two_state_channel(seed)
        plain, _ = classical_opt_success(ch, 2, 2, csir=False)
        informed, _ = classical_opt_success(ch, 2, 2, csir=True)
        assert F(1, 2) <= plain <= informed <= F(1)


# -- the Fraction search the integer one replaced, kept as the reference ------


@functools.cache
def _reference_search(ch, n, csir):
    """Exhaustive M = 2 search on Fraction rows: per-branch output weights
    for the plain decoder, and a memoized walk over the live state-prefix
    tree for the informed one."""
    blocks = list(state_blocks(ch, n))
    ny, nx = ch.y_size**n, ch.x_size**n
    tables = {}
    for si, ss, p_s in blocks:
        per_x = []
        for xs in all_sequences(ch.x_size, n):
            row = [F(0)] * ny
            for yi, p_y in reference_block_outputs(ch, xs, ss):
                row[yi] = p_s * p_y
            per_x.append(tuple(row))
        tables[si] = per_x

    def branch(i):
        return classical._branch_from_index(i, ch.x_size, ch.s_size, n)

    def rows(b):
        return {
            si: tables[si][seq_to_index(
                tuple(b[j][seq_to_index(ss[: j + 1], ch.s_size)] for j in range(n)), ch.x_size
            )]
            for si, ss, _p in blocks
        }

    count = classical._branch_count(ch.x_size, ch.s_size, n)
    if not csir:
        weights = [[sum(col, F(0)) for col in zip(*rows(branch(i)).values())] for i in range(count)]
        best = None
        for i, va in enumerate(weights):
            for k, vb in enumerate(weights):
                value = sum((max(a, b) for a, b in zip(va, vb)), F(0))
                if best is None or value > best[0]:
                    best = (value, i, k)
        value, i, k = best
        return value / 2, classical._combine(branch(i), branch(k), ch.x_size, ch.s_size, n)

    live = {ss[:j] for _si, ss, _p in blocks for j in range(1, n + 1)}
    best = None
    for i in range(count):
        a_rows = rows(branch(i))
        advantage = {
            si: [sum((w - a for w, a in zip(tables[si][xi], a_rows[si]) if w > a), F(0)) for xi in range(nx)]
            for si, _ss, _p in blocks
        }
        memo = {}

        def value(prefix, x_prefix):
            key = (prefix, x_prefix)
            if key not in memo:
                if len(prefix) == n:
                    row = advantage.get(seq_to_index(prefix, ch.s_size))
                    memo[key] = row[seq_to_index(x_prefix, ch.x_size)] if row is not None else F(0)
                else:
                    memo[key] = sum(
                        (max(value(prefix + (s,), x_prefix + (x,)) for x in range(ch.x_size))
                         for s in range(ch.s_size) if prefix + (s,) in live),
                        F(0),
                    )
            return memo[key]

        chosen = {}
        total = F(0)
        stack = [(s,) for s in range(ch.s_size) if (s,) in live]
        for prefix in stack:
            if len(prefix) == 1:
                total += max(value(prefix, (x,)) for x in range(ch.x_size))
            x_prefix = tuple(chosen[prefix[:j]] for j in range(1, len(prefix)))
            options = [value(prefix, x_prefix + (x,)) for x in range(ch.x_size)]
            chosen[prefix] = options.index(max(options))
            if len(prefix) < n:
                stack.extend(prefix + (s,) for s in range(ch.s_size) if prefix + (s,) in live)
        if best is None or total > best[0]:
            b = tuple(
                tuple(chosen.get(index_to_seq(pi, ch.s_size, j), 0) for pi in range(ch.s_size**j))
                for j in range(1, n + 1)
            )
            best = (total, i, b)
    adv, i, b = best
    return (1 + adv) / 2, classical._combine(branch(i), b, ch.x_size, ch.s_size, n)


def _random_channel(seed, x_size, y_size, s_size, den=4):
    rng = random.Random(seed)

    def dist(size):
        cuts = sorted(rng.randint(0, den) for _ in range(size - 1))
        return [F(b - a, den) for a, b in zip([0] + cuts, cuts + [den])]

    return make_channel(
        kernel=[[dist(y_size) for _x in range(x_size)] for _s in range(s_size)],
        state_dist=dist(s_size),
    )


def reference_code_success(ch, encoder):
    """P(w-hat = w | w) for each message of `encoder` with the MAP decoder
    on y^n (ties to the smaller message), by a walk over every state block
    and each supported output block of every message's input block."""
    n, m = encoder.n, encoder.message_count
    weight = {}
    for _si, ss, p_s in state_blocks(ch, n):
        for w in range(m):
            for yi, p_y in reference_block_outputs(ch, encoder.input_block(w, ss), ss):
                weight[w, yi] = weight.get((w, yi), F(0)) + p_s * p_y
    decoded = {
        yi: max(range(m), key=lambda w: (weight.get((w, yi), 0), -w)) for _w, yi in weight
    }
    return tuple(sum((p for (v, yi), p in weight.items() if v == w == decoded[yi]), F(0)) for w in range(m))


_BINARY_BLOCK_SOURCE = make_channel(
    kernel=[[[F(1, 3), F(2, 3)], [1, 0]], [[0, 1], [F(1, 2), F(1, 2)]]],
    state_dist=[F(1, 2), F(1, 2)],
    block_state=BlockStateSource(n=2, atoms=(((0, 1), F(1, 4)), ((1, 1), F(3, 4)))),
)
# denominators near 10^6 at n = 2 push the common denominator past int64
_HUGE_DENOMINATORS = make_channel(
    kernel=[
        [[F(1, 1000003), F(1000002, 1000003)], [F(999983, 1000033), F(50, 1000033)]],
        [[F(7, 999983), F(999976, 999983)], [F(1, 2), F(1, 2)]],
    ],
    state_dist=[F(333331, 1000037), F(666706, 1000037)],
)

DIFFERENTIAL_CASES = [
    *((f"two-state seed {seed}", _random_two_state_channel(seed), 2, (False, True)) for seed in range(8)),
    *((f"(2,3,2) seed {seed}", _random_channel(seed, 2, 3, 2), 2, (False, True)) for seed in range(4)),
    *((f"{shape} seed 0", _random_channel(0, *shape), 2, (True,)) for shape in [(3, 2, 2), (2, 2, 3), (3, 3, 2)]),
    ("z0z1 n=1", builtin_z0z1(), 1, (False, True)),
    ("binary block source", _BINARY_BLOCK_SOURCE, 2, (False, True)),
    ("denominators past int64", _HUGE_DENOMINATORS, 2, (False, True)),
]


def test_huge_denominators_take_the_object_path():
    assert classical._block_law(_HUGE_DENOMINATORS, 2).law.dtype == object


@pytest.mark.parametrize("name, ch, n, modes", DIFFERENTIAL_CASES, ids=[c[0] for c in DIFFERENTIAL_CASES])
def test_integer_search_matches_the_fraction_search(name, ch, n, modes):
    for csir in modes:
        value, witness = classical_opt_success(ch, 2, n, csir=csir)
        ref_value, ref_witness = _reference_search(ch, n, csir)
        assert value == ref_value
        assert witness.tables == ref_witness.tables


# -- a code as a point of the full program --------------------------------------


_CODE_CASES = [
    *DIFFERENTIAL_CASES,
    *((f"two-state seed {seed} n=1", _random_two_state_channel(seed), 1, (False, True)) for seed in range(8)),
    *((f"{shape} seed {seed} n=1", _random_channel(seed, *shape), 1, (False, True))
      for shape in [(2, 3, 2), (3, 2, 2), (2, 2, 3)] for seed in range(4)),
]


@pytest.mark.parametrize("name, ch, n, modes", _CODE_CASES, ids=[c[0] for c in _CODE_CASES])
def test_code_tensor_success_is_the_search_value_and_the_reference_walk(name, ch, n, modes):
    # three routes to one value: the search, the code tensor's diagonal
    # against the block law, and the per-triple walk with the MAP decoder
    for csir in modes:
        value, witness = classical_opt_success(ch, 2, n, csir=csir)
        receiver = lift_csir(ch) if csir else ch
        tensor = code_tensor(receiver, witness)
        tensor.validate()
        assert verify_conditions(tensor).all_pass()
        per_message = message_success(tensor, receiver)
        assert per_message == reference_code_success(receiver, witness)
        assert tensor_success(tensor, receiver) == value
        assert sum(per_message) == 2 * value


def test_code_tensor_decodes_ties_to_the_smaller_message():
    # the output ignores the input, so every output block ties and the
    # MAP decoder gives each to message 0, as the search's tie rule does
    for csir in (False, True):
        value, witness = classical_opt_success(_CONSTANT_TWO_STATE, 2, 2, csir=csir)
        receiver = lift_csir(_CONSTANT_TWO_STATE) if csir else _CONSTANT_TWO_STATE
        assert message_success(code_tensor(receiver, witness), receiver) == (1, 0)
        assert reference_code_success(receiver, witness) == (1, 0)


def test_csir_witness_is_a_causal_point_at_the_csir_optimum():
    # classical CSIR <= NS causal + CSIR, proved by a point: the witness's
    # code tensor meets every row of causal LP1 on the lifted channel, and
    # its objective there is the LP optimum
    lifted = lift_csir(builtin_z0z1())
    _, witness = classical_opt_success(builtin_z0z1(), 2, 2, csir=True)
    tensor = code_tensor(lifted, witness)
    assert verify_conditions(tensor).all_pass()
    lp = build_lp1(lifted, 2, 2)
    point = lp1_point(lp, tensor)
    assert lp.violated_rows(point) == []
    assert lp.objective_value(point) == tensor_success(tensor, lifted) == CSIR_OPT
    assert solve_exact(build_lp2(lifted, 2, 2)).value == CSIR_OPT


def test_an_input_that_reads_a_later_state_fails_c3():
    # message 0 on s^2 = (0, 1) sends x^2 = (0, 1); sending (1, 1) instead
    # makes x_1 depend on s_2, which only the per-prefix family c3 forbids
    lifted = lift_csir(builtin_z0z1())
    tensor = code_tensor(lifted, explicit_z0z1_strategy().encoder)
    z = tensor.numerators.copy()
    si, moved = seq_to_index((0, 1), 2), seq_to_index((1, 1), 2)
    z[moved, :, 0, si], z[si, :, 0, si] = z[si, :, 0, si], 0
    mutated = replace(tensor, numerators=z)
    mutated.validate()
    report = verify_conditions(mutated)
    assert report.c1 == report.c2 == []
    # both input prefixes x_1 = 0 and 1 change mass against s_2 = 0, at
    # the decoded guess of each of the 16 outputs
    assert len(report.c3) == 2 * 16
    assert all(re.fullmatch(r"c3\[i=1,px=[01],wh=[01],w=0,s=1,y=\d+\]", label) for label in report.c3)
    lp = build_lp1(lifted, 2, 2)
    assert lp.violated_rows(lp1_point(lp, mutated)) == report.c3


def test_code_tensor_refuses_past_the_tensor_cap(monkeypatch):
    # the scheme tensors' cap: M^2 |X|^n |S|^n |Y|^n = 4 * 2^6 entries for z0z1 at n = 2
    _, witness = classical_opt_success(builtin_z0z1(), 2, 2)
    monkeypatch.setattr(auth_scheme, "TENSOR_ENTRY_CAP", 255)
    with pytest.raises(ValueError, match=r"^the code tensor \(M=2, n=2\) needs 256 entries, above the cap 255$"):
        code_tensor(builtin_z0z1(), witness)
    monkeypatch.setattr(auth_scheme, "TENSOR_ENTRY_CAP", 256)
    assert code_tensor(builtin_z0z1(), witness).numerators.size == 256


# -- batch boundaries ----------------------------------------------------------


def _batch_cells(ch, n, csir, per_batch):
    """A `_BATCH_CELLS` under which one batch holds `per_batch` message-0
    branches: gain[s, x, x'] cells of one x' per state block each with
    CSIR, every branch's output weights per row of the plain search."""
    if csir:
        cells = (ch.s_size * ch.x_size) ** n
    else:
        cells = classical._branch_count(ch.x_size, ch.s_size, n) * ch.y_size**n
    return per_batch * cells


@pytest.mark.parametrize("per_batch", [1, 3])
@pytest.mark.parametrize("name, ch, n, modes", DIFFERENTIAL_CASES, ids=[c[0] for c in DIFFERENTIAL_CASES])
def test_batch_size_does_not_move_the_witness(monkeypatch, per_batch, name, ch, n, modes):
    # 3 divides no power of 2, so the last batch is short on binary inputs
    for csir in modes:
        monkeypatch.setattr(classical, "_BATCH_CELLS", _batch_cells(ch, n, csir, per_batch))
        value, witness = classical_opt_success(ch, 2, n, csir=csir)
        ref_value, ref_witness = _reference_search(ch, n, csir)
        assert value == ref_value
        assert witness.tables == ref_witness.tables


_CONSTANT_TWO_STATE = make_channel(
    kernel=[[[1, 0], [1, 0]], [[0, 1], [0, 1]]], state_dist=[F(1, 2), F(1, 2)]
)


@pytest.mark.parametrize("per_batch", [1, 3, None])
def test_all_ties_go_to_branch_zero(monkeypatch, per_batch):
    # the output ignores the input, so every branch pair ties at 1/2
    for csir in (False, True):
        if per_batch is not None:
            monkeypatch.setattr(classical, "_BATCH_CELLS", _batch_cells(_CONSTANT_TWO_STATE, 2, csir, per_batch))
        value, witness = classical_opt_success(_CONSTANT_TWO_STATE, 2, 2, csir=csir)
        assert value == F(1, 2)
        assert all(x == 0 for table in witness.tables for x in table)


def test_csir_search_memory_does_not_grow_with_the_branch_count():
    ch, n = _random_channel(0, 2, 2, 3), 2
    assert classical._branch_count(ch.x_size, ch.s_size, n) == 4096
    tables = classical._block_law(ch, n, csir=True)
    law = tables.law
    bound = law.nbytes + tables.gain.nbytes + 4 * classical._BATCH_CELLS * law.itemsize
    # scoring every branch at once would take a law-sized array per branch
    assert 4096 * law.nbytes > 8 * bound
    # an equal channel keeps no law yet, so the search's peak counts its build
    fresh = _random_channel(0, 2, 2, 3)
    assert fresh == ch
    tracemalloc.start()
    try:
        classical_opt_success(fresh, 2, n, csir=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound


# -- the block law -------------------------------------------------------------


def reference_block_law(ch, n):
    """{(x, s, y): P(s^n) * N^n(y^n|x^n,s^n)} by walking every input block,
    state block and supported output block in index order."""
    blocks = list(state_blocks(ch, n))
    return {
        (xi, si, yi): p_s * p_y
        for xi, xs in enumerate(all_sequences(ch.x_size, n))
        for si, ss, p_s in blocks
        for yi, p_y in reference_block_outputs(ch, xs, ss)
    }


def _reference_law_array(ch, n):
    """The reference law filled into law[s, x, y] over the lcm of its
    denominators, in the dtype `int_dtype` gives that denominator."""
    weights = reference_block_law(ch, n)
    den = math.lcm(*(w.denominator for w in weights.values()))
    shape = (ch.s_size**n, ch.x_size**n, ch.y_size**n)
    law = np.zeros(shape, dtype=int_dtype(den, math.prod(shape)))
    for (xi, si, yi), w in weights.items():
        law[si, xi, yi] = w.numerator * (den // w.denominator)
    return law, den


_BLOCK_SOURCE_WITH_ZERO_ATOM = make_channel(
    kernel=[[[F(1, 3), F(2, 3)], [F(1, 2), F(1, 2)]], [[F(1, 4), F(3, 4)], [0, 1]]],
    state_dist=[F(1, 2), F(1, 2)],
    block_state=BlockStateSource(
        n=2, atoms=(((1, 0), F(2, 5)), ((0, 0), F(0)), ((1, 1), F(3, 5)))
    ),
)
_LAW_CHANNELS = [
    *((name, ch) for name, ch, _n, _modes in DIFFERENTIAL_CASES if name != "z0z1 n=1"),
    ("z0z1", builtin_z0z1()),
    ("lift_csir(z0z1)", lift_csir(builtin_z0z1())),
    ("zero-probability state letter", make_channel(
        kernel=[[[F(1, 2), F(1, 2)], [1, 0]], [[0, 1], [F(1, 6), F(5, 6)]], [[1, 0], [0, 1]]],
        state_dist=[F(1, 3), 0, F(2, 3)],
    )),
    ("block source with a zero atom", _BLOCK_SOURCE_WITH_ZERO_ATOM),
]
_LAW_CASES = [
    (name, ch, n)
    for name, ch in _LAW_CHANNELS
    for n in ((ch.block_state.n,) if ch.block_state is not None else (1, 2, 3))
]


# the cases whose full program at M = 2, (|X| |S| |Y|)^n * 4 variables, is within the cap
_LP_LAW_CASES = [(name, ch, n) for name, ch, n in _LAW_CASES
                 if (ch.x_size * ch.s_size * ch.y_size) ** n * 4 <= MAX_LP_VARIABLES]


@pytest.mark.parametrize("name, ch, n", _LP_LAW_CASES, ids=[f"{c[0]} n={c[2]}" for c in _LP_LAW_CASES])
def test_lp_objectives_are_the_reference_weights(name, ch, n):
    # r[x,y,s] weighs P(s^n) N^n(y^n|x^n,s^n), and each diagonal z[x,w,w,s,y]
    # a 1/M of it, walked x-major (key order included)
    weights = reference_block_law(ch, n).items()
    for build, expected in [
        (build_lp2, [(f"r[{x},{y},{s}]", w) for (x, s, y), w in weights]),
        (build_lp1, [(f"z[{x},{v},{v},{s},{y}]", w / 2) for (x, s, y), w in weights for v in range(2)]),
    ]:
        lp = build(ch, M=2, n=n)
        assert [(lp.var_names[j], c) for j, c in lp.objective.items()] == expected
        assert all(type(j) is int for j in lp.objective)


@pytest.mark.parametrize("name, ch, n", _LAW_CASES, ids=[f"{c[0]} n={c[2]}" for c in _LAW_CASES])
def test_search_law_keeps_its_denominator_and_dtype(name, ch, n):
    expected, den = _reference_law_array(ch, n)
    law = classical._block_law(ch, n)
    assert law.denominator == den
    assert law.law.dtype == expected.dtype
    assert np.array_equal(law.law, expected)
    table, table_den = block_law_array(ch, n)
    assert table_den == den and np.array_equal(table, expected)


def test_block_law_array_checks_the_block_length():
    with pytest.raises(ValueError, match="block length 3"):
        block_law_array(_BLOCK_SOURCE_WITH_ZERO_ATOM, 3)
    with pytest.raises(ValueError, match="n must be"):
        block_law_array(builtin_z0z1(), 0)


def test_block_law_is_kept_read_only_per_length():
    ch = _random_channel(5, 2, 3, 2)
    law, den = block_law_array(ch, 2)
    again, again_den = block_law_array(ch, 2)
    assert again is law and again_den == den
    assert classical._block_law(ch, 2).law is law  # int64 already, so the search reads it in place
    assert block_law_array(ch, 1)[0] is not law
    for write in (lambda: law.__setitem__((0, 0, 0), 1), lambda: law.__ifloordiv__(1)):
        with pytest.raises(ValueError, match="read-only"):
            write()
    expected, expected_den = _reference_law_array(ch, 2)
    assert den == expected_den and np.array_equal(law, expected)


def test_every_other_channel_builds_its_own_law():
    ch = _random_channel(6, 2, 2, 2)
    law, _ = block_law_array(ch, 2)
    atoms = (((0, 1), F(1, 4)), ((1, 1), F(3, 4)))
    others = [make_channel(ch.kernel, ch.state_dist), lift_csir(ch), replace(ch, block_state=BlockStateSource(2, atoms))]
    assert others[0] == ch
    for other in others:
        table, den = block_law_array(other, 2)
        assert table is not law and not table.flags.writeable
        fresh, fresh_den = channels._build_block_law(other, 2)
        assert den == fresh_den and np.array_equal(table, fresh)
        expected, expected_den = _reference_law_array(other, 2)
        assert den == expected_den and np.array_equal(table, expected)


def test_a_channels_searches_and_programs_build_one_law_per_length(monkeypatch):
    built = []
    build = channels._build_block_law
    monkeypatch.setattr(channels, "_build_block_law", lambda ch, n: built.append(n) or build(ch, n))
    ch = builtin_z0z1()
    assert classical_opt_success(ch, 2, 2)[0] == PLAIN_OPT
    assert classical_opt_success(ch, 2, 2, csir=True)[0] == CSIR_OPT
    assert solve_exact(build_lp2(ch, 2, 2)).value == F(13, 16)
    build_lp2(ch, 2, 2, causal=False)
    build_lp1(ch, 2, 2)
    assert built == [2]
    classical_opt_success(ch, 2, 1)
    assert built == [2, 1]


def test_branch_places_are_kept_read_only_per_shape():
    powers, place = classical._branch_places(2, 3, 2)
    assert classical._branch_places(2, 3, 2)[0] is powers
    assert classical._block_law(_random_channel(7, 2, 2, 3), 2).powers is powers
    # x_1 reads slot s_1, x_2 slot 3 + 3 s_1 + s_2, as |X| ** slot
    assert powers.tolist() == [[2**s1, 2 ** (3 + 3 * s1 + s2)] for s1 in range(3) for s2 in range(3)]
    assert place.tolist() == [2, 1]
    with pytest.raises(ValueError, match="read-only"):
        powers[0, 0] = 0


# -- the gain table and the pair scan, against the direct formulas --------------


def reference_response_levels(law, branches):
    """The levels of `_response_levels` from sum_y (law[s, x, y] - a[s, y])^+
    over the whole law, a being the branch's rows, scored with the branch
    axes first and then moved last."""
    a = law.rows(branches)
    advantage = np.maximum(law.law - a[..., None, :], 0).sum(axis=-1)
    levels = [advantage.reshape(a.shape[:-2] + (law.s_size,) * law.n + (law.x_size,) * law.n)]
    for j in range(law.n, 0, -1):
        levels.append(levels[-1].max(axis=-1).sum(axis=-j))
    lead = a.ndim - 2
    return [np.moveaxis(np.asarray(level), range(lead), range(-lead, 0)) for level in levels[::-1]]


_ZERO_STATE_LETTER = dict(_LAW_CHANNELS)["zero-probability state letter"]
_GAIN_CASES = [
    *((name, ch, n) for name, ch, n, _modes in DIFFERENTIAL_CASES),
    *((f"zero-probability state letter n={n}", _ZERO_STATE_LETTER, n) for n in (1, 2)),
    ("block source with a zero atom", _BLOCK_SOURCE_WITH_ZERO_ATOM, 2),
]


@pytest.mark.parametrize("name, ch, n", _GAIN_CASES, ids=[c[0] for c in _GAIN_CASES])
def test_gain_table_levels_equal_the_direct_formula(name, ch, n):
    law = classical._block_law(ch, n, csir=True)
    assert law.gain.dtype == law.law.dtype
    count = classical._branch_count(ch.x_size, ch.s_size, n)
    for branches in (np.arange(count), count - 1, np.array([[0, count - 1], [count // 2, 1]])):
        levels = classical._response_levels(law, branches)
        expected = reference_response_levels(law, branches)
        assert len(levels) == len(expected) == n + 1
        for level, ref in zip(levels, expected):
            level, ref = np.asarray(level), np.asarray(ref)  # the total of one branch is a scalar
            assert level.shape == ref.shape and level.dtype == ref.dtype
            assert np.array_equal(level, ref)


def reference_best_response_branch(law, levels):
    """`_best_response_branch` one state prefix at a time: the first
    argmax of levels[j] at the prefix and the inputs chosen along it."""
    s_size, x_size = law.s_size, law.x_size
    tables = []
    for j in range(1, law.n + 1):
        row = []
        for pi in range(s_size**j):
            prefix = index_to_seq(pi, s_size, j)
            chosen = tuple(tables[k][pi // s_size ** (j - 1 - k)] for k in range(j - 1))
            row.append(int(np.argmax(levels[j][prefix + chosen])))
        tables.append(tuple(row))
    return tuple(tables)


_RESPONSE_CASES = [
    *_GAIN_CASES,
    *((f"(3,2,3) seed {seed} n={n}", _random_channel(seed, 3, 2, 3), n) for seed in range(2) for n in (2, 3)),
]


@pytest.mark.parametrize("name, ch, n", _RESPONSE_CASES, ids=[c[0] for c in _RESPONSE_CASES])
def test_best_response_gather_matches_the_per_prefix_walk(name, ch, n):
    # on the response levels of sampled branches, and on small random
    # levels, where ties are common
    law = classical._block_law(ch, n, csir=True)
    count = classical._branch_count(ch.x_size, ch.s_size, n)
    rng = random.Random(n)
    branches = {0, count - 1, *(rng.randrange(count) for _ in range(24))}
    ties = np.random.default_rng(n)
    samples = [classical._response_levels(law, b) for b in sorted(branches)]
    samples += [[None] + [ties.integers(0, 3, (ch.s_size,) * j + (ch.x_size,) * j) for j in range(1, n + 1)]
                for _ in range(8)]
    for levels in samples:
        response = classical._best_response_branch(law, levels)
        assert response == reference_best_response_branch(law, levels)
        assert all(type(x) is int for table in response for x in table)


@pytest.mark.parametrize("name, ch, n", _LAW_CASES, ids=[f"{c[0]} n={c[2]}" for c in _LAW_CASES])
def test_gain_table_stays_within_the_csir_work_over_the_outputs(name, ch, n):
    # gain[s, x, x'] has S^n |X|^2n cells; the search admits branches *
    # state blocks * |X|^n * |Y|^n of work
    gain = classical._block_law(ch, n, csir=True).gain
    work = (
        classical._branch_count(ch.x_size, ch.s_size, n)
        * state_block_count(ch, n)
        * (ch.x_size * ch.y_size) ** n
    )
    assert gain.shape == (ch.s_size**n, ch.x_size**n, ch.x_size**n)
    assert gain.size <= work // ch.y_size**n


def reference_best_pair(law, branch_count):
    """(value, i, k) of the first row-major maximizer of sum_y max(a_i, a_k)
    over the full square of branch pairs."""
    weights = law.rows(np.arange(branch_count)).sum(axis=1)
    totals = np.maximum(weights[:, None, :], weights).sum(axis=2)
    i, k = np.unravel_index(np.argmax(totals), totals.shape)
    return totals[i, k], int(i), int(k)


_PAIR_CASES = [
    *((name, ch, n) for name, ch, n, modes in DIFFERENTIAL_CASES if False in modes),
    ("constant two-state", _CONSTANT_TWO_STATE, 2),
]


@pytest.mark.parametrize("per_batch", [1, 3, None])
@pytest.mark.parametrize("name, ch, n", _PAIR_CASES, ids=[c[0] for c in _PAIR_CASES])
def test_pair_scan_over_k_at_least_i_matches_the_full_square(monkeypatch, per_batch, name, ch, n):
    if per_batch is not None:
        monkeypatch.setattr(classical, "_BATCH_CELLS", _batch_cells(ch, n, False, per_batch))
    law = classical._block_law(ch, n)
    count = classical._branch_count(ch.x_size, ch.s_size, n)
    value, i, k = classical._best_pair_plain(law, count)
    assert (value, i, k) == reference_best_pair(law, count)
    assert i <= k
    if name == "constant two-state":  # every pair ties
        assert (i, k) == (0, 0)
