"""Exact optimal classical coding by exhaustive encoder search.

Encoders are deterministic causal maps f_j(w, s^j) -> x_j; for a fixed
encoder the best decoder is the maximum-a-posteriori rule, so only
encoders are enumerated.  With two messages the search runs over the
branch of message 0 and finds the best branch of message 1 in closed
form: the success probability is (1 + total positive advantage)/2, and
with state information at the receiver the advantage decomposes over
the state-prefix tree, which turns the inner maximization into an exact
tree walk instead of a second exponential enumeration.

Everything is Fraction arithmetic; ties break toward the smallest
message, then the earliest enumerated encoder, so results are
deterministic (and identical when the outer loop is chunked across
processes).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .channels import ChannelWithState, block_outputs, builtin_z0z1, state_blocks
from .indexing import all_sequences, index_to_seq, seq_to_index

__all__ = [
    "DeterministicEncoder",
    "ExplicitStrategy",
    "classical_opt_success",
    "evaluate_strategy",
    "explicit_z0z1_strategy",
    "encoder_table_lines",
    "SEARCH_WORK_CAP",
]

ZERO = Fraction(0)
ONE = Fraction(1)

SEARCH_WORK_CAP = 20_000_000


@dataclass(frozen=True)
class DeterministicEncoder:
    """Causal encoder: tables[j][w * s_size**(j+1) + prefix_index] = x_{j+1}."""

    message_count: int
    n: int
    x_size: int
    s_size: int
    tables: tuple[tuple[int, ...], ...]

    def input_symbol(self, j: int, w: int, s_prefix: Sequence[int]) -> int:
        """x_j for message w after seeing states s_1..s_j (j is 1-based)."""
        if not 1 <= j <= self.n:
            raise ValueError(f"position {j} outside 1..{self.n}")
        if len(s_prefix) != j:
            raise ValueError(f"prefix of length {len(s_prefix)} at position {j}")
        prefix_index = seq_to_index(s_prefix, self.s_size)
        return self.tables[j - 1][w * self.s_size**j + prefix_index]

    def input_block(self, w: int, ss: Sequence[int]) -> tuple[int, ...]:
        return tuple(
            self.input_symbol(j, w, ss[:j]) for j in range(1, self.n + 1)
        )


def encoder_table_lines(encoder: DeterministicEncoder) -> list[str]:
    """Human-readable witness table, one line per (position, message, prefix)."""
    lines = []
    for j in range(1, encoder.n + 1):
        for w in range(encoder.message_count):
            for pi in range(encoder.s_size**j):
                prefix = index_to_seq(pi, encoder.s_size, j)
                x = encoder.tables[j - 1][w * encoder.s_size**j + pi]
                pretty = "".join(str(s) for s in prefix)
                lines.append(f"x_{j}(w={w}, s^{j}={pretty}) = {x}")
    return lines


# -- per-message branches -----------------------------------------------------


def _slot_sizes(s_size: int, n: int) -> list[int]:
    return [s_size**j for j in range(1, n + 1)]


def _branch_count(x_size: int, s_size: int, n: int) -> int:
    return x_size ** sum(_slot_sizes(s_size, n))


def _branch_from_index(index: int, x_size: int, s_size: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Branch = per-position tables f_j(s^j) for a single message."""
    tables = []
    for size in _slot_sizes(s_size, n):
        row = []
        for _ in range(size):
            row.append(index % x_size)
            index //= x_size
        tables.append(tuple(row))
    return tuple(tables)


def _branch_inputs(branch, ss: Sequence[int], s_size: int) -> tuple[int, ...]:
    return tuple(
        branch[j][seq_to_index(ss[: j + 1], s_size)] for j in range(len(ss))
    )


def _path_tables(ch, n, blocks):
    """tab[si][x-block] = output-block weight vector P(s) * channel, computed once."""
    ny = ch.y_size**n
    tables = {}
    for si, ss, p_s in blocks:
        per_x = []
        for xs in all_sequences(ch.x_size, n):
            row = [ZERO] * ny
            for yi, p_y in block_outputs(ch, xs, ss):
                row[yi] = p_s * p_y
            per_x.append(tuple(row))
        tables[si] = per_x
    return tables


def _branch_rows(ch, branch, blocks, path_tables) -> dict[int, tuple[Fraction, ...]]:
    """Per state block: the path-table row of the branch's input block on it."""
    return {
        si: path_tables[si][seq_to_index(_branch_inputs(branch, ss, ch.s_size), ch.x_size)]
        for si, ss, _p in blocks
    }


def _branch_weights_plain(ch, branch, n, blocks, path_tables) -> tuple[Fraction, ...]:
    """Weight of each output block: the branch's rows summed over the states."""
    out = [ZERO] * ch.y_size**n
    for row in _branch_rows(ch, branch, blocks, path_tables).values():
        for yi, w in enumerate(row):
            if w:
                out[yi] += w
    return tuple(out)


def _combine(branch0, branch1, x_size: int, s_size: int, n: int) -> DeterministicEncoder:
    tables = []
    for j in range(n):
        tables.append(tuple(branch0[j]) + tuple(branch1[j]))
    return DeterministicEncoder(
        message_count=2, n=n, x_size=x_size, s_size=s_size, tables=tuple(tables)
    )


# -- two-message search: receiver without state information -------------------


def _best_pair_plain(ch, n, branch_count, blocks):
    path_tables = _path_tables(ch, n, blocks)
    weights = [
        _branch_weights_plain(
            ch, _branch_from_index(i, ch.x_size, ch.s_size, n), n, blocks, path_tables
        )
        for i in range(branch_count)
    ]
    best = None
    for i, va in enumerate(weights):
        for k, vb in enumerate(weights):
            value = sum((max(a, b) for a, b in zip(va, vb)), ZERO)
            if best is None or value > best[0]:
                best = (value, i, k)
    value, i, k = best
    return value / 2, i, k


# -- two-message search: receiver sees the states too --------------------------


def _best_response_csir(ch, n, a_weights, path_tables, blocks):
    """max over causal branches b of sum of (b - a)^+ over (y, s) cells.

    The sum splits per state block, and a branch's inputs on a block are
    its decisions along the block's prefixes, so the maximization is a
    walk over the state-prefix tree instead of a second enumeration.
    """
    s_size, x_size = ch.s_size, ch.x_size
    advantage = {}
    for si, _ss, _p in blocks:
        a_row = a_weights[si]
        per_x = path_tables[si]
        advantage[si] = [
            sum((w - a for w, a in zip(per_x[xi], a_row) if w > a), ZERO)
            for xi in range(x_size**n)
        ]
    live = set()
    for _si, ss, _p in blocks:
        for j in range(1, n + 1):
            live.add(ss[:j])

    memo: dict[tuple[tuple[int, ...], tuple[int, ...]], Fraction] = {}

    def value(prefix: tuple[int, ...], x_prefix: tuple[int, ...]) -> Fraction:
        """Best advantage below `prefix`, its own decisions fixed to x_prefix."""
        key = (prefix, x_prefix)
        if key in memo:
            return memo[key]
        if len(prefix) == n:
            row = advantage.get(seq_to_index(prefix, s_size))
            v = row[seq_to_index(x_prefix, x_size)] if row is not None else ZERO
        else:
            v = ZERO
            for s_next in range(s_size):
                child = prefix + (s_next,)
                if child in live:
                    v += max(value(child, x_prefix + (x,)) for x in range(x_size))
        memo[key] = v
        return v

    chosen: dict[tuple[int, ...], int] = {}

    def pick(prefix: tuple[int, ...]) -> int:
        """Deterministic argmax: the smallest symbol attaining the best value."""
        x_prefix = tuple(chosen[prefix[:j]] for j in range(1, len(prefix)))
        best_x, best_v = 0, None
        for x in range(x_size):
            v = value(prefix, x_prefix + (x,))
            if best_v is None or v > best_v:
                best_x, best_v = x, v
        return best_x

    total = ZERO
    stack = [(s,) for s in range(s_size) if (s,) in live]
    for prefix in stack:
        if len(prefix) == 1:
            total += max(value(prefix, (x,)) for x in range(x_size))
        chosen[prefix] = pick(prefix)
        if len(prefix) < n:
            stack.extend(
                prefix + (s,) for s in range(s_size) if prefix + (s,) in live
            )
    branch = []
    for j in range(1, n + 1):
        row = []
        for pi in range(s_size**j):
            row.append(chosen.get(index_to_seq(pi, s_size, j), 0))
        branch.append(tuple(row))
    return total, tuple(branch)


def _csir_chunk(args):
    ch, n, start, stop, blocks = args
    path_tables = _path_tables(ch, n, blocks)
    best = None
    for i in range(start, stop):
        branch = _branch_from_index(i, ch.x_size, ch.s_size, n)
        a_weights = _branch_rows(ch, branch, blocks, path_tables)
        adv, b_branch = _best_response_csir(ch, n, a_weights, path_tables, blocks)
        if best is None or adv > best[0]:
            best = (adv, i, b_branch)
    return best


def classical_opt_success(
    ch: ChannelWithState,
    M: int,
    n: int,
    csir: bool = False,
    workers: int = 1,
) -> tuple[Fraction, DeterministicEncoder]:
    """Exact optimum over deterministic causal encoders with MAP decoding.

    `csir` gives the decoder the state block alongside the outputs.
    Two messages at most: beyond that the coupled maximization has no
    small closed form and the enumeration explodes.  With `csir`, the
    search is split into at most min(workers, CPU count) chunks, one
    worker process each.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if M == 1:
        sizes = _slot_sizes(ch.s_size, n)
        tables = tuple((0,) * size for size in sizes)
        return ONE, DeterministicEncoder(
            message_count=1, n=n, x_size=ch.x_size, s_size=ch.s_size, tables=tables
        )
    if M != 2:
        raise ValueError(f"the exhaustive search supports M in {{1, 2}}, got {M}")
    blocks = list(state_blocks(ch, n))
    branch_count = _branch_count(ch.x_size, ch.s_size, n)
    ny = ch.y_size**n
    if csir:
        work = branch_count * len(blocks) * (ch.x_size**n) * ny
    else:
        work = branch_count * branch_count * ny
    if work > SEARCH_WORK_CAP:
        raise ValueError(
            f"estimated work {work} exceeds the cap {SEARCH_WORK_CAP} for this instance"
        )
    if not csir:
        value, i, k = _best_pair_plain(ch, n, branch_count, blocks)
        encoder = _combine(
            _branch_from_index(i, ch.x_size, ch.s_size, n),
            _branch_from_index(k, ch.x_size, ch.s_size, n),
            ch.x_size, ch.s_size, n,
        )
        return value, encoder
    chunks = min(workers, os.cpu_count() or 1)
    if chunks > 1:
        bounds = []
        step = (branch_count + chunks - 1) // chunks
        for start in range(0, branch_count, step):
            bounds.append((ch, n, start, min(start + step, branch_count), blocks))
        with ProcessPoolExecutor(max_workers=len(bounds)) as pool:
            candidates = [c for c in pool.map(_csir_chunk, bounds) if c is not None]
        best = min(candidates, key=lambda c: (-c[0], c[1]))
    else:
        best = _csir_chunk((ch, n, 0, branch_count, blocks))
    adv, i, b_branch = best
    encoder = _combine(
        _branch_from_index(i, ch.x_size, ch.s_size, n), b_branch, ch.x_size, ch.s_size, n
    )
    return (1 + adv) / 2, encoder


# -- direct evaluation of a given strategy -------------------------------------


def evaluate_strategy(
    ch: ChannelWithState,
    encoder: DeterministicEncoder,
    decoder: Mapping,
    csir: bool = False,
) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Success probability of an explicit (encoder, decoder) pair.

    `decoder` maps output-block indices (or (output, state) index pairs
    when `csir`) to messages; missing cells decode to message 0.
    Returns the average success and the per-message breakdown.
    """
    n, m = encoder.n, encoder.message_count
    per_message = []
    for w in range(m):
        hit = ZERO
        for si, ss, p_s in state_blocks(ch, n):
            for yi, p_y in block_outputs(ch, encoder.input_block(w, ss), ss):
                if decoder.get((yi, si) if csir else yi, 0) == w:
                    hit += p_s * p_y
        per_message.append(hit)
    return sum(per_message, ZERO) / m, tuple(per_message)


@dataclass(frozen=True)
class ExplicitStrategy:
    encoder: DeterministicEncoder
    decoder: dict
    success: Fraction
    per_message: tuple[Fraction, ...]


def explicit_z0z1_strategy() -> ExplicitStrategy:
    """The state-correcting repetition strategy on the two-state builtin
    with an informed receiver: send x_j = s_j XOR w, decode 0 exactly
    when every corrected output y_j XOR s_j is 0.

    Message 0 rides the noiseless letter both times (corrected outputs
    always 0); message 1 rides the uniform letter, so its corrected
    outputs miss (0,0) with probability 3/4.  Average: 7/8.
    """
    ch = builtin_z0z1()
    n = 2
    tables = []
    for j in range(1, n + 1):
        row = []
        for w in range(2):
            for pi in range(2**j):
                prefix = index_to_seq(pi, 2, j)
                row.append(prefix[-1] ^ w)
        tables.append(tuple(row))
    encoder = DeterministicEncoder(
        message_count=2, n=n, x_size=2, s_size=2, tables=tuple(tables)
    )
    decoder = {}
    for yi in range(4):
        ys = index_to_seq(yi, 2, n)
        for si in range(4):
            ss = index_to_seq(si, 2, n)
            corrected = [y ^ s for y, s in zip(ys, ss)]
            decoder[(yi, si)] = 0 if corrected == [0, 0] else 1
    success, per_message = evaluate_strategy(ch, encoder, decoder, csir=True)
    return ExplicitStrategy(
        encoder=encoder, decoder=decoder, success=success, per_message=per_message
    )
