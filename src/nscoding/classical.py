"""Exact optimal classical coding by exhaustive encoder search.

Encoders are deterministic causal maps f_j(w, s^j) -> x_j; for a fixed
encoder the best decoder is the maximum-a-posteriori rule, so only
encoders are enumerated.  With two messages the search runs over the
branch of message 0 and finds the best branch of message 1 in closed
form: the success probability is (1 + total positive advantage)/2, and
with state information at the receiver the advantage decomposes over
the state-prefix tree, which turns the inner maximization into an exact
tree walk instead of a second exponential enumeration.

The search is exact integer arithmetic on `channels.block_law_array`:
numerators over one denominator (int64 when no sum can overflow it,
Python ints otherwise), and the optimum leaves as a Fraction.  Each piece
of work is done once: the plain search scores each unordered pair of
branches once, and the CSIR search reads every branch's advantages off
one gain table built per (channel, n).  Message-0 branches are scored in
array batches of at most _BATCH_CELLS cells, so numpy does the work and
memory stays flat in the branch count.  Ties break toward the smallest
message, then the earliest enumerated encoder, so results are
deterministic (and identical for any batch size, and when the outer loop
is chunked across processes).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

import numpy as np

from .channels import ChannelWithState, block_law_array, block_outputs, builtin_z0z1, state_block_count, state_blocks
from .indexing import index_to_seq, seq_to_index
from .rational import check_cap, int_dtype

__all__ = [
    "DeterministicEncoder",
    "ExplicitStrategy",
    "classical_opt_success",
    "evaluate_strategy",
    "explicit_z0z1_strategy",
    "encoder_table_lines",
    "SEARCH_WORK_CAP",
    "WITNESS_ENTRY_CAP",
]

ZERO = Fraction(0)
ONE = Fraction(1)

SEARCH_WORK_CAP = 20_000_000
# table entries of the largest witness returned; the CLI prints one line
# per entry (65,534 of them, z0z1 at M = 1 and n = 15, take about a
# second).  Only an M = 1 witness comes near it: an M = 2 witness of e
# entries takes a search over |X|^e branch pairs, which reaches
# SEARCH_WORK_CAP first.
WITNESS_ENTRY_CAP = 2**16
# array cells one batch of branches may span: large enough that numpy,
# not Python, does the work, small enough that peak memory stays flat
_BATCH_CELLS = 2**14


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


def _combine(branch0, branch1, x_size: int, s_size: int, n: int) -> DeterministicEncoder:
    tables = []
    for j in range(n):
        tables.append(tuple(branch0[j]) + tuple(branch1[j]))
    return DeterministicEncoder(
        message_count=2, n=n, x_size=x_size, s_size=s_size, tables=tuple(tables)
    )


@dataclass(frozen=True)
class _Law:
    """The block law as integers over one denominator, with the digit
    places that read a branch's input block on every state block, and for
    the CSIR search the gain table."""

    law: np.ndarray  # (S^n, |X|^n, |Y|^n)
    denominator: int
    powers: np.ndarray  # (S^n, n): |X| ** (place of x_j on state block s in a branch index)
    place: np.ndarray  # (n,): |X| ** (n - j)
    x_size: int
    s_size: int
    n: int
    gain: Optional[np.ndarray] = None  # (S^n, |X|^n, |X|^n): gain[s, x, x']

    def inputs(self, branches) -> np.ndarray:
        """Input-block index of each branch (an int or an array of them) on every state block."""
        return (np.asarray(branches)[..., None, None] // self.powers % self.x_size) @ self.place

    def rows(self, branches) -> np.ndarray:
        """law[s, inputs(branch) on s, y]: shape (..., S^n, |Y|^n)."""
        return self.law[np.arange(self.law.shape[0]), self.inputs(branches)]


def _block_law(ch: ChannelWithState, n: int, csir: bool = False) -> _Law:
    """`block_law_array` in the dtype its sums need, with the digit places;
    with `csir`, also the gain table

        gain[s, x, x'] = sum_y (law[s, x, y] - law[s, x', y])^+,

    message 1's advantage on state block s when it sends x where message 0
    sends x'.  It is built in slices of x', each intermediate of at most
    max(_BATCH_CELLS, law cells) cells, in the law's dtype: an entry is at
    most the denominator, so the law's overflow rule covers it.

    It needs no cap of its own: its S^n |X|^2n cells are at most the CSIR
    work estimate over |Y|^n, branches * state blocks * |X|^n.  With
    |X| >= 2 there are |X|^(sum_j |S|^j) >= |X|^(|S|^n + n - 1) >= S^n |X|^n
    branches, for block sources too; with |X| = 1 its S^n cells are the
    law's over |Y|^n.
    """
    law, den = block_law_array(ch, n)
    law = law.astype(int_dtype(den, law.size), copy=False)
    # a branch lists its position-j slots after those of positions 1..j-1
    si = np.arange(law.shape[0])
    offsets = np.cumsum([0] + _slot_sizes(ch.s_size, n)[:-1])
    digits = np.stack([offsets[j] + si // ch.s_size ** (n - 1 - j) for j in range(n)], axis=1)
    place = ch.x_size ** np.arange(n - 1, -1, -1)
    gain = None
    if csir:
        gain = np.empty(law.shape[:2] + law.shape[1:2], dtype=law.dtype)
        for lo, hi in _batches(0, law.shape[1], law.size):
            gain[:, :, lo:hi] = np.maximum(law[:, :, None] - law[:, None, lo:hi], 0).sum(axis=-1)
    return _Law(law, den, ch.x_size**digits, place, ch.x_size, ch.s_size, n, gain)


def _batches(start: int, stop: int, cells: int):
    """[lo, hi) blocks covering [start, stop), each as many items as fit
    _BATCH_CELLS array cells at `cells` per item (at least one)."""
    step = max(1, _BATCH_CELLS // cells)
    return ((lo, min(lo + step, stop)) for lo in range(start, stop, step))


# -- two-message search: receiver without state information -------------------


def _best_pair_plain(law: _Law, branch_count: int) -> tuple[int, int, int]:
    """(max over (i, k) of sum_y max(a_i, a_k), i, k), the first maximizer in
    row-major order, where a_i is branch i's output weight summed over states.
    The sum is symmetric in (i, k), so the first maximizer has i <= k: rows
    i run in blocks [lo, hi), each scored against every k >= lo at once.
    The weights are laid out y-major, so the max and the sum over y run on
    whole (i, k) planes rather than along a short last axis."""
    weights = np.ascontiguousarray(law.rows(np.arange(branch_count)).sum(axis=1).T)
    best = None
    for lo, hi in _batches(0, branch_count, weights.size):
        totals = np.maximum(weights[:, lo:hi, None], weights[:, None, lo:]).sum(axis=0)
        i, k = np.unravel_index(np.argmax(totals), totals.shape)
        if best is None or totals[i, k] > best[0]:
            best = (totals[i, k], lo + int(i), lo + int(k))
    return best


# -- two-message search: receiver sees the states too --------------------------


def _response_levels(law: _Law, branches) -> list[np.ndarray]:
    """Best responses of message 1 to message-0 branches (an int or an
    array of them, whose shape trails every level), level by level.

    The total positive advantage sum over (s, y) of (b - a)^+ splits per
    state block, and a branch's inputs on a block are its decisions along
    the block's prefixes, so the maximization is a walk over the
    state-prefix tree: levels[j] has axes (s_1..s_j, x_1..x_j) and holds the
    best advantage below s^j with x^j fixed, levels[0] the total.  The
    leaves gather the gain table's columns at the branch's inputs, with
    the branches last, so each reduction runs on whole planes of them.
    Blocks of probability 0 are all zero, so they add nothing.
    """
    inputs = law.inputs(branches)
    blocks, x_blocks = law.gain.shape[:2]
    columns = inputs.reshape(-1, blocks).T[:, None]  # (S^n, 1, branches)
    advantage = law.gain[np.arange(blocks)[:, None, None], np.arange(x_blocks)[:, None], columns]
    levels = [advantage.reshape((law.s_size,) * law.n + (law.x_size,) * law.n + inputs.shape[:-1])]
    for j in range(law.n, 0, -1):
        # max out x_j (axis 2j - 1), then sum over s_j (axis j - 1)
        levels.append(levels[-1].max(axis=2 * j - 1).sum(axis=j - 1))
    return levels[::-1]


def _best_response_branch(law: _Law, levels: list[np.ndarray]) -> tuple[tuple[int, ...], ...]:
    """The response branch: along each prefix, the smallest best symbol."""
    s_size, x_size = law.s_size, law.x_size
    tables: list[tuple[int, ...]] = []
    for j in range(1, law.n + 1):
        row = []
        for pi in range(s_size**j):
            prefix = index_to_seq(pi, s_size, j)
            chosen = tuple(tables[k][pi // s_size ** (j - 1 - k)] for k in range(j - 1))
            row.append(int(np.argmax(levels[j][prefix + chosen])))
        tables.append(tuple(row))
    return tuple(tables)


def _csir_chunk(args):
    """(best total advantage, first branch reaching it) over [start, stop),
    scored a batch of branches at a time, S^n |X|^n gain cells each."""
    law, start, stop = args
    best = None
    for lo, hi in _batches(start, stop, law.gain[:, :, 0].size):
        totals = _response_levels(law, np.arange(lo, hi))[0]
        k = int(np.argmax(totals))
        if best is None or totals[k] > best[0]:
            best = (totals[k], lo + k)
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
        state_blocks(ch, n)  # rejects a block source of another length up front
        s = ch.s_size  # the witness has sum_j |S|^j table entries, at least |S|^n and n
        check_cap(WITNESS_ENTRY_CAP, max(n * math.log2(s), math.log2(n)),
                  lambda: n if s == 1 else (s ** (n + 1) - s) // (s - 1), f"the M = 1 witness (n={n})", "table entries")
        tables = tuple((0,) * size for size in _slot_sizes(s, n))
        return ONE, DeterministicEncoder(
            message_count=1, n=n, x_size=ch.x_size, s_size=ch.s_size, tables=tables
        )
    if M != 2:
        raise ValueError(f"the exhaustive search supports M in {{1, 2}}, got {M}")
    what = f"the {'CSIR ' if csir else ''}encoder search (M=2, n={n})"
    # the law array spans every state block, so it must fit under the cap first
    cells = ch.s_size * ch.x_size * ch.y_size
    check_cap(SEARCH_WORK_CAP, n * math.log2(cells), lambda: cells**n, what, "block law cells")
    blocks = state_block_count(ch, n)
    log_x, log_y = math.log2(ch.x_size), math.log2(ch.y_size)
    digits = sum(_slot_sizes(ch.s_size, n))  # there are |X| ** digits branches
    if csir:  # branches * state blocks * |X|^n * |Y|^n
        check_cap(SEARCH_WORK_CAP, (digits + n) * log_x + math.log2(blocks) + n * log_y,
                  lambda: ch.x_size ** (digits + n) * blocks * ch.y_size**n, what, "steps")
    else:  # the pairs i <= k of the b branches, b (b + 1) / 2, times |Y|^n
        check_cap(SEARCH_WORK_CAP, 2 * digits * log_x - 1 + n * log_y,
                  lambda: ch.x_size**digits * (ch.x_size**digits + 1) // 2 * ch.y_size**n, what, "steps")
    branch_count = _branch_count(ch.x_size, ch.s_size, n)
    law = _block_law(ch, n, csir)
    if not csir:
        value, i, k = _best_pair_plain(law, branch_count)
        encoder = _combine(
            _branch_from_index(i, ch.x_size, ch.s_size, n),
            _branch_from_index(k, ch.x_size, ch.s_size, n),
            ch.x_size, ch.s_size, n,
        )
        return Fraction(int(value), 2 * law.denominator), encoder
    chunks = min(workers, os.cpu_count() or 1)
    if chunks > 1:
        bounds = []
        step = (branch_count + chunks - 1) // chunks
        for start in range(0, branch_count, step):
            bounds.append((law, start, min(start + step, branch_count)))
        with ProcessPoolExecutor(max_workers=len(bounds)) as pool:
            candidates = [c for c in pool.map(_csir_chunk, bounds) if c is not None]
        adv, i = min(candidates, key=lambda c: (-c[0], c[1]))
    else:
        adv, i = _csir_chunk((law, 0, branch_count))
    encoder = _combine(
        _branch_from_index(i, ch.x_size, ch.s_size, n),
        _best_response_branch(law, _response_levels(law, i)),
        ch.x_size, ch.s_size, n,
    )
    return (1 + Fraction(int(adv), law.denominator)) / 2, encoder


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
