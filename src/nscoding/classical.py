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
of work is done once: the law is the one the channel keeps per n, the
digit places that read a branch are kept per (|X|, |S|, n), the plain
search scores each unordered pair of branches once, and the CSIR search
reads every branch's advantages off one gain table built per search.
Message-0 branches are scored in array batches of at most _BATCH_CELLS
cells, so numpy does the work and memory stays flat in the branch count.
Ties break toward the smallest message, then the earliest enumerated
encoder, so results are deterministic and identical for any batch size.

A code is also a point of the full program: `code_tensor` writes an
encoder and its MAP decoder as a `SchemeTensor`, which
`auth_scheme.message_success` scores and `verify_conditions` checks like
any scheme's tensor.  The explicit 7/8 strategy is scored that way.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import auth_scheme
from .auth_scheme import SchemeTensor, message_success
from .channels import ChannelWithState, block_law_array, builtin_z0z1, check_block_length, lift_csir, state_block_count
from .indexing import index_to_seq, seq_to_index
from .rational import check_cap, check_int, int_dtype

__all__ = [
    "DeterministicEncoder",
    "ExplicitStrategy",
    "classical_opt_success",
    "code_tensor",
    "explicit_z0z1_strategy",
    "encoder_table_lines",
    "SEARCH_WORK_CAP",
    "WITNESS_ENTRY_CAP",
]

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
        if not 0 <= w < self.message_count:
            raise ValueError(f"message {w} outside 0..{self.message_count - 1}")
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
    gain = None
    if csir:
        gain = np.empty(law.shape[:2] + law.shape[1:2], dtype=law.dtype)
        for lo, hi in _batches(law.shape[1], law.size):
            gain[:, :, lo:hi] = np.maximum(law[:, :, None] - law[:, None, lo:hi], 0).sum(axis=-1)
    return _Law(law, den, *_branch_places(ch.x_size, ch.s_size, n), ch.x_size, ch.s_size, n, gain)


@functools.cache
def _branch_places(x_size: int, s_size: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(powers, place) of `_Law`, read-only and kept per (|X|, |S|, n)."""
    # a branch lists its position-j slots after those of positions 1..j-1
    si = np.arange(s_size**n)
    offsets = np.cumsum([0] + _slot_sizes(s_size, n)[:-1])
    digits = np.stack([offsets[j] + si // s_size ** (n - 1 - j) for j in range(n)], axis=1)
    powers, place = x_size**digits, x_size ** np.arange(n - 1, -1, -1)
    powers.flags.writeable = place.flags.writeable = False
    return powers, place


def _batches(stop: int, cells: int):
    """[lo, hi) blocks covering [0, stop), each as many items as fit
    _BATCH_CELLS array cells at `cells` per item (at least one)."""
    step = max(1, _BATCH_CELLS // cells)
    return ((lo, min(lo + step, stop)) for lo in range(0, stop, step))


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
    for lo, hi in _batches(branch_count, weights.size):
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
    """The response branch: along each prefix, the smallest best symbol.
    Level j is read at every length-j state prefix at once, at the input
    prefix the response chose along it."""
    s_size, x_size = law.s_size, law.x_size
    chosen = np.zeros(s_size, dtype=np.int64)  # input-prefix index along each state prefix
    tables: list[tuple[int, ...]] = []
    for j in range(1, law.n + 1):
        level = levels[j].reshape(s_size**j, x_size ** (j - 1), x_size)
        row = level[np.arange(s_size**j), chosen].argmax(axis=-1)
        tables.append(tuple(row.tolist()))
        chosen = np.repeat(chosen * x_size + row, s_size)  # a prefix's children follow it in index order
    return tuple(tables)


def _best_csir(law: _Law, branch_count: int) -> tuple[int, int, list[np.ndarray]]:
    """(best total advantage, first branch reaching it, that branch's
    response levels) over every message-0 branch, scored a batch at a time,
    S^n |X|^n gain cells each.  The winner's levels are copied out of its
    batch, and each batch is dropped before the next is scored."""
    best = None
    for lo, hi in _batches(branch_count, law.gain[:, :, 0].size):
        levels = _response_levels(law, np.arange(lo, hi))
        k = int(np.argmax(levels[0]))
        if best is None or levels[0][k] > best[0]:
            best = (levels[0][k], lo + k, [level[..., k].copy() for level in levels])
        del levels
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
    small closed form and the enumeration explodes.  The search runs in
    this process; `workers` must be 1, and is kept only because
    `perfbench/workloads.py` passes it (ROADMAP item 3(a) removes both).
    """
    check_int(M, "M", 1)
    check_int(n, "n", 1)
    if workers != 1:
        raise ValueError(f"workers must be 1, got {workers}")
    if M == 1:
        check_block_length(ch, n)
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
    adv, i, levels = _best_csir(law, branch_count)
    encoder = _combine(
        _branch_from_index(i, ch.x_size, ch.s_size, n),
        _best_response_branch(law, levels),
        ch.x_size, ch.s_size, n,
    )
    return (1 + Fraction(int(adv), law.denominator)) / 2, encoder


# -- a code as a point of the full program ------------------------------------


def code_tensor(ch: ChannelWithState, encoder: DeterministicEncoder) -> SchemeTensor:
    """The code (encoder f, MAP decoder g) on `ch` as the full program's
    point z[x, wh, w, s, y] = 1[x = f(w, s)] 1[wh = g(y)], scored by
    `auth_scheme.message_success` and checked by `verify_conditions`.

    g(y) is the smallest w maximizing sum_s law[s, f(w, s), y] over
    `block_law_array`, the search's tie rule.  For a receiver that sees
    the states, pass `lift_csir(ch)`: only the true state's block weighs
    its outputs there, so the same rule is the informed MAP decoder.
    """
    sizes = (encoder.x_size, encoder.s_size)
    if sizes != (ch.x_size, ch.s_size):
        raise ValueError(f"encoder alphabets (|X|, |S|) = {sizes} do not match the channel's {(ch.x_size, ch.s_size)}")
    n, m = encoder.n, encoder.message_count
    auth_scheme._tensor_entries("the code tensor", ch, n, m)
    law, _ = block_law_array(ch, n)
    blocks, outputs = np.arange(law.shape[0]), np.arange(law.shape[2])
    messages = np.arange(m)[:, None]
    # f(w, s) as an input-block index: x_j reads its table at s's length-j prefix
    inputs = sum(
        np.asarray(encoder.tables[j - 1])[messages * ch.s_size**j + blocks // ch.s_size ** (n - j)]
        * ch.x_size ** (n - j)
        for j in range(1, n + 1)
    )  # [w, s]
    decoder = law[blocks, inputs].sum(axis=1).argmax(axis=0)  # [y]; argmax takes the first maximum
    z = np.zeros((law.shape[1], m, m, len(blocks), len(outputs)), dtype=np.int64)
    w, s, y = np.ix_(range(m), blocks, outputs)
    z[inputs[w, s], decoder[y], w, s, y] = 1
    return SchemeTensor(m, n, ch.x_size, ch.s_size, ch.y_size, z, 1)


@dataclass(frozen=True)
class ExplicitStrategy:
    encoder: DeterministicEncoder
    success: Fraction
    per_message: tuple[Fraction, ...]


def explicit_z0z1_strategy() -> ExplicitStrategy:
    """The state-correcting repetition strategy on the two-state builtin
    with an informed receiver: send x_j = s_j XOR w.  Its MAP decoder
    decodes 0 exactly when every corrected output y_j XOR s_j is 0.

    Message 0 rides the noiseless letter both times (corrected outputs
    always 0); message 1 rides the uniform letter, so its corrected
    outputs miss (0,0) with probability 3/4.  Average: 7/8.
    """
    # a length-j prefix's index is odd exactly when its last state s_j is 1
    tables = tuple(tuple(pi % 2 ^ w for w in range(2) for pi in range(2**j)) for j in (1, 2))
    encoder = DeterministicEncoder(message_count=2, n=2, x_size=2, s_size=2, tables=tables)
    lifted = lift_csir(builtin_z0z1())
    per_message = message_success(code_tensor(lifted, encoder), lifted)
    return ExplicitStrategy(encoder=encoder, success=sum(per_message) / 2, per_message=per_message)
