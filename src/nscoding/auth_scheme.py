"""Finite-blocklength assisted coding schemes built on type mapping.

The construction: the state sequence is causally mapped onto a fixed
composition (see `type_mapping`); on the positions carrying each kept
state value sigma the encoder draws inputs i.i.d. from a chosen
P_{X|S=sigma}, and placeholder positions get uniform inputs.  The
decoder-side test maps the outputs on each sigma-block onto a fixed
composition as well and then checks joint typicality of the kept
(input, mapped-output) pairs against P_{XY|S=sigma}, for every sigma.

Because both mappings always produce their exact target composition,
the probability that a fresh independent input block passes the test
is a constant mu^-1 independent of everything observed.  Scaling the
acceptance by lambda = mu / M then makes each of the M messages decode
correctly with conditional probability exactly 1/M, which is what the
non-signaling marginal condition requires.

Everything here is exact rational arithmetic except the Monte Carlo
success estimate, which is explicitly an estimate.  Dense tensors hold
integer numerators over one positive denominator, and the typicality
test is decided on integer pair counts against windows computed once
per scheme.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction
from operator import le
from typing import Optional, Sequence, Union

import numpy as np

from .channels import ChannelWithState, block_law, state_block_count, state_blocks
from .indexing import all_sequences, seq_to_index
from .ns_lp import CONDITIONS, S_TAIL, X_TAIL, condition_views
from .rational import as_rational, check_cap, int_dtype
from .type_mapping import Budgets, budgets, map_with_budgets, placeholder
from .typicality import count_window

__all__ = [
    "AuthScheme",
    "SchemeTensor",
    "ConditionReport",
    "SuccessDecomposition",
    "DegenerateSchemeError",
    "build_auth_scheme",
    "compute_mu",
    "typicality_pass_probability",
    "zeta",
    "t_function",
    "materialize_tensor",
    "verify_conditions",
    "success_probability",
    "success_decomposition",
    "toy_product_scheme",
    "TENSOR_ENTRY_CAP",
    "EXACT_SUCCESS_CAP",
    "MU_TYPE_ENUM_CAP",
]

ZERO = Fraction(0)
ONE = Fraction(1)

TENSOR_ENTRY_CAP = 10_000_000
EXACT_SUCCESS_CAP = 4_000_000
MC_CHUNK = 4096  # floats the Monte Carlo sampler reads from its stream at a time
MU_TYPE_ENUM_CAP = 64


class DegenerateSchemeError(ValueError):
    """No input block can pass the typicality test: mu would be infinite."""


InputStrategy = tuple[tuple[Fraction, ...], ...]


def _clean_strategy(ch: ChannelWithState, strategy: Sequence[Sequence[object]]) -> InputStrategy:
    rows = tuple(tuple(as_rational(p) for p in row) for row in strategy)
    if len(rows) != ch.s_size:
        raise ValueError(f"{len(rows)} strategy rows for {ch.s_size} states")
    for s, row in enumerate(rows):
        if len(row) != ch.x_size:
            raise ValueError(f"strategy row {s} has {len(row)} entries for {ch.x_size} inputs")
        if any(p < 0 for p in row) or sum(row, ZERO) != 1:
            raise ValueError(f"strategy row {s} is not a probability distribution: {row}")
    return rows


def _output_tables(
    ch: ChannelWithState, strategy: InputStrategy
) -> tuple[list[list[Fraction]], list[list[list[Fraction]]]]:
    """Per-state output law p_y[s][y] and joint law p_xy[s][x][y]."""
    p_y = [[ZERO] * ch.y_size for _ in range(ch.s_size)]
    p_xy = [[[ZERO] * ch.y_size for _ in range(ch.x_size)] for _ in range(ch.s_size)]
    for s in range(ch.s_size):
        for x in range(ch.x_size):
            px = strategy[s][x]
            for y in range(ch.y_size):
                v = px * ch.prob(y, x, s)
                p_xy[s][x][y] = v
                p_y[s][y] += v
    return p_y, p_xy


@dataclass(frozen=True)
class AuthScheme:
    """A fully parameterized scheme instance.

    `message_count` defaults to ceil(mu) but may be any integer at least
    that large; `acceptance` (the lambda scaling) is mu / message_count
    and always lies in (0, 1].
    """

    channel: ChannelWithState
    strategy: InputStrategy
    n: int
    eps: Fraction
    state_budgets: Budgets
    y_budgets: tuple[Optional[Budgets], ...]
    p_xy_given_s: tuple[tuple[tuple[Fraction, ...], ...], ...]
    mu: Fraction
    message_count: int
    acceptance: Fraction

    def rate(self) -> float:
        return math.log2(self.message_count) / self.n

    def kept_block_lengths(self) -> tuple[int, ...]:
        """Per-state length of the typicality test block (the n-tilde values)."""
        return tuple(
            sum(b.per_symbol) if b is not None else 0 for b in self.y_budgets
        )


# -- the typicality test on integer counts ----------------------------------


Window = tuple[list[int], list[int]]


def _pair_windows(p_xy: Sequence[Sequence[Fraction]], n_tilde: int, eps: Fraction) -> Window:
    """Count windows (lo, hi) of every (x, y) pair of a length-n_tilde block,
    flat at x * |Y| + y: `jointly_typical` passes exactly when each pair
    count c has lo <= c <= hi."""
    bounds = [count_window(n_tilde, p, eps) for row in p_xy for p in row]
    return [lo for lo, _ in bounds], [hi for _, hi in bounds]


def _count_windows(scheme: AuthScheme) -> list[tuple[int, Window]]:
    """(sigma, pair windows) for every tested state sigma, one whose kept
    block is not empty (an empty one keeps no pair, so its test always
    passes).  The kept block always has the fixed length n-tilde_sigma, so
    one window per pair decides the test for every block."""
    return [
        (s, _pair_windows(scheme.p_xy_given_s[s], sum(b.per_symbol), scheme.eps))
        for s, b in enumerate(scheme.y_budgets)
        if b is not None and any(b.per_symbol)
    ]


# -- mu ---------------------------------------------------------------------


def typicality_pass_probability(
    p_x: Sequence[object],
    p_xy: Sequence[Sequence[object]],
    y_type: Sequence[int],
    eps: object,
) -> Fraction:
    """Probability that i.i.d. inputs drawn from `p_x`, paired with a fixed
    output block of composition `y_type`, land in the joint typical set.

    The pairs in distinct output-symbol groups are independent, and the
    typicality window constrains each pair count separately, so the
    probability is a product over output symbols of bounded multinomial
    sums ("types"), each a DP over the input letters keyed by the count
    taken so far.
    """
    eps = as_rational(eps)
    if not ZERO < eps < ONE:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    px = [as_rational(p) for p in p_x]
    joint = [[as_rational(v) for v in row] for row in p_xy]
    y_size = len(joint[0]) if joint else 0
    counts = list(y_type)
    if len(counts) != y_size:
        raise ValueError(f"{len(counts)} output counts for {y_size} output symbols")
    n_tilde = sum(counts)
    if n_tilde == 0:
        return ONE
    check_cap(MU_TYPE_ENUM_CAP, 0, lambda: n_tilde, "mu's typicality test", "kept positions")
    result = ONE
    for y, m in enumerate(counts):
        # sums[t]: over the letters so far, the sum of prod p^k / k! at window counts k totalling t
        sums = {0: ONE}
        for x, p in enumerate(px):
            lo, hi = count_window(n_tilde, joint[x][y], eps)
            weights = {k: p**k / math.factorial(k) for k in range(lo, min(m, hi) + 1)}
            sums = {t: v for t in ([m] if x == len(px) - 1 else range(m + 1))
                    if (v := sum((sums[t - k] * w for k, w in weights.items() if t - k in sums), ZERO))}
        result *= math.factorial(m) * sums.get(m, ZERO)
    return result


def _scheme_tables(ch: ChannelWithState, strategy: InputStrategy, n: int, eps: Fraction):
    state_blocks(ch, n)  # rejects a block source of another length up front
    state_b = budgets(n, ch.s_size, ch.state_dist, eps)
    p_y, p_xy = _output_tables(ch, strategy)
    y_b: list[Optional[Budgets]] = []
    for s in range(ch.s_size):
        n_s = state_b.per_symbol[s]
        y_b.append(budgets(n_s, ch.y_size, p_y[s], eps) if n_s > 0 else None)
    return state_b, tuple(y_b), p_xy


def compute_mu(
    ch: ChannelWithState,
    strategy: Sequence[Sequence[object]],
    n: int,
    eps: object,
) -> Fraction:
    """The mu of `build_auth_scheme`: the reciprocal of the probability that
    an independent input block passes every per-state typicality test;
    always >= 1.

    Raises DegenerateSchemeError when that probability is zero, and
    ValueError past the exact cap on the kept block length.
    """
    return build_auth_scheme(ch, strategy, n, eps).mu


def _ci95(p_hat: float, samples: int) -> tuple[float, float]:
    """Normal-approximation 95% interval for a frequency, clipped to [0, 1]."""
    half = 1.96 * math.sqrt(max(p_hat * (1 - p_hat), 0.0) / samples)
    return max(p_hat - half, 0.0), min(p_hat + half, 1.0)


def build_auth_scheme(
    ch: ChannelWithState,
    strategy: Sequence[Sequence[object]],
    n: int,
    eps: object,
    message_count: Optional[int] = None,
) -> AuthScheme:
    """Derive every scheme parameter from (channel, P_{X|S}, n, eps).

    The message count defaults to ceil(mu); any larger integer is also
    valid (the acceptance scaling shrinks to compensate), which is how a
    block length too short to support two messages on its own is still
    given a meaningful multi-message scheme.
    """
    eps = as_rational(eps)
    strat = _clean_strategy(ch, strategy)
    state_b, y_b, p_xy = _scheme_tables(ch, strat, n, eps)
    # mu is 1 / (the product over tested states of the pass probability)
    prob = math.prod(
        (typicality_pass_probability(strat[s], p_xy[s], b.per_symbol, eps) for s, b in enumerate(y_b) if b is not None),
        start=ONE,
    )
    if prob == 0:
        raise DegenerateSchemeError("no input block passes the typicality test for these parameters")
    mu = 1 / prob
    minimum = math.ceil(mu)
    if message_count is None:
        message_count = minimum
    elif message_count < minimum:
        raise ValueError(f"message_count must be at least ceil(mu) = {minimum}, got {message_count}")
    lam = mu / message_count
    assert ZERO < lam <= ONE and lam * message_count == mu
    return AuthScheme(
        channel=ch,
        strategy=strat,
        n=n,
        eps=eps,
        state_budgets=state_b,
        y_budgets=y_b,
        p_xy_given_s=tuple(tuple(tuple(r) for r in rows) for rows in p_xy),
        mu=mu,
        message_count=message_count,
        acceptance=lam,
    )


# -- encoder and test -------------------------------------------------------


def zeta(scheme: AuthScheme, i: int, x: int, s_prefix: Sequence[int]) -> Fraction:
    """Probability the encoder puts symbol `x` at position `i`, given the
    first i states; uniform on placeholder positions, P_{X|S} otherwise."""
    if not 1 <= i <= scheme.n:
        raise ValueError(f"position {i} outside 1..{scheme.n}")
    if len(s_prefix) != i:
        raise ValueError(f"prefix of length {len(s_prefix)} for position {i}")
    if not 0 <= x < scheme.channel.x_size:
        raise ValueError(f"input symbol {x} out of range")
    mapped = map_with_budgets(s_prefix, scheme.state_budgets)
    kept = mapped.output[-1]
    if kept == placeholder(scheme.channel.s_size):
        return Fraction(1, scheme.channel.x_size)
    return scheme.strategy[kept][x]


Block = tuple[int, Window, Sequence[int]]


def _sigma_blocks(windows: list[tuple[int, Window]], mapped_states: Sequence[int]) -> list[Block]:
    """(sigma, window, positions the state mapping gave sigma) for every
    tested state; there are always state_budgets.per_symbol[sigma] positions."""
    return [(s, window, [i for i, v in enumerate(mapped_states) if v == s]) for s, window in windows]


def _block_test(scheme: AuthScheme, block: Block, xs: Sequence[int], ys: Sequence[int]):
    """The typicality test on one sigma-block: map the outputs at its
    positions with `y_budgets[sigma]` and count the kept (input, mapped
    output) pairs against its window.  Returns (passes, output-mapper flag)."""
    s, (lo, hi), positions = block
    y_size = scheme.channel.y_size
    mapped = map_with_budgets([ys[i] for i in positions], scheme.y_budgets[s])
    counts = [0] * len(lo)
    for i, y in zip(positions, mapped.output):
        if y < y_size:  # the placeholder output keeps no pair
            counts[xs[i] * y_size + y] += 1
    return all(a <= c <= b for a, c, b in zip(lo, counts, hi)), mapped.flag


def t_function(scheme: AuthScheme, xs: Sequence[int], ys: Sequence[int], ss: Sequence[int]) -> Fraction:
    """The acceptance weight: `acceptance` if every per-state block of kept
    (input, mapped output) pairs is jointly typical, else 0."""
    ch = scheme.channel
    for name, seq, size in (("x", xs, ch.x_size), ("y", ys, ch.y_size), ("s", ss, ch.s_size)):
        if len(seq) != scheme.n:
            raise ValueError(f"{name}-sequence has length {len(seq)}, expected {scheme.n}")
        if not all(0 <= v < size for v in seq):
            raise ValueError(f"{name}-sequence {tuple(seq)} has a symbol outside 0..{size - 1}")
    mapped_states = map_with_budgets(ss, scheme.state_budgets).output
    blocks = _sigma_blocks(_count_windows(scheme), mapped_states)
    return scheme.acceptance if all(_block_test(scheme, block, xs, ys)[0] for block in blocks) else ZERO


# -- dense tensor -----------------------------------------------------------


def _fractions(numerators: np.ndarray, denominator: int) -> np.ndarray:
    """Read-only Fraction array numerators / denominator, one Fraction
    object per distinct numerator."""
    values, inverse = np.unique(numerators, return_inverse=True)
    table = np.array([Fraction(int(v), denominator) for v in values], dtype=object)
    view = table[inverse.reshape(numerators.shape)]
    view.flags.writeable = False
    return view


@dataclass
class SchemeTensor:
    """Dense table Z(x^n, w-hat | w, s^n, y^n), exact rationals stored as
    integer `numerators` over one positive `denominator`.

    The numerators have shape (|X|^n, M, M, |S|^n, |Y|^n) with blocks
    indexed as in `indexing` (position 1 most significant); `entries` is
    the same table as Fractions.
    """

    message_count: int
    n: int
    x_size: int
    s_size: int
    y_size: int
    numerators: np.ndarray
    denominator: int

    @classmethod
    def from_entries(
        cls, message_count: int, n: int, x_size: int, s_size: int, y_size: int, entries
    ) -> "SchemeTensor":
        """A tensor from an array of rationals, over the lcm of their denominators."""
        values = [Fraction(v) for v in np.asarray(entries, dtype=object).flat]
        den = math.lcm(*(v.denominator for v in values))
        nums = [v.numerator * (den // v.denominator) for v in values]
        dtype = int_dtype(max(map(abs, nums), default=0), len(nums))
        numerators = np.array(nums, dtype=dtype).reshape(np.shape(entries))
        return cls(message_count, n, x_size, s_size, y_size, numerators, den)

    @property
    def entries(self) -> np.ndarray:
        """The table as a read-only Fraction array, built on each access."""
        return _fractions(self.numerators, self.denominator)

    def entry(self, xs, w_hat: int, w: int, ss, ys) -> Fraction:
        if not (0 <= w_hat < self.message_count and 0 <= w < self.message_count):
            raise ValueError(f"message pair (w_hat, w) = ({w_hat}, {w}) outside 0..{self.message_count - 1}")
        cell = self.numerators[
            seq_to_index(xs, self.x_size),
            w_hat,
            w,
            seq_to_index(ss, self.s_size),
            seq_to_index(ys, self.y_size),
        ]
        return Fraction(int(cell), self.denominator)

    def validate(self) -> None:
        expected = (self.x_size**self.n, self.message_count, self.message_count,
                    self.s_size**self.n, self.y_size**self.n)
        if self.numerators.shape != expected:
            raise ValueError(f"entry shape {self.numerators.shape} does not match {expected}")
        if self.denominator < 1:
            raise ValueError(f"denominator {self.denominator} is not positive")
        if (self.numerators < 0).any():
            raise ValueError("negative tensor entry")
        sums = self.numerators.sum(axis=(0, 1))
        bad = np.argwhere(sums != self.denominator)
        if bad.size:
            w, si, yi = bad[0].tolist()
            raise ValueError(
                f"entries for (w={w}, s_index={si}, y_index={yi}) sum to"
                f" {Fraction(int(sums[w, si, yi]), self.denominator)}, not 1"
            )

    def message_marginals(self) -> np.ndarray:
        """Z(w-hat | w, s^n, y^n): entries summed over the input block, as Fractions."""
        return _fractions(self.numerators.sum(axis=0), self.denominator)


def _diagonal_tensor(
    m: int, n: int, sizes: tuple[int, int, int], weight: list[list[int]], scale: int, accept, lam: Fraction
) -> SchemeTensor:
    """Z = zeta * t on the diagonal w-hat = w and zeta * (1 - t) / (M - 1)
    off it, where t = lam on the cells of the boolean table accept[x, s, y]
    and 0 elsewhere; just zeta at M = 1 (`accept` is then unused).

    `weight` holds the integers zeta[x, s] * scale.  The numerators are
    written over D = scale * den(lam) * (M - 1), so every division is exact.
    """
    den = scale if m == 1 else scale * lam.denominator * (m - 1)
    shape = (len(weight), m, m, len(weight[0]), sizes[2] ** n)
    dtype = int_dtype(den, math.prod(shape))
    zeta = np.array(weight, dtype=dtype)[:, None, None, :, None]
    if m == 1:
        return SchemeTensor(m, n, *sizes, np.broadcast_to(zeta, shape).copy(), den)
    # (t * den(lam) * (M - 1), (1 - t) * den(lam)) by whether the test passes
    on = np.array([0, lam.numerator * (m - 1)], dtype=dtype)
    off = np.array([lam.denominator, lam.denominator - lam.numerator], dtype=dtype)
    t = accept.astype(np.intp)[:, None, None]
    diagonal = np.eye(m, dtype=bool)[:, :, None, None]
    return SchemeTensor(m, n, *sizes, zeta * np.where(diagonal, on[t], off[t]), den)


def _sub_tables(scheme: AuthScheme) -> dict[int, np.ndarray]:
    """{sigma: booleans v[x, y]} over the sub-blocks x in X^n_sigma and
    y in Y^n_sigma of every tested sigma: whether `_block_test` passes on a
    sigma-block whose positions hold x and y (indexed as in `indexing`).

    The test on sigma reads only the n_sigma positions the state mapping
    gave sigma, so these tables decide it for every state block.  Each
    output sub-block is mapped once, and its kept pairs are counted for
    all input sub-blocks at once against the integer windows.
    """
    ch = scheme.channel
    tables = {}
    for s, (lo, hi) in _count_windows(scheme):
        length = scheme.state_budgets.per_symbol[s]
        # one_hot[i, k, x]: whether input sub-block i holds x at position k
        one_hot = np.array(list(all_sequences(ch.x_size, length)))[:, :, None] == np.arange(ch.x_size)
        table = np.empty((len(one_hot), ch.y_size**length), dtype=bool)
        for yi, sub_y in enumerate(all_sequences(ch.y_size, length)):
            mapped = np.array(map_with_budgets(sub_y, scheme.y_budgets[s]).output)
            # counts[i, x, y]: kept pairs (x, y); placeholder outputs match no y
            counts = np.stack([one_hot[:, mapped == y].sum(axis=1) for y in range(ch.y_size)], axis=2)
            counts = counts.reshape(len(one_hot), -1)
            table[:, yi] = ((lo <= counts) & (counts <= hi)).all(axis=1)
        tables[s] = table
    return tables


def _mapped_states(scheme: AuthScheme) -> list[tuple[int, ...]]:
    """The state mapping's output on every state block, in index order."""
    ch = scheme.channel
    return [map_with_budgets(ss, scheme.state_budgets).output for ss in all_sequences(ch.s_size, scheme.n)]


def _acceptance_table(scheme: AuthScheme, mapped_states: Sequence[Sequence[int]]) -> np.ndarray:
    """Booleans t[x, s, y]: whether the block triple passes the test, given
    the `_mapped_states` of the scheme.

    Every state block looks its sigma-blocks up in `_sub_tables` by the
    sub-block indices of each x^n and y^n.
    """
    ch, n = scheme.channel, scheme.n
    sequences = {k: np.array(list(all_sequences(k, n))).reshape(-1, n) for k in {ch.x_size, ch.y_size}}
    windows = _count_windows(scheme)
    sub_tables = _sub_tables(scheme)

    def sub_index(size, positions):
        return sequences[size][:, positions] @ size ** np.arange(len(positions) - 1, -1, -1)

    table = np.ones((ch.x_size**n, ch.s_size**n, ch.y_size**n), dtype=bool)
    for si, mapped in enumerate(mapped_states):
        for s, _window, positions in _sigma_blocks(windows, mapped):
            rows = sub_index(ch.x_size, positions)
            table[:, si] &= sub_tables[s][np.ix_(rows, sub_index(ch.y_size, positions))]
    return table


def materialize_tensor(scheme: AuthScheme) -> SchemeTensor:
    """Write the scheme out as a dense tensor (small blocks only)."""
    ch = scheme.channel
    n, m = scheme.n, scheme.message_count
    cells = ch.x_size * ch.s_size * ch.y_size
    check_cap(TENSOR_ENTRY_CAP, n * math.log2(cells) + 2 * math.log2(m), lambda: cells**n * m * m,
              f"the scheme tensor (M={m}, n={n})", "entries")
    mapped_states = _mapped_states(scheme)
    # zeta[x, s] * d^n as a product of integers, indexed by mapped state;
    # the placeholder (index |S|) gets uniform inputs
    d = math.lcm(ch.x_size, *(p.denominator for row in scheme.strategy for p in row))
    rows = [[p.numerator * (d // p.denominator) for p in row] for row in scheme.strategy]
    rows.append([d // ch.x_size] * ch.x_size)
    weight = [[math.prod(rows[s][x] for x, s in zip(xs, ms)) for ms in mapped_states]
              for xs in all_sequences(ch.x_size, n)]
    # over the lcm of the reduced denominators of zeta
    g = math.gcd(d**n, *(w for row in weight for w in row))
    weight = [[w // g for w in row] for row in weight]
    accept = _acceptance_table(scheme, mapped_states) if m > 1 else None
    return _diagonal_tensor(
        m, n, (ch.x_size, ch.s_size, ch.y_size), weight, d**n // g, accept, scheme.acceptance
    )


# -- condition checks -------------------------------------------------------


@dataclass
class ConditionReport:
    """Exhaustive exact check results; each list holds violated cells."""

    c1: list[str]
    c2: list[str]
    c3: list[str]
    combined: list[str]

    def all_pass(self) -> bool:
        return not (self.c1 or self.c2 or self.c3 or self.combined)


# the condition axes as reports name them below i = n
REPORT_AXES = ("x^i", "x tail", "wh", "w", "s^i", "tail", "y")


def _violations(family: str, i: int, n: int, mask: np.ndarray) -> list[str]:
    """One label per set cell of `mask`, `family`'s condition view at prefix
    length i with its summed axes kept at size 1, listed with the compared
    axes varying fastest.  Labels name the other axes in view order, the
    prefixes as the whole blocks x and s (and no tails) at i = n."""
    summed, compared, _ = CONDITIONS[family]
    axes = [a for a in range(7) if a not in summed and (i < n or a not in (X_TAIL, S_TAIL))]
    walk = sorted(range(len(axes)), key=lambda k: axes[k] in compared)
    cells = np.argwhere(mask.reshape([mask.shape[a] for a in axes]).transpose(walk))[:, np.argsort(walk)]
    head = f"{family}[" + (f"i={i}," if i < n else "")
    names = [REPORT_AXES[a].removesuffix("^i") if i == n else REPORT_AXES[a] for a in axes]
    return [head + ",".join(f"{k}={v}" for k, v in zip(names, cell)) + "]" for cell in cells.tolist()]


def verify_conditions(tensor: SchemeTensor) -> ConditionReport:
    """Check the four families of `ns_lp.CONDITIONS` exactly, on every cell
    at each of their prefix lengths (`combined` is implied by c1 and c3).

    Every check compares sums of cells for equality, which is the same
    on the integer numerators as on the rationals they stand for.
    """
    found = {family: [] for family in CONDITIONS}
    for family, (summed, _, _) in CONDITIONS.items():
        for i, view, reference in condition_views(
            family, tensor.numerators, tensor.n, tensor.x_size, tensor.s_size
        ):
            sums = view.sum(axis=summed, keepdims=True)
            mask = sums != sums[reference]
            if mask.any():
                found[family] += _violations(family, i, tensor.n, mask)
    return ConditionReport(**found)


# -- success probability ----------------------------------------------------


def _tensor_success(tensor: SchemeTensor, ch: ChannelWithState) -> Fraction:
    diagonal = np.trace(tensor.numerators, axis1=1, axis2=2)  # (x, s, y), summed over w
    total = sum((w * int(diagonal[cell]) for cell, w in block_law(ch, tensor.n).items()), ZERO)
    return total / (tensor.message_count * tensor.denominator)


def _draw_table(probs) -> tuple[list[float], float, int]:
    """(cum, total, hi) for drawing index i with probability probs[i] as
    bisect(cum, random() * total, 0, hi).  `cum` is the list of cumulative
    float weights `random.choices(weights=probs)` builds, and the draw is
    the expression `random.choices(range(len(probs)), cum_weights=cum)`
    evaluates on the same `random()` value, so it is the same either way;
    the checks `choices` makes on every call are made here, once."""
    cum = list(itertools.accumulate(float(p) for p in probs))
    total = cum[-1] + 0.0
    if total <= 0.0:
        raise ValueError("total of weights must be greater than zero")
    if not math.isfinite(total):
        raise ValueError("total of weights must be finite")
    return cum, total, len(cum) - 1


def _scheme_success_monte_carlo(
    scheme: AuthScheme, samples: int, seed: int
) -> tuple[float, tuple[float, float]]:
    """Sample the pipeline forward on the stream of `random.Random(seed)`.

    Each sample reads, in this order, n state floats (or one block-source
    atom float), n input floats, n output floats and, when the test passes,
    the lambda coin; a letter is `bisect(cum, u * total, 0, hi)` on its
    float u, the draw `random.choices` makes.  When no sigma is tested the
    test always passes: each sample skips its letter floats with one
    `getrandbits(64 * k)`, which reads the 2k words k `random()` calls read,
    and draws its coin; no draw table is built.  Otherwise the stream is
    read in chunks of MC_CHUNK floats into one list, whose unread tail is
    carried into the next.  The states are drawn, the state mapper and each
    tested sigma's output mapper run inline, inputs and outputs are drawn
    only where the state mapping gives a tested sigma, and the kept (x, y)
    pair counts meet the `_count_windows` windows once per sample.  At M = 1
    every sample succeeds, and nothing is drawn."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if seed < 0:
        # random.Random seeds from abs(seed), so -3 would read the stream of 3
        raise ValueError(f"seed must be >= 0, got {seed}")
    if scheme.message_count == 1:
        return 1.0, _ci95(1.0, samples)
    ch, n = scheme.channel, scheme.n
    source = ch.block_state
    windows = _count_windows(scheme)
    lam = float(scheme.acceptance)
    x_start = 1 if source is not None else n  # offsets in a sample's floats
    y_start = x_start + n
    coin = y_start + n
    # random.Random, not numpy.random: importing numpy.random raised the
    # `scheme` benchmark's peak RSS by 15% (35.8 to 41.1 MB)
    rng = random.Random(seed)
    if not windows:
        skip, draw, bits, wins = rng.getrandbits, rng.random, 64 * coin, 0
        for _ in range(samples):
            skip(bits)
            wins += draw() < lam
        p_hat = wins / samples
        return p_hat, _ci95(p_hat, samples)
    x_size, y_size = ch.x_size, ch.y_size
    # per-sample counts in flat lists: kept y at sigma * |Y| + y, and kept (x, y)
    # at (sigma * |X| + x) * |Y| + y, whose window is [0, 0] for an untested sigma
    bounds, zero = dict(windows), [0] * (x_size * y_size)
    least, most = ([c for s in range(ch.s_size) for c in bounds.get(s, (zero, zero))[i]] for i in (0, 1))
    rooms = [t for b in scheme.y_budgets for t in (b.per_symbol if b is not None else zero[:y_size])]
    y_extra = [b.extra if b is not None else 0 for b in scheme.y_budgets]
    if source is None:
        state_cum, state_total, state_hi = _draw_table(ch.state_dist)
    else:
        atoms = [ss for ss, _ in source.atoms]
        state_cum, state_total, state_hi = _draw_table(p for _, p in source.atoms)
    inputs = [_draw_table(row) for row in scheme.strategy]
    outputs = [[_draw_table(row) for row in state_slice] for state_slice in ch.kernel]
    lengths, extra = scheme.state_budgets.per_symbol, scheme.state_budgets.extra
    fresh = random.Random.random
    buf, at, wins = [], 0, 0
    for _ in range(samples):
        while at + coin >= len(buf):
            buf, at = buf[at:] + list(map(fresh, itertools.repeat(rng, MC_CHUNK))), 0
        if source is None:
            ss = [bisect(state_cum, u * state_total, 0, state_hi) for u in buf[at:at + n]]
        else:
            ss = atoms[bisect(state_cum, buf[at] * state_total, 0, state_hi)]
        # the state mapper and every tested sigma's output mapper, run
        # inline; an output mapper's spare slots read -1 once its flag drops
        counts, spare, flag = [0] * ch.s_size, extra, True
        kept, y_spare, pairs = [0] * len(rooms), y_extra[:], [0] * len(least)
        for a, x_float, y_float in zip(ss, buf[at + x_start:at + y_start], buf[at + y_start:at + coin]):
            if flag and counts[a] < lengths[a]:
                v = a
            elif flag and spare:
                spare -= 1
                continue
            else:
                flag = False
                v = next(alt for alt, c in enumerate(counts) if c < lengths[alt])
            counts[v] += 1
            if v in bounds:
                cum, total, hi = inputs[v]
                x = bisect(cum, x_float * total, 0, hi)
                cum, total, hi = outputs[a][x]
                k = v * y_size
                y = k + bisect(cum, y_float * total, 0, hi)
                if y_spare[v] < 0 or kept[y] == rooms[y]:
                    if y_spare[v] > 0:  # a placeholder output: no pair
                        y_spare[v] -= 1
                        continue
                    y_spare[v] = -1
                    y = next(alt for alt in range(k, k + y_size) if kept[alt] < rooms[alt])
                kept[y] += 1
                pairs[(v * x_size + x) * y_size + y - k] += 1
        if not (all(map(le, least, pairs)) and all(map(le, pairs, most))):
            at += coin
            continue
        wins += buf[at + coin] < lam
        at += coin + 1
    p_hat = wins / samples
    return p_hat, _ci95(p_hat, samples)


def success_probability(
    target: Union[AuthScheme, SchemeTensor],
    channel: Optional[ChannelWithState] = None,
    mode: str = "exact",
    samples: int = 100_000,
    seed: int = 0,
):
    """Probability that the decoded message equals the sent one.

    A scheme is evaluated on its own channel; a bare tensor on `channel`,
    whose alphabets must match it.  To weigh state blocks by another
    source, pass `dataclasses.replace(channel, block_state=...)`.

    Exact mode returns a Fraction: for a tensor, the average over messages
    of the diagonal entries weighted by the state source and the channel
    law; for a scheme, the `success` of `success_decomposition`.  Monte
    Carlo mode (schemes only) samples the whole pipeline forward and
    returns (estimate, 95% confidence interval).
    """
    if isinstance(target, SchemeTensor):
        if channel is None:
            raise ValueError("a channel is required to evaluate a bare tensor")
        if mode != "exact":
            raise ValueError("bare tensors only support exact evaluation")
        sizes = (target.x_size, target.s_size, target.y_size)
        if sizes != (channel.x_size, channel.s_size, channel.y_size):
            raise ValueError(
                f"tensor alphabets (|X|, |S|, |Y|) = {sizes} do not match the channel's"
                f" {(channel.x_size, channel.s_size, channel.y_size)}"
            )
        return _tensor_success(target, channel)
    if channel is not None:
        raise ValueError("a scheme is evaluated on its own channel; channel is for bare tensors")
    state_blocks(target.channel, target.n)  # rejects a block source of another length up front
    if mode == "exact":
        return success_decomposition(target).success
    if mode == "monte_carlo":
        return _scheme_success_monte_carlo(target, samples, seed)
    raise ValueError(f"mode must be 'exact' or 'monte_carlo', got {mode!r}")


@dataclass
class SuccessDecomposition:
    """Exact pieces of the success probability around the flag event F
    (all mappers finish without hitting their fallback branch)."""

    success: Fraction
    acceptance: Fraction
    p_flag: Fraction
    p_accept_given_flag: Fraction

    def lower_bound(self) -> Fraction:
        return self.acceptance * self.p_flag * self.p_accept_given_flag


def _sigma_sums(scheme: AuthScheme, block: Block, ss: Sequence[int], moves: list) -> tuple[int, ...]:
    """Sums of prod_i strategy[sigma][x_i] * N(y_i|x_i,s_i), as the integer
    weights `moves[s_i]` of each position's real state s_i, over the input
    and output sub-blocks of one sigma-block of s^n: where `_block_test`
    passes, where its output-mapper flag is set, and where both hold.  A DP
    over the positions on the kept (x, y) pair counts and the flag, all that
    the mapper and the test read (the other positions are placeholders)."""
    s, (lo, hi), positions = block
    ch, b = scheme.channel, scheme.y_budgets[s]
    layer = {((0,) * len(lo), 1): 1}  # (pair counts flat at x * |Y| + y, flag): integer weight
    for step, i in enumerate(positions):
        prev, layer = layer, {}
        for (counts, flag), weight in prev.items():
            kept = [sum(counts[y::ch.y_size]) for y in range(ch.y_size)]
            spare = flag and step - sum(kept) < b.extra
            fill = next((y for y, c in enumerate(kept) if c < b.per_symbol[y]), None)
            for row, y, w in moves[ss[i]]:
                # keep y while its budget lasts, else a placeholder while slots last, else fill
                j, f = (row + y, 1) if flag and kept[y] < b.per_symbol[y] else (None, 1) if spare else (row + fill, 0)
                key = counts if j is None else counts[:j] + (counts[j] + 1,) + counts[j + 1:]
                layer[key, f] = layer.get((key, f), 0) + weight * w
    sums = [0] * 3
    for (counts, f), weight in layer.items():
        passes = all(a <= c <= h for a, c, h in zip(lo, counts, hi))
        sums = [t + weight * v for t, v in zip(sums, (passes, f, passes and f))]
    return tuple(sums)


def success_decomposition(scheme: AuthScheme) -> SuccessDecomposition:
    """One exact pass computing the success probability together with the
    flag probability and the conditional acceptance rate, so that
    success >= acceptance * P(F=1) * P(accept | F=1) can be checked.

    Given s^n, placeholder positions (uniform inputs, no test) and the
    positions of an untested sigma (no kept pair) sum to 1, and the rest
    factors over the sigma-blocks: each probability is the
    sum over s^n of P(s^n) times the product of `_sigma_sums` over tested
    sigma.  With q = |X| * y_max, a sigma-DP makes q moves per position from
    each of its 2 * prod_y C(b_y + |X|, |X|) states (no y is kept past its
    budget b_y), and fewer than 2 * q^n_sigma in all (it has q^i states at
    most after i positions): (state blocks) * (1 + the sum over sigma of the
    smaller) terms are checked against EXACT_SUCCESS_CAP before the pass.
    """
    ch, n = scheme.channel, scheme.n
    windows = _count_windows(scheme)
    q = ch.x_size * max(sum(1 for p in row if p) for state_slice in ch.kernel for row in state_slice)
    # b.n is n_sigma; q^n_sigma is not built past the bit length of p, where it is the larger (q >= 2)
    steps = sum(min(p, q ** min(b.n, p.bit_length())) for b in (scheme.y_budgets[s] for s, _ in windows)
                for p in [b.n * q * 2 * math.prod(math.comb(t + ch.x_size, ch.x_size) for t in b.per_symbol)])
    # an i.i.d. source has (states of positive probability)^n blocks, a block source its few atoms
    blocks_log2 = n * math.log2(sum(1 for p in ch.state_dist if p)) if ch.block_state is None else 0
    check_cap(EXACT_SUCCESS_CAP, blocks_log2 + math.log2(1 + steps), lambda: state_block_count(ch, n) * (1 + steps),
              "the exact success pass", "terms", "; use monte_carlo mode")
    d = math.lcm(*(p.denominator for px in scheme.strategy for p in px),
                 *(k.denominator for rows in ch.kernel for row in rows for k in row))
    # moves[sigma][r]: (x * |Y|, y, d^2 * weight) of each (x, y) of positive weight in real state r
    moves = [[[(x * ch.y_size, y, p.numerator * k.numerator * (d // p.denominator) * (d // k.denominator))
               for x, (p, row) in enumerate(zip(px, rows)) for y, k in enumerate(row) if p and k]
              for rows in ch.kernel] for px in scheme.strategy]
    totals = [ZERO] * 3  # P(accept), P(F), P(accept and F), times d^(2 * tested positions)
    for _si, ss, p_s in state_blocks(ch, n):
        mapped = map_with_budgets(ss, scheme.state_budgets)
        parts = [1, mapped.flag, mapped.flag]
        for block in _sigma_blocks(windows, mapped.output):
            parts = [p * v for p, v in zip(parts, _sigma_sums(scheme, block, ss, moves[block[0]]))]
        totals = [t + p_s * p for t, p in zip(totals, parts)]
    scale = d ** (2 * sum(scheme.state_budgets.per_symbol[s] for s, _ in windows))
    p_accept, p_flag, p_both = (t / scale for t in totals)
    return SuccessDecomposition(
        success=scheme.acceptance * p_accept,
        acceptance=scheme.acceptance,
        p_flag=p_flag,
        p_accept_given_flag=p_both / p_flag if p_flag else ZERO,
    )


# -- hand-built toy scheme --------------------------------------------------


def _canonical_state_block(ss: Sequence[int]) -> tuple[int, ...]:
    """Extend the three supported state blocks to all of {0,1}^3 by mapping
    every block to the supported one it shares its decisive prefix with."""
    if ss[0] == 0:
        return (0, 1, 1)
    if ss[1] == 0:
        return (1, 0, 1)
    return (1, 1, 0)


def toy_product_scheme() -> SchemeTensor:
    """A hand-built 4-message, 3-use scheme for the y = x*s channel with
    the correlated source supported on blocks with exactly one zero.

    Inputs are uniform (weight 1/8); the test demands y_i = x_i on every
    position where the canonical state block is 1.  On the supported
    blocks the channel wipes exactly the one position the test ignores,
    so the right message is decoded with certainty.
    """
    n = 3
    blocks = list(all_sequences(2, n))
    accept = np.array(
        [[[all(y == x for x, y, s in zip(xs, ys, _canonical_state_block(ss)) if s == 1)
           for ys in blocks] for ss in blocks] for xs in blocks]
    )
    return _diagonal_tensor(4, n, (2, 2, 2), [[1] * 8] * 8, 8, accept, ONE)
