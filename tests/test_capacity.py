import itertools

import numpy as np
import pytest
from fractions import Fraction
from math import log2

from nscoding import capacity
from nscoding.capacity import (
    BlahutArimotoResult,
    CapacityReport,
    blahut_arimoto,
    capacity_table,
    conditional_mi,
    gp_noncausal_capacity,
    ns_capacity,
    strategy_channel,
)
from nscoding.capacity import ConvergenceError
from nscoding.channels import builtin_product_xs, builtin_z0z1, lift_csir, make_channel

H = Fraction(1, 2)


def hb(p):
    return 0.0 if p in (0.0, 1.0) else -p * log2(p) - (1 - p) * log2(1 - p)


def mi_oracle(joint):
    """Direct summation over the joint table, 0*log(0) = 0."""
    joint = np.asarray(joint, float)
    px = joint.sum(1)
    py = joint.sum(0)
    total = 0.0
    for i in range(joint.shape[0]):
        for j in range(joint.shape[1]):
            if joint[i, j] > 0:
                total += joint[i, j] * log2(joint[i, j] / (px[i] * py[j]))
    return total


def grid_search_binary_capacity(rows, step=1e-6):
    """Capacity of a 2-input channel by brute grid over the input simplex."""
    rows = np.asarray(rows, float)
    p = np.arange(0.0, 1.0 + step, step)
    joint0 = p[:, None] * rows[0][None, :]
    joint1 = (1 - p)[:, None] * rows[1][None, :]
    py = joint0 + joint1
    def ent(m):
        out = np.zeros_like(m)
        np.multiply(m, np.log2(m, out=np.zeros_like(m), where=m > 0), out=out, where=m > 0)
        return -out.sum(axis=1)
    hy = ent(py)
    hy_x = p * ent(rows[0][None, :])[0] + (1 - p) * ent(rows[1][None, :])[0]
    return float(np.max(hy - hy_x))


def test_conditional_mi_matches_direct_summation():
    ch = builtin_z0z1()
    strat = [[0.5, 0.5], [0.5, 0.5]]
    got = conditional_mi(ch, strat)
    # oracle: sum over the 8-cell joint P(s)P(x|s)N(y|x,s)
    expect = 0.0
    for s in (0, 1):
        joint = np.array([[0.5 * float(ch.prob(y, x, s)) for y in (0, 1)] for x in (0, 1)])
        expect += 0.5 * mi_oracle(joint)
    assert got == pytest.approx(expect, abs=1e-15)
    assert got == pytest.approx(hb(0.25) - 0.5, abs=1e-12)  # = 0.311278124459133
    assert got == pytest.approx(0.311278124459133, abs=1e-12)


def test_conditional_mi_identity_channel():
    ident = [[1, 0], [0, 1]]
    ch = make_channel([ident, ident], [H, H])
    assert conditional_mi(ch, [[0.5, 0.5], [0.5, 0.5]]) == pytest.approx(1.0, abs=1e-12)


def test_conditional_mi_validates_strategy():
    ch = builtin_z0z1()
    with pytest.raises(ValueError, match="shape"):
        conditional_mi(ch, [[1.0, 0.0]])
    with pytest.raises(ValueError, match="probability"):
        conditional_mi(ch, [[0.9, 0.3], [0.5, 0.5]])


def test_blahut_arimoto_known_channels():
    # noiseless binary channel
    res = blahut_arimoto(np.eye(2))
    assert res.value == pytest.approx(1.0, abs=1e-9)
    # useless channel
    res = blahut_arimoto(np.array([[0.5, 0.5], [0.5, 0.5]]))
    assert res.value == pytest.approx(0.0, abs=1e-12)
    # BSC(1/8)
    res = blahut_arimoto(np.array([[0.875, 0.125], [0.125, 0.875]]))
    assert res.value == pytest.approx(1 - hb(0.125), abs=1e-9)
    assert res.input_dist == pytest.approx([0.5, 0.5], abs=1e-6)


@pytest.mark.parametrize("kernel, message", [
    (np.ones(2), r"^kernel must be 2-D, got shape \(2,\)$"),
    (np.array([[0.5, 0.6], [0.5, 0.5]]), "^kernel rows must be probability distributions$"),
])
def test_blahut_arimoto_refuses_a_kernel_that_is_no_channel(kernel, message):
    with pytest.raises(ValueError, match=message):
        blahut_arimoto(kernel)


def test_blahut_arimoto_trace_monotone():
    rows = np.array([[0.7, 0.2, 0.1], [0.1, 0.1, 0.8]])
    res = blahut_arimoto(rows)
    diffs = np.diff(res.trace)
    assert np.all(diffs >= -1e-12)
    assert res.trace[-1] >= res.trace[0]


def test_blahut_arimoto_nonconvergence_reports_gap(monkeypatch):
    monkeypatch.setattr(capacity, "MAX_BA_ITERATIONS", 3)
    with pytest.raises(ConvergenceError, match="^no convergence after 3 iterations"):
        blahut_arimoto(np.array([[1.0, 0.0], [0.5, 0.5]]))


def test_ns_capacity_z0z1_grid_oracle():
    ch = builtin_z0z1()
    res = ns_capacity(ch)
    # each state is a Z-channel; capacity by brute grid, then average
    grid = 0.0
    for s in (0, 1):
        rows = [[float(ch.prob(y, x, s)) for y in (0, 1)] for x in (0, 1)]
        grid += 0.5 * grid_search_binary_capacity(rows)
    assert res.value == pytest.approx(grid, abs=1e-6)
    assert res.value == pytest.approx(log2(5 / 4), abs=1e-9)
    # maximizer puts 2/5 on the noisy input in each state
    assert res.p_x_given_s[0] == pytest.approx([0.6, 0.4], abs=1e-5)
    assert res.p_x_given_s[1] == pytest.approx([0.4, 0.6], abs=1e-5)


def test_strategy_channel_rows():
    rows, maps = strategy_channel(builtin_z0z1())
    assert maps == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert rows == pytest.approx(np.array([[0.75, 0.25], [0.5, 0.5], [0.5, 0.5], [0.25, 0.75]]))


def shannon_causal_capacity(ch):
    """Unassisted causal capacity: the ordinary capacity of the strategy
    channel, `capacity_table`'s causal cell without the non-causal ascent."""
    return blahut_arimoto(strategy_channel(ch)[0]).value


def test_shannon_causal_z0z1():
    # the constant maps form an effective BSC(1/4); the mixed maps are useless
    got = shannon_causal_capacity(builtin_z0z1())
    assert got == pytest.approx(1 - hb(0.25), abs=1e-8)
    # no sampled strategy-channel input beats the reported value
    rows, _ = strategy_channel(builtin_z0z1())
    rng = np.random.default_rng(0)
    for _ in range(200):
        p = rng.dirichlet(np.ones(4))
        assert mi_oracle(p[:, None] * rows) <= got + 1e-8


def test_strategy_channel_cap():
    ch = make_channel([[[1, 0]] * 8] * 5, [Fraction(1, 5)] * 5)  # 8^5 = 32768 letters
    with pytest.raises(ValueError, match="cap"):
        strategy_channel(ch)


# a kernel whose ascent, at P_S = (0, 1), once met a row of -inf scores for
# the state of probability zero: NaN weights (a RuntimeWarning, an error
# under the test settings) and a bound below the causal capacity; (1, 0) is
# the mirror case
DEAD_STATE_KERNEL = [
    [["3/8", "1/8", "1/2"], ["1/8", "5/8", "1/4"], ["1/4", "5/8", "1/8"]],
    [["1/8", "0", "7/8"], ["0", "3/4", "1/4"], ["1/2", "1/2", "0"]],
]


@pytest.mark.parametrize("ch", [
    builtin_z0z1(),
    lift_csir(builtin_z0z1()),
    builtin_product_xs(),
    make_channel(DEAD_STATE_KERNEL, ["0", "1"]),
    make_channel(DEAD_STATE_KERNEL, ["1", "0"]),
], ids=["z0z1", "z0z1-csir", "product-xs", "dead-state-0", "dead-state-1"])
def test_gp_bound_sandwich(ch):
    causal = shannon_causal_capacity(ch)
    ns = ns_capacity(ch).value
    gp = gp_noncausal_capacity(ch)
    assert causal - 1e-9 <= gp <= ns + 1e-9


def test_gp_causal_start_carries_the_causal_capacity(monkeypatch):
    # the first start is the causal optimum over every strategy letter; a
    # start truncated to |X|*|S| letters once read 0.77382 here against the
    # causal 0.78610, and only the ascent lifted it back
    ch = make_channel(DEAD_STATE_KERNEL, ["0", "1"])
    starts = []
    ascend = capacity._gp_ascend

    def spy(p0, xmap, W, ps):
        starts.append(capacity._gp_objective(p0, xmap, W, ps))
        return ascend(p0, xmap, W, ps)

    monkeypatch.setattr(capacity, "_gp_ascend", spy)
    gp = gp_noncausal_capacity(ch)
    causal = shannon_causal_capacity(ch)
    assert len(starts) == 2
    assert starts[0] == pytest.approx(causal, abs=1e-12)
    assert causal == pytest.approx(0.786103869137, abs=1e-9)
    assert gp >= max(starts) - 1e-12


def reference_gp_ascents(ch, starts, iterations=100_000, tol=1e-12):
    """I(T;Y) - I(T;S) after the alternating ascent over strategy letters
    t (state -> input) from each start P(t|s) = starts[k, s], written out
    apart from the library: W(y|t,s) from the exact kernel, q(t|y) by
    Bayes, then P(t|s) proportional to 2^(sum_y W(y|t,s) log2 q(t|y)),
    until no start gains `tol` in a step."""
    maps = list(itertools.product(range(ch.x_size), repeat=ch.s_size))
    ps = np.array([float(p) for p in ch.state_dist])
    w = np.array([[[float(ch.prob(y, t[s], s)) for y in range(ch.y_size)] for t in maps]
                  for s in range(ch.s_size)])
    p = starts
    previous = -np.inf
    for _ in range(iterations):
        p_ty = (ps[None, :, None, None] * p[..., None] * w[None]).sum(axis=1)  # (start, t, y)
        with np.errstate(divide="ignore", invalid="ignore"):  # 0 * log2(0) is dropped
            logq = np.log2(p_ty / p_ty.sum(axis=1, keepdims=True))
            score = np.where(w[None] > 0, w[None] * logq[:, None], 0.0).sum(axis=3)
        top = score.max(axis=2, keepdims=True)
        p = np.exp2(score - top)
        value = (np.log2(p.sum(axis=2)) + top[..., 0]) @ ps
        p /= p.sum(axis=2, keepdims=True)
        if np.all(value - previous < tol):
            break
        previous = value
    return [mi_oracle((ps[:, None, None] * pk[:, :, None] * w).sum(axis=0)) - mi_oracle((ps[:, None] * pk).T)
            for pk in p]


RANDOM_SHAPES = [(2, 2, 2), (3, 3, 2), (2, 3, 2), (3, 2, 2), (2, 2, 3)]


def random_channel(rng, x_size, y_size, s_size):
    def row(size, low):
        counts = rng.integers(low, 9, size=size)
        while not counts.sum():
            counts = rng.integers(low, 9, size=size)
        return [Fraction(int(c), int(counts.sum())) for c in counts]

    return make_channel([[row(y_size, 0) for _ in range(x_size)] for _ in range(s_size)], row(s_size, 1))


def test_gp_bound_matches_the_best_of_five_random_start_ascents():
    rng = np.random.default_rng(28)
    for i in range(20):
        ch = random_channel(rng, *RANDOM_SHAPES[i % len(RANDOM_SHAPES)])
        starts = rng.dirichlet(np.ones(ch.x_size**ch.s_size), size=(5, ch.s_size))
        best = max(reference_gp_ascents(ch, starts))
        gp = gp_noncausal_capacity(ch)
        assert gp == pytest.approx(best, abs=1e-6), (i, gp, best)
        assert gp <= ns_capacity(ch).value + 1e-9


def test_gp_state_independent_channel_recovers_capacity():
    bsc = [[Fraction(7, 8), Fraction(1, 8)], [Fraction(1, 8), Fraction(7, 8)]]
    ch = make_channel([bsc, bsc], [H, H])
    gp = gp_noncausal_capacity(ch)
    assert gp == pytest.approx(1 - hb(0.125), abs=1e-3)


def test_capacity_table_csir_lift_collapses():
    rep = capacity_table(lift_csir(builtin_z0z1()))
    cells = list(rep.cells().values())
    for v in cells:
        assert v == pytest.approx(log2(5 / 4), abs=1e-3)
    assert rep.ns_causal == rep.ns_noncausal


def test_capacity_table_ordering_z0z1():
    rep = capacity_table(builtin_z0z1())
    assert rep.classical_causal <= rep.classical_noncausal + 1e-9
    assert rep.classical_noncausal <= rep.ns_causal + 1e-9
    assert rep.ns_causal == rep.ns_noncausal


def count_blahut_arimoto_runs(monkeypatch):
    runs = []
    solve = capacity.blahut_arimoto

    def spy(*args, **kwargs):
        runs.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(capacity, "blahut_arimoto", spy)
    return runs


def test_capacity_table_refuses_the_strategy_cap_before_any_blahut_arimoto(monkeypatch):
    # 2^13 = 8192 letters; the 13 per-state solves of the assisted cells once ran first
    runs = count_blahut_arimoto_runs(monkeypatch)
    ch = make_channel([[[1, 0], [0, 1]]] * 13, [Fraction(1, 13)] * 13)
    with pytest.raises(ValueError, match="^the strategy alphabet needs 8192 letters, above the cap 4096$"):
        capacity_table(ch)
    assert runs == []


def test_capacity_table_runs_each_blahut_arimoto_once(monkeypatch):
    # one per state for the assisted cells and one on the strategy channel,
    # whose optimum also starts the non-causal ascent: |S| + 1
    runs = count_blahut_arimoto_runs(monkeypatch)
    capacity_table(builtin_z0z1())
    assert len(runs) == 3


def test_capacity_table_skips_the_blahut_arimoto_of_a_state_that_never_occurs(monkeypatch):
    # state 1 has probability zero: only state 0 and the strategy channel are solved
    runs = count_blahut_arimoto_runs(monkeypatch)
    capacity_table(make_channel(DEAD_STATE_KERNEL, ["0", "1"]))
    assert len(runs) == 2


# state 1, of probability zero, is the strategy channel of the 9th
# random_channel(np.random.default_rng(0), 2, 4, 3), in exact arithmetic:
# Blahut-Arimoto once ran out of iterations on it (residual gap 7.403e-07)
# and refused a channel whose four cells are all 2
SLOW_DEAD_STATE = [
    ["1465/3762", "145/792", "3841/15048", "36/209"],
    ["74/209", "2/11", "61/209", "36/209"],
    ["476/1881", "250/1089", "5089/20691", "624/2299"],
    ["91/418", "221/968", "5197/18392", "624/2299"],
    ["269/990", "361/792", "1079/3960", "0"],
    ["13/55", "5/11", "17/55", "0"],
    ["67/495", "547/1089", "1433/5445", "12/121"],
    ["1/10", "485/968", "1451/4840", "12/121"],
]


def test_a_state_that_never_occurs_is_not_solved_for():
    noiseless = [[int(y == x % 4) for y in range(4)] for x in range(8)]
    ch = make_channel([noiseless, SLOW_DEAD_STATE], ["1", "0"])
    for name, value in capacity_table(ch).cells().items():
        assert value == pytest.approx(2.0, abs=1e-9), name
    ns = ns_capacity(ch)
    assert ns.p_x_given_s[1] == pytest.approx([1 / 8] * 8)


def test_conditional_mi_leaves_out_a_state_that_never_occurs():
    ch = make_channel(DEAD_STATE_KERNEL, ["1", "0"])
    uniform = [[1 / 3] * 3] * 2
    live = np.array([[float(p) / 3 for p in row] for row in ch.kernel[0]])
    assert conditional_mi(ch, uniform) == pytest.approx(mi_oracle(live), abs=1e-15)


def test_capacity_cells_stay_finite_when_input_weights_underflow():
    # Blahut-Arimoto drives some strategy-channel input weights of this
    # channel down to denormals; the mutual information must not divide
    # by their underflowed px * py.
    ch = make_channel(
        [
            [["1/4", "3/4", "0"], ["1", "0", "0"], ["0", "3/4", "1/4"]],
            [["0", "1/4", "3/4"], ["1/4", "1/4", "1/2"], ["0", "3/4", "1/4"]],
        ],
        ["3/4", "1/4"],
    )
    cells = capacity_table(ch).cells()
    tol = 1e-6
    top = log2(min(ch.x_size, ch.y_size))
    assert all(np.isfinite(v) and -tol <= v <= top + tol for v in cells.values()), cells
    assert cells["classical_causal"] <= cells["ns_causal"] + tol
    assert cells["classical_noncausal"] <= cells["ns_noncausal"] + tol
