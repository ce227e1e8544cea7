"""Capacity-style quantities for channels with state.

Float-valued computations live here: mutual informations, the
Blahut–Arimoto fixed point, the causal capacity via the strategy
channel, and an alternating-ascent lower bound for the non-causal
classical capacity over the same strategy letters.  Everything exact-valued
(LP bounds, scheme tensors) lives elsewhere; this module works in
ordinary double precision with 0*log(0) = 0 conventions.

The stopping rules, TOL and MAX_BA_ITERATIONS, are module constants
read at each call, with no per-call knob.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from itertools import product
from typing import Sequence

import numpy as np

from .channels import ChannelWithState
from .rational import check_cap

__all__ = [
    "BlahutArimotoResult",
    "blahut_arimoto",
    "conditional_mi",
    "NsCapacityResult",
    "ns_capacity",
    "gp_noncausal_capacity",
    "CapacityReport",
    "capacity_table",
    "MAX_STRATEGY_LETTERS",
    "MAX_BA_ITERATIONS",
    "TOL",
]

MAX_STRATEGY_LETTERS = 4096
# Blahut-Arimoto iterations before ConvergenceError; read at each call
MAX_BA_ITERATIONS = 100_000
# Blahut-Arimoto's capacity bracket and an ascent step's gain stop below it
TOL = 1e-9


class ConvergenceError(RuntimeError):
    """Blahut–Arimoto ran out of iterations before reaching tolerance."""

    def __init__(self, iterations: int, gap: float):
        super().__init__(
            f"no convergence after {iterations} iterations; residual capacity gap {gap:.3e}"
        )


def _mutual_information(joint: np.ndarray) -> float:
    """I between the two axes of a joint distribution, in bits."""
    # Sum of logs, not the log of joint / (px * py): input weights driven
    # to denormals make that product underflow to zero.
    mask = joint > 0
    px = np.broadcast_to(joint.sum(axis=1, keepdims=True), joint.shape)[mask]
    py = np.broadcast_to(joint.sum(axis=0, keepdims=True), joint.shape)[mask]
    p = joint[mask]
    return float(np.sum(p * (np.log2(p) - np.log2(px) - np.log2(py))))


@dataclass
class BlahutArimotoResult:
    value: float
    input_dist: np.ndarray
    iterations: int
    trace: list[float] = field(repr=False)
    gap: float = 0.0


def blahut_arimoto(p_y_x: np.ndarray) -> BlahutArimotoResult:
    """Capacity of a DMC given as a row-stochastic (x, y) matrix.

    Stops when the standard per-iteration capacity bracket
    max_x D(W(.|x)||p_Y) - log2(sum_x r(x) 2^{D_x}) drops below TOL,
    or raises ConvergenceError after MAX_BA_ITERATIONS iterations.
    The mutual-information trace is asserted non-decreasing along the
    way (up to additive float noise), which is a theorem for these
    updates and a cheap self-check in practice.
    """
    W = np.asarray(p_y_x, dtype=float)
    if W.ndim != 2:
        raise ValueError(f"kernel must be 2-D, got shape {W.shape}")
    if np.any(W < 0) or not np.allclose(W.sum(axis=1), 1.0, atol=1e-12):
        raise ValueError("kernel rows must be probability distributions")
    nx = W.shape[0]
    support = W > 0
    logW = np.zeros_like(W)
    np.log2(W, out=logW, where=support)

    r = np.full(nx, 1.0 / nx)
    trace: list[float] = []
    gap = np.inf
    for it in range(1, MAX_BA_ITERATIONS + 1):
        py = r @ W
        log_py = np.zeros_like(py)
        np.log2(py, out=log_py, where=py > 0)
        # D_x = D(W(.|x) || p_Y); wherever r(x) > 0, W(y|x) > 0 implies py(y) > 0
        D = np.sum(np.where(support, W * (logW - log_py[None, :]), 0.0), axis=1)
        current = float(r @ D)
        if trace and current < trace[-1] - 1e-12:
            raise AssertionError(
                f"mutual information decreased at iteration {it}: {trace[-1]} -> {current}"
            )
        trace.append(current)
        scaled = r * np.exp2(D - D.max())
        lower = float(np.log2(scaled.sum()) + D.max())
        upper = float(D.max())
        gap = upper - lower
        r = scaled / scaled.sum()
        if gap < TOL:
            value = _mutual_information(r[:, None] * W)
            trace.append(value)
            return BlahutArimotoResult(value=value, input_dist=r, iterations=it, trace=trace, gap=gap)
    raise ConvergenceError(MAX_BA_ITERATIONS, gap)


def conditional_mi(ch: ChannelWithState, p_x_given_s: Sequence[Sequence[float]]) -> float:
    """I(X;Y|S) in bits for a given per-state input strategy."""
    strat = np.asarray(p_x_given_s, dtype=float)
    if strat.shape != (ch.s_size, ch.x_size):
        raise ValueError(f"strategy shape {strat.shape} != ({ch.s_size}, {ch.x_size})")
    if np.any(strat < 0) or not np.allclose(strat.sum(axis=1), 1.0, atol=1e-9):
        raise ValueError("strategy rows must be probability distributions")
    W = ch.kernel_array()
    ps = ch.state_array()
    total = 0.0
    for s in range(ch.s_size):
        if ps[s] == 0:
            continue
        joint = strat[s][:, None] * W[s]
        total += ps[s] * _mutual_information(joint)
    return total


@dataclass
class NsCapacityResult:
    value: float
    p_x_given_s: np.ndarray


def ns_capacity(ch: ChannelWithState) -> NsCapacityResult:
    """max_{P_X|S} I(X;Y|S): the assisted capacity with or without causality.

    The maximization splits into an independent Blahut–Arimoto problem
    per state value, weighted by P_S.  A state of probability zero weighs
    nothing and is not solved for: its row stays uniform.
    """
    W = ch.kernel_array()
    ps = ch.state_array()
    value = 0.0
    rows = np.full((ch.s_size, ch.x_size), 1 / ch.x_size)
    for s in np.flatnonzero(ps):
        res = blahut_arimoto(W[s])
        rows[s] = res.input_dist
        value += ps[s] * res.value
    return NsCapacityResult(value=value, p_x_given_s=rows)


def strategy_channel(ch: ChannelWithState) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """The causal reduction: one input letter per map state -> input.

    Returns the (|X|^|S|, |Y|) kernel rows
    W(y|u) = sum_s P_S(s) N(y|u(s), s) and the list of maps, ordered
    lexicographically by (u(0), u(1), ...).
    """
    check_cap(MAX_STRATEGY_LETTERS, ch.s_size * np.log2(ch.x_size), lambda: ch.x_size**ch.s_size,
              "the strategy alphabet", "letters")
    W = ch.kernel_array()
    ps = ch.state_array()
    maps = list(product(range(ch.x_size), repeat=ch.s_size))
    rows = np.zeros((len(maps), ch.y_size))
    for i, u in enumerate(maps):
        for s in range(ch.s_size):
            rows[i] += ps[s] * W[s, u[s]]
    return rows, maps


# -- non-causal lower bound ------------------------------------------------


def _gp_objective(p_u_given_s: np.ndarray, xmap: np.ndarray, W: np.ndarray, ps: np.ndarray) -> float:
    """I(U;Y) - I(U;S) for P_{U|S}, a map (u,s) -> x, and kernel W[s,x,y]."""
    s_size = p_u_given_s.shape[0]
    joint_us = ps[:, None] * p_u_given_s  # (s, u)
    p_y_given_us = W[np.arange(s_size)[:, None], xmap.T, :]  # (s, u, y)
    joint_usy = joint_us[:, :, None] * p_y_given_us  # (s, u, y)
    i_uy = _mutual_information(joint_usy.sum(axis=0))  # joint over (u, y)
    i_us = _mutual_information(joint_us.T)
    return i_uy - i_us


def _gp_ascend(p_u_given_s: np.ndarray, xmap: np.ndarray, W: np.ndarray, ps: np.ndarray) -> float:
    """Ascent in P_{U|S} for a fixed input map x(u, s), from one start.

    Alternates the decoder q(u|y) = P(u|y) with P(u|s) proportional to
    2^d(s,u), d(s,u) = sum_y W(y|x(u,s),s) log2 q(u|y); no step lowers
    I(U;Y) - I(U;S).  Stops at a step that gains nothing, or that gains
    less than TOL while the geometric tail of the gains is below TOL
    too, or after MAX_BA_ITERATIONS steps, and returns the objective
    reached, which is achievable either way.
    """
    n_u = xmap.shape[0]
    w = np.moveaxis(W[np.arange(W.shape[0])[:, None], xmap.T, :], 2, 0).copy()  # (y, s, u)
    weighted = w * ps[None, :, None]
    p = p_u_given_s
    prev = gain = -np.inf
    for _ in range(MAX_BA_ITERATIONS):
        p_yu = np.einsum("su,ysu->yu", p, weighted)
        py = p_yu.sum(axis=1, keepdims=True)
        q = np.full_like(p_yu, 1.0 / n_u)
        np.divide(p_yu, py, out=q, where=py > 0)
        logq = np.zeros_like(q)
        np.log2(q, out=logq, where=q > 0)
        d = np.einsum("ysu,yu->su", w, logq)
        if not q.all():  # -inf where the support escapes q
            d[np.einsum("ysu,yu->su", w, q == 0) > 0] = -np.inf
        shift = d.max(axis=1, keepdims=True)
        weights = np.exp2(d - shift)
        total = weights.sum(axis=1)
        p = weights / total[:, None]
        value = float(ps @ (np.log2(total) + shift[:, 0]))
        gain, last = value - prev, gain
        # the tail is gain * r / (1 - r), r = gain / last: an ascent slowed
        # near a boundary optimum gains less than TOL a step long before it
        # is within TOL; the step rule alone stopped 1.1e-6 short on a random
        # (2, 3, 2) channel
        if gain <= 0 or gain < TOL and gain * gain < TOL * (last - gain):
            break
        prev = value
    return _gp_objective(p, xmap, W, ps)


def _gp_bound(ch: ChannelWithState, maps: list[tuple[int, ...]], causal_dist: np.ndarray) -> float:
    """The ascent over the strategy letters `maps` from the causal optimum
    `causal_dist`, tiled over states, and from its even mix with the
    uniform distribution; the larger value."""
    live = ch.state_array() > 0  # a dead state's row of the ascent's d may be all -inf
    W, ps = ch.kernel_array()[live], ch.state_array()[live]
    xmap = np.array(maps)[:, live]
    tiled = np.tile(causal_dist, (len(ps), 1))
    starts = (tiled, (tiled + 1 / len(maps)) / 2)
    # a constant U achieves 0, so the bound is never negative
    return max(0.0, *(_gp_ascend(p0, xmap, W, ps) for p0 in starts))


def gp_noncausal_capacity(ch: ChannelWithState) -> float:
    """Lower bound on the unassisted non-causal (Gelfand-Pinsker) capacity.

    Maximizes I(T;Y) - I(T;S) over P_{T|S} on the strategy letters t of
    `strategy_channel`, which send state s to input t(s).  That alphabet
    loses nothing: a pair (U, x(u,s)) does no better than the strategy
    T = x(U,.), since I(U;Y|T) <= I(U;S|T).  The objective is not concave
    in P_{T|S}, so the ascent (`_gp_ascend`) returns an achievable value,
    not a certified optimum.  It starts from the causal optimum, where the
    objective is the causal capacity, so the bound is at least that.
    States of probability zero leave the objective alone and are left out
    of the ascent.
    """
    rows, maps = strategy_channel(ch)
    return _gp_bound(ch, maps, blahut_arimoto(rows).input_dist)


@dataclass
class CapacityReport:
    """The four assistance/causality cells."""

    classical_causal: float
    classical_noncausal: float
    ns_causal: float
    ns_noncausal: float

    def cells(self) -> dict[str, float]:
        return asdict(self)


def capacity_table(ch: ChannelWithState) -> CapacityReport:
    """All four capacity cells of a channel with state.

    Assistance removes the causal penalty, so both assisted cells equal
    max I(X;Y|S); the classical non-causal cell is an achievable lower
    bound (see gp_noncausal_capacity), whose ascent starts from the
    causal cell's Blahut-Arimoto optimum.  The strategy alphabet is
    refused above its cap before any Blahut-Arimoto run.  Every cell takes
    the state i.i.d. from `state_dist`: an attached block source is not read.
    """
    rows, maps = strategy_channel(ch)
    causal = blahut_arimoto(rows)
    ns = ns_capacity(ch)
    return CapacityReport(
        classical_causal=causal.value,
        classical_noncausal=_gp_bound(ch, maps, causal.input_dist),
        ns_causal=ns.value,
        ns_noncausal=ns.value,
    )
