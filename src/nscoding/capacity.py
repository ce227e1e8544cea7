"""Capacity-style quantities for channels with state.

Float-valued computations live here: mutual informations, the
Blahut–Arimoto fixed point, the causal capacity via the strategy
channel, and an alternating-ascent lower bound for the non-causal
classical capacity with an auxiliary variable.  Everything exact-valued
(LP bounds, scheme tensors) lives elsewhere; this module works in
ordinary double precision with 0*log(0) = 0 conventions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, product
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
    "shannon_causal_capacity",
    "gp_noncausal_capacity",
    "CapacityReport",
    "capacity_table",
    "MAX_STRATEGY_LETTERS",
    "MAX_GP_RESTARTS",
    "MAX_BA_ITERATIONS",
]

MAX_STRATEGY_LETTERS = 4096
# starts of the non-causal bound's ascent: from 2 to 256 starts the bound
# moves by at most 2e-7 on z0z1 and random (3, 3, 2) channels
MAX_GP_RESTARTS = 256
# Blahut-Arimoto iterations before ConvergenceError; read at each call
MAX_BA_ITERATIONS = 100_000


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


def blahut_arimoto(p_y_x: np.ndarray, tol: float = 1e-9) -> BlahutArimotoResult:
    """Capacity of a DMC given as a row-stochastic (x, y) matrix.

    Stops when the standard per-iteration capacity bracket
    max_x D(W(.|x)||p_Y) - log2(sum_x r(x) 2^{D_x}) drops below `tol`,
    or raises ConvergenceError after MAX_BA_ITERATIONS iterations.
    The mutual-information trace is asserted non-decreasing along the
    way (up to additive float noise), which is a theorem for these
    updates and a cheap self-check in practice.
    """
    if not 0 < tol < np.inf:
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
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
        if gap < tol:
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


def ns_capacity(ch: ChannelWithState, tol: float = 1e-9) -> NsCapacityResult:
    """max_{P_X|S} I(X;Y|S): the assisted capacity with or without causality.

    The maximization splits into an independent Blahut–Arimoto problem
    per state value, weighted by P_S.
    """
    W = ch.kernel_array()
    ps = ch.state_array()
    value = 0.0
    rows = []
    for s in range(ch.s_size):
        res = blahut_arimoto(W[s], tol=tol)
        rows.append(res.input_dist)
        if ps[s] > 0:
            value += ps[s] * res.value
    return NsCapacityResult(value=value, p_x_given_s=np.array(rows))


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


def shannon_causal_capacity(ch: ChannelWithState, tol: float = 1e-9) -> float:
    """Unassisted causal capacity: ordinary capacity of the strategy channel."""
    rows, _ = strategy_channel(ch)
    return blahut_arimoto(rows, tol=tol).value


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


def _gp_ascend(
    p_u_given_s: np.ndarray,
    xmap: np.ndarray,
    W: np.ndarray,
    ps: np.ndarray,
    tol: float,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Alternating ascent from one starting point; returns (value, P_{U|S}, xmap)."""
    s_size, x_size, y_size = W.shape
    n_u = xmap.shape[0]
    p = p_u_given_s.copy()
    xm = xmap.copy()
    for _round in range(60):
        # --- coordinate ascent in P_{U|S} with the decoder as the dual block
        prev = -np.inf
        for _ in range(2000):
            w_uy = W[np.arange(s_size)[:, None], xm.T, :]  # (s, u, y)
            joint = ps[:, None, None] * p[:, :, None] * w_uy  # (s, u, y)
            p_uy = joint.sum(axis=0)  # (u, y)
            py = p_uy.sum(axis=0)
            q = np.full_like(p_uy, 1.0 / n_u)
            np.divide(p_uy, py[None, :], out=q, where=py[None, :] > 0)
            logq = np.full_like(q, -np.inf)
            np.log2(q, out=logq, where=q > 0)
            # d[s, u] = sum_y W(y|u,s) log2 q(u|y); -inf where the support escapes q
            contrib = np.zeros_like(w_uy)
            np.multiply(w_uy, logq[None, :, :], out=contrib, where=w_uy > 0)
            d = np.where(np.any((w_uy > 0) & (logq[None, :, :] == -np.inf), axis=2), -np.inf, contrib.sum(axis=2))
            shift = d.max(axis=1, keepdims=True)
            weights = np.exp2(d - shift)
            p = weights / weights.sum(axis=1, keepdims=True)
            value = float(np.dot(ps, np.log2(weights.sum(axis=1)) + shift[:, 0]))
            if value - prev < tol:
                break
            prev = value
        # --- greedy improvement of the deterministic (u, s) -> x assignment
        best = _gp_objective(p, xm, W, ps)
        improved = False
        for u in range(n_u):
            for s in range(s_size):
                original = xm[u, s]
                for cand in range(x_size):
                    if cand == original:
                        continue
                    xm[u, s] = cand
                    trial = _gp_objective(p, xm, W, ps)
                    if trial > best + 1e-12:
                        best = trial
                        original = cand
                        improved = True
                xm[u, s] = original
        if not improved:
            break
    return _gp_objective(p, xm, W, ps), p, xm


def _check_starts(restarts: int, seed: int) -> None:
    if restarts < 2:
        raise ValueError(f"restarts must be >= 2 (the two informed starts), got {restarts}")
    check_cap(MAX_GP_RESTARTS, 0, lambda: restarts, "the non-causal lower bound", "restarts")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def gp_noncausal_capacity(
    ch: ChannelWithState,
    restarts: int = 8,
    tol: float = 1e-9,
    seed: int = 0,
) -> float:
    """Lower bound on the unassisted non-causal capacity.

    Maximizes I(U;Y) - I(U;S) over an auxiliary alphabet of size
    |X|*|S| and deterministic encodings x(u,s) by alternating ascent.
    The landscape is not concave, so the result is a certified
    *achievable* value, not a certified optimum; restarts include two
    informed starting points (the per-state maximizer, which is exact
    for state-revealing channels, and the causal solution, which makes
    the bound at least the causal capacity) plus seeded random starts.
    `restarts` counts all starts, at least 2 and at most MAX_GP_RESTARTS.
    States of probability zero leave the objective alone and are left out
    of the ascent.
    """
    _check_starts(restarts, seed)
    W = ch.kernel_array()
    ps = ch.state_array()
    s_size, x_size = ch.s_size, ch.x_size
    n_u = x_size * s_size
    starts: list[tuple[np.ndarray, np.ndarray]] = []

    # informed start 1: u = (x, s'), strategy from the per-state maximizer.
    per_state = ns_capacity(ch, tol=max(tol, 1e-11)).p_x_given_s
    p1 = np.zeros((s_size, n_u))
    xm1 = np.zeros((n_u, s_size), dtype=int)
    for x in range(x_size):
        for sp in range(s_size):
            u = x * s_size + sp
            xm1[u, :] = x
            p1[sp, u] = per_state[sp, x]
    p1 = np.maximum(p1, 0)
    p1 /= p1.sum(axis=1, keepdims=True)
    starts.append((p1, xm1))

    # informed start 2: U independent of S carrying the causal strategy letters.
    rows, maps = strategy_channel(ch)
    causal = blahut_arimoto(rows, tol=max(tol, 1e-11))
    order = np.argsort(-causal.input_dist)[:n_u]
    p2 = np.tile(causal.input_dist[order], (s_size, 1))
    p2 /= p2.sum(axis=1, keepdims=True)
    xm2 = np.array([[maps[i][s] for s in range(s_size)] for i in order], dtype=int)
    starts.append((p2, xm2))

    def random_starts():  # each drawn just before its ascent, which draws nothing
        rng = np.random.default_rng(seed)
        for _ in range(restarts - len(starts)):
            yield rng.dirichlet(np.ones(n_u), size=s_size), rng.integers(0, x_size, size=(n_u, s_size))

    live = ps > 0  # a dead state's row of the ascent's d may be all -inf
    W, ps = W[live], ps[live]
    best = 0.0  # a constant U achieves 0, so the bound is never negative
    for p0, xm0 in chain(starts, random_starts()):
        value, _, _ = _gp_ascend(p0[live], xm0[:, live], W, ps, tol=tol)
        best = max(best, value)
    return best


@dataclass
class CapacityReport:
    """The four assistance/causality cells."""

    classical_causal: float
    classical_noncausal: float
    ns_causal: float
    ns_noncausal: float

    def cells(self) -> dict[str, float]:
        return {
            "classical_causal": self.classical_causal,
            "classical_noncausal": self.classical_noncausal,
            "ns_causal": self.ns_causal,
            "ns_noncausal": self.ns_noncausal,
        }


def capacity_table(
    ch: ChannelWithState,
    tol: float = 1e-9,
    gp_restarts: int = 8,
    seed: int = 0,
) -> CapacityReport:
    """All four capacity cells of a channel with state.

    Assistance removes the causal penalty, so both assisted cells equal
    max I(X;Y|S); the classical non-causal cell is an approximate lower
    bound (see gp_noncausal_capacity).
    """
    _check_starts(gp_restarts, seed)
    ns = ns_capacity(ch, tol=tol)
    causal = shannon_causal_capacity(ch, tol=tol)
    gp = gp_noncausal_capacity(ch, restarts=gp_restarts, tol=max(tol, 1e-11), seed=seed)
    return CapacityReport(
        classical_causal=causal,
        classical_noncausal=gp,
        ns_causal=ns.value,
        ns_noncausal=ns.value,
    )
