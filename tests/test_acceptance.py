"""Acceptance suite: the ten headline claims, one test each.

Each test prints a single PASS line on success (visible with -s or in
captured output) and enforces the runtime budget where one applies.
Everything asserted here is either exact rational arithmetic or carries
an explicit tolerance.
"""

import random
import time
from fractions import Fraction as F

import numpy as np

from nscoding.auth_scheme import (
    build_auth_scheme,
    compute_mu,
    materialize_tensor,
    success_decomposition,
    success_probability,
    toy_product_scheme,
    verify_conditions,
)
from nscoding.capacity import blahut_arimoto, capacity_table, conditional_mi, ns_capacity
from nscoding.channels import builtin_product_xs, builtin_z0z1, lift_csir, make_channel
from nscoding.classical import classical_opt_success, explicit_z0z1_strategy
from nscoding.cli import run
from nscoding.ns_lp import (
    build_lp1,
    build_lp2,
    build_lp4_z0z1,
    certificate_point_z0z1,
    lp1_to_lp2,
    lp2_to_lp1,
    verify_certificate,
)
from nscoding.simplex import solve_exact
from nscoding.type_mapping import Budgets, budgets, flag_predicate, map_with_budgets
from nscoding.typicality import strongly_typical
from test_auth_scheme import reference_mu

CAUSAL_OPT = F(13, 16)
CSIR_OPT = F(7, 8)


def _passed(num: int, label: str, t0: float, bound: float = None) -> None:
    elapsed = time.perf_counter() - t0
    budget = f" [{elapsed:.2f}s < {bound:g}s]" if bound is not None else f" [{elapsed:.2f}s]"
    print(f"criterion {num} ({label}): PASS{budget}")
    if bound is not None:
        assert elapsed < bound


def test_criterion_01_certificate_reproduction():
    t0 = time.perf_counter()
    code, text = run(["lp", "certificate"])
    assert code == 0
    assert "certificate objective = 13/16" in text
    verdict = verify_certificate(build_lp4_z0z1(), certificate_point_z0z1())
    assert verdict.feasible and verdict.objective == CAUSAL_OPT
    _passed(1, "certificate feasible, objective exactly 13/16", t0, 1)


def test_criterion_02_assisted_causal_upper_bound():
    t0 = time.perf_counter()
    sol = solve_exact(build_lp2(builtin_z0z1(), M=2, n=2, causal=True))
    assert sol.status == "optimal"
    assert sol.value <= CAUSAL_OPT
    assert sol.value == CAUSAL_OPT  # pinned after the first verified solve
    _passed(2, "exact reduced-program optimum = 13/16", t0, 10)


def test_criterion_03_classical_separation():
    t0 = time.perf_counter()
    lifted = lift_csir(builtin_z0z1())
    value, _ = classical_opt_success(lifted, 2, 2)
    assert value >= CSIR_OPT
    strat = explicit_z0z1_strategy()
    assert strat.success == CSIR_OPT
    assert CAUSAL_OPT < CSIR_OPT <= value  # the strict gap
    _passed(3, "classical with CSIR reaches 7/8 > 13/16", t0, 30)


def _random_binary_channel(seed: int):
    rng = random.Random(seed)

    def row():
        a = rng.randint(0, 8)
        return [F(a, 8), F(8 - a, 8)]

    b = rng.randint(1, 7)
    return make_channel(
        kernel=[[row(), row()], [row(), row()]],
        state_dist=[F(b, 8), F(8 - b, 8)],
    )


def test_criterion_04_lp_forms_agree():
    t0 = time.perf_counter()
    channels = [builtin_z0z1(), _random_binary_channel(0), _random_binary_channel(1)]
    for ch in channels:
        full = solve_exact(build_lp1(ch, M=2, n=2))
        reduced = solve_exact(build_lp2(ch, M=2, n=2))
        assert full.status == reduced.status == "optimal"
        assert full.value == reduced.value
        # both directions of the variable mapping preserve the objective
        lp2 = build_lp2(ch, M=2, n=2)
        mapped_down = lp1_to_lp2(ch, 2, 2, full.assignment)
        assert lp2.objective_value(mapped_down) == full.value
        lp1 = build_lp1(ch, M=2, n=2)
        mapped_up = lp2_to_lp1(ch, 2, 2, reduced.assignment)
        assert lp1.objective_value(mapped_up) == reduced.value
    _passed(4, "full and reduced programs agree on 3 channels", t0)


def test_criterion_05_noncausal_csir_indifference():
    t0 = time.perf_counter()
    base = solve_exact(build_lp2(builtin_z0z1(), M=2, n=2, causal=False))
    lifted = solve_exact(build_lp2(lift_csir(builtin_z0z1()), M=2, n=2, causal=False))
    assert base.status == lifted.status == "optimal"
    assert base.value == lifted.value
    _passed(5, "non-causal optimum unchanged by revealing the state", t0)


def test_criterion_06_type_mapping_suite():
    t0 = time.perf_counter()
    configs = [
        (2, 10, (F(3, 5), F(2, 5))),
        (2, 50, (F(3, 5), F(2, 5))),
        (3, 10, (F(1, 2), F(3, 10), F(1, 5))),
        (3, 50, (F(1, 2), F(3, 10), F(1, 5))),
    ]
    for alphabet_size, n, dist in configs:
        b = budgets(n, alphabet_size, dist, F(1, 7))
        expected = list(b.per_symbol) + [b.extra]
        rng = random.Random(alphabet_size * 1000 + n)
        for _ in range(1000):
            seq = tuple(rng.randrange(alphabet_size) for _ in range(n))
            got = map_with_budgets(seq, b)
            counts = [0] * (alphabet_size + 1)
            for a in got.output:
                counts[a] += 1
            assert counts == expected  # P1: the output type never moves
            cut = rng.randrange(n + 1)
            assert map_with_budgets(seq[:cut], b).output == got.output[:cut]  # P2
            assert got.flag == int(flag_predicate(seq, b))
    # the two worked instances, output and flag verbatim
    fig = Budgets(n=10, alphabet_size=2, per_symbol=(5, 3), extra=2)
    up = map_with_budgets((0, 1, 0, 0, 1, 1, 1, 0, 1, 0), fig)
    assert up.output == (0, 1, 0, 0, 1, 1, 2, 0, 2, 0) and up.flag == 1
    down = map_with_budgets((0, 1, 0, 0, 1, 1, 1, 1, 1, 0), fig)
    assert down.output == (0, 1, 0, 0, 1, 1, 2, 2, 0, 0) and down.flag == 0
    _passed(6, "8000 mapped sequences keep all three properties", t0, 5)


def test_criterion_07_scheme_conditions_and_marginal():
    t0 = time.perf_counter()
    ch = builtin_z0z1()
    strategy = [[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]]
    for n in (2, 3):
        # at these lengths the typicality stage pins mu to 1, so M >= 2
        # comes from the message-count override (any M >= ceil(mu) is valid)
        scheme = build_auth_scheme(ch, strategy, n, F(1, 2), message_count=2)
        assert scheme.message_count == 2
        tensor = materialize_tensor(scheme)
        tensor.validate()
        report = verify_conditions(tensor)
        assert report.all_pass()
        assert (tensor.message_marginals() == F(1, 2)).all()
    _passed(7, "conditions and uniform marginal at n=2 and n=3", t0, 60)


def test_criterion_08_toy_scheme_end_to_end():
    t0 = time.perf_counter()
    tensor = toy_product_scheme()
    tensor.validate()  # nonnegativity and per-cell normalization
    report = verify_conditions(tensor)
    assert report.all_pass()
    assert (tensor.message_marginals() == F(1, 4)).all()
    success = success_probability(tensor, channel=builtin_product_xs())
    assert success == F(1)
    _passed(8, "hand-built scheme verifies and succeeds surely", t0, 5)


def _z_channel_mi_grid(flip: float, steps: int) -> float:
    """Best I(X;Y) of a Z-channel by brute grid search over P_X(1)."""
    p1 = np.linspace(0.0, 1.0, steps + 1)
    # output-1 probability when input 1 passes with probability `flip`
    q = p1 * flip

    def h(v):
        v = np.clip(v, 1e-300, 1.0)
        return -v * np.log2(v)

    hy = h(q) + h(1 - q)
    hy_given_x = p1 * (h(flip) + h(1 - flip))
    return float(np.max(hy - hy_given_x))


def test_criterion_09_capacity_cells():
    t0 = time.perf_counter()
    result = ns_capacity(builtin_z0z1())
    # independent oracle: each state is a Z-channel with pass-through 1/2
    oracle = _z_channel_mi_grid(0.5, 1_000_000)
    assert abs(result.value - oracle) < 1e-6
    assert abs(result.value - np.log2(5 / 4)) < 1e-6
    # iterates are monotone
    ba = blahut_arimoto(builtin_z0z1().kernel_array()[0])
    trace = ba.trace
    assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))
    # revealing the state flattens the whole table
    table = capacity_table(lift_csir(builtin_z0z1()), gp_restarts=4, seed=0)
    cells = list(table.cells().values())
    assert max(cells) - min(cells) < 1e-3
    _passed(9, "grid oracle, monotone iterates, flat lifted table", t0, 30)


def test_criterion_10_asymptotic_property_suite():
    t0 = time.perf_counter()
    identity = make_channel(kernel=[[[1, 0], [0, 1]]], state_dist=[1])
    uniform = [[F(1, 2), F(1, 2)]]
    # rate stays below the conditional mutual information
    for n in (8, 9, 12):
        scheme = build_auth_scheme(identity, uniform, n, F(1, 2))
        assert scheme.message_count >= 2
        assert scheme.rate() < conditional_mi(identity, [[0.5, 0.5]])
    # the success probability dominates its three-factor lower bound
    scheme = build_auth_scheme(identity, uniform, 9, F(1, 2))
    decomp = success_decomposition(scheme)
    assert decomp.success >= decomp.lower_bound()
    assert decomp.success == success_probability(scheme, mode="exact")
    # reciprocal-typicality agreement: type counting == brute enumeration
    # on every instance small enough to enumerate outputs directly
    rng = random.Random(11)
    strategy = [[F(1, 2), F(1, 2)]]
    checked = 0
    for _ in range(8):
        rows = []
        for _x in range(2):
            cuts = sorted(rng.randint(0, 4) for _ in range(2))
            rows.append([F(cuts[0], 4), F(cuts[1] - cuts[0], 4), F(4 - cuts[1], 4)])
        ch = make_channel(kernel=[rows], state_dist=[1])
        for n, eps in [(10, F(1, 3)), (9, F(1, 4))]:
            assert ch.x_size**n <= 2**16
            try:
                by_types = compute_mu(ch, strategy, n, eps)
            except ValueError:
                continue
            assert by_types == reference_mu(ch, strategy, n, eps)
            checked += 1
    assert checked >= 4
    _passed(10, "rate, decomposition, and mu agreement properties", t0)


if __name__ == "__main__":
    import pytest
    import sys

    sys.exit(pytest.main([__file__, "-v", "-s"]))
