"""Smoke test of the benchmark itself: one tiny round of each workload.

    python3 -m pytest perfbench/test_smoke.py -q

It is not part of the package's test suite (pytest collects `tests/` by
default); it checks the benchmark's generator, answer checks and tracing.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from nscoding import (  # noqa: E402
    build_lp2,
    capacity_table,
    classical_opt_success,
    lift_csir,
    make_channel,
    solve_exact,
)
from tracing import Layers, Tracer, layer_metrics  # noqa: E402
from workloads import PINNED, WORKLOADS, make_round, run_workload  # noqa: E402

# A channel on which `capacity_table` answers inf for the classical causal
# cell: Blahut-Arimoto on its strategy channel drives input weights down to
# denormals, and `capacity._mutual_information` then divides by a px*py that
# has underflowed to zero.  About one random channel of shape (3, 3, 2) in
# twenty does the same, which is why the timed workloads leave capacity out.
CAPACITY_REGRESSION = (
    [
        [["1/4", "3/4", "0"], ["1", "0", "0"], ["0", "3/4", "1/4"]],
        [["0", "1/4", "3/4"], ["1/4", "1/4", "1/2"], ["0", "3/4", "1/4"]],
    ],
    ["3/4", "1/4"],
)
CAPACITY_TOL = 1e-6

# One pinned value per workload, and a wrong value for it.
WRONG_PINS = {
    "lp": ("z0z1/lp2.causal.M2.n2", Fraction(3, 4)),
    "search": ("z0z1/classical.csir.M2.n2", Fraction(3, 4)),
    "scheme": ("identity/scheme.n5.eps1/3", Fraction(1, 2)),
}


def _tiny(workload, seed, L=None):
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".perfbench")) as workdir:
        return run_workload(workload, seed, 0, L or Layers(), workdir, rounds=1, tiny=True)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seeds_change_random_inputs_but_not_pinned_answers(workload):
    first, second = _tiny(workload, 1), _tiny(workload, 2)
    assert first.errors == [] and second.errors == []
    assert first.random_inputs and first.random_inputs != second.random_inputs
    assert first.pinned and first.pinned == second.pinned
    for label, answer in first.pinned.items():
        assert answer in PINNED.values(), label


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_pinned_value_counts_as_failed(workload, monkeypatch):
    key, wrong = WRONG_PINS[workload]
    assert PINNED[key] != wrong
    right = _tiny(workload, 1)
    monkeypatch.setitem(PINNED, key, wrong)
    result = _tiny(workload, 1)
    assert result.failed > right.failed
    assert (result.attempted - result.failed) / result.attempted < 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    tracer = Tracer()
    result = _tiny(workload, 3, L=Layers(tracer))
    assert result.errors == []
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = {m["name"] for m in json.load(fh)["per_layer"]}
    values = layer_metrics(tracer.spans)
    assert set(values) == {n for n in names if not n.startswith("trace.")}
    instances = [s for s in tracer.spans if s["layer"] == "instance"]
    assert len(instances) == result.attempted
    assert all(s["parent"] is None for s in instances)


@pytest.mark.parametrize("seed", [1, 2])
def test_classical_values_stay_below_assisted_lp_values(seed):
    # The timed search workload runs no simplex, so the classical <= assisted
    # invariants on random channels are checked here.
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".perfbench")) as workdir:
        rnd = make_round(Layers(), "search", seed, 1, workdir, tiny=True)
        kernel, state = rnd.random_inputs[0]
    ch = make_channel(kernel, state)
    plain, _ = classical_opt_success(ch, 2, 2, csir=False)
    csir, _ = classical_opt_success(ch, 2, 2, csir=True)
    assert plain <= solve_exact(build_lp2(ch, 2, 2)).value
    assert csir <= solve_exact(build_lp2(lift_csir(ch), 2, 2)).value


def test_capacity_cells_are_finite_on_the_regression_channel():
    # Known defect: capacity_table answers inf for the classical causal cell
    # of this channel.  This test fails until the program is fixed.
    ch = make_channel(*CAPACITY_REGRESSION)
    cells = capacity_table(ch).cells()
    top = math.log2(min(ch.x_size, ch.y_size)) + CAPACITY_TOL
    assert all(-CAPACITY_TOL <= float(v) <= top for v in cells.values()), cells
    ns = cells["ns_causal"]
    assert cells["ns_noncausal"] == ns
    assert cells["classical_causal"] <= ns + CAPACITY_TOL
    assert cells["classical_noncausal"] <= ns + CAPACITY_TOL
