"""Timing for the benchmark: the reference-speed scaling, the spans around
its calls into nscoding, and the per-layer metrics derived from them.

Times are reported at a reference CPU speed.  On a shared 2-vCPU VM the
speed of identical pure-Python work swings by up to 60% over a few seconds,
which no run length averages away.  A fixed Fraction loop timed next to
the measured work tracks the same swings, so each wall time is scaled by
REFERENCE_S / (mean of the reference times just before and after it): a
time reads as seconds at the speed where the loop takes REFERENCE_S.

Every call the workloads make into the package goes through `Layers.call`.
Without a tracer that is a plain call.  With one, the call is recorded as
a span (name, layer, start, end, parent span, instance label, failed) and,
after the span has closed, the counts the call's inputs and outputs imply
are attached to it.  Spans stay in memory until the run writes them out.
Spans are taken from outside the package only: a layer's time includes
whatever it calls internally (the `rational`, `indexing`, `type_mapping`
and `typicality` helpers have no spans of their own).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from fractions import Fraction
from typing import Callable, Optional

REFERENCE_TERMS = 1000
REFERENCE_S = 0.005

# Layers timed from outside, in the order the metrics are listed.
LAYERS = ("ns_lp", "simplex", "classical", "auth_scheme", "channels")

# Busy-time metrics: summed span durations of the named calls.
BUSY = {
    "ns_lp.build_s": ("ns_lp.build_lp1", "ns_lp.build_lp2", "ns_lp.build_lp4_z0z1"),
    "ns_lp.certificate_s": ("ns_lp.verify_certificate",),
    "simplex.solve_s": ("simplex.solve_exact",),
    "classical.search_s": ("classical.classical_opt_success",),
    "classical.evaluate_s": ("classical.explicit_z0z1_strategy", "classical.evaluate_strategy"),
    "auth_scheme.build_s": ("auth_scheme.build_auth_scheme",),
    "auth_scheme.materialize_s": ("auth_scheme.materialize_tensor",),
    "auth_scheme.validate_s": ("auth_scheme.validate",),
    "auth_scheme.verify_s": ("auth_scheme.verify_conditions",),
    "auth_scheme.marginal_s": ("auth_scheme.message_marginals",),
    "auth_scheme.success_exact_s": ("auth_scheme.success_exact",),
    "auth_scheme.mc_s": ("auth_scheme.success_monte_carlo",),
    "channels.build_s": (
        "channels.make_channel",
        "channels.builtin_z0z1",
        "channels.lift_csir",
        "channels.save_channel_file",
        "channels.load_channel_file",
    ),
}

# Summed counts attached to spans: metric -> count key.
COUNTS = {
    "ns_lp.vars": "vars",
    "ns_lp.rows": "rows",
    "ns_lp.nonzeros": "nonzeros",
    "simplex.pivots": "pivots",
    "simplex.tableau_cells": "tableau_cells",
    "classical.branches": "branches",
    "auth_scheme.tensor_cells": "cells",
}


def reference_time() -> float:
    """Wall seconds of a fixed Fraction loop: the CPU's current speed."""
    third, total = Fraction(1, 3), Fraction(0)
    t0 = time.perf_counter()
    for i in range(1, REFERENCE_TERMS):
        total += third / i
    return time.perf_counter() - t0


def at_reference_speed(wall_s: float, ref_before: float, ref_after: float) -> float:
    return wall_s * 2 * REFERENCE_S / (ref_before + ref_after)


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.instance: Optional[str] = None

    @contextmanager
    def span(self, layer: str, name: str):
        record = {
            "name": f"{layer}.{name}",
            "layer": layer,
            "parent": self._open[-1] if self._open else None,
            "instance": self.instance,
            "failed": False,
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        except BaseException:
            record["failed"] = True
            raise
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, record in enumerate(self.spans):
                fh.write(json.dumps({"id": index, **record}) + "\n")


class Layers:
    """The workloads' only way into nscoding."""

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self.tracer = tracer

    def call(
        self,
        layer: str,
        name: str,
        fn: Callable,
        *args,
        counts: Optional[Callable[[object], dict]] = None,
        **kwargs,
    ):
        if self.tracer is None:
            return fn(*args, **kwargs)
        with self.tracer.span(layer, name) as record:
            result = fn(*args, **kwargs)
        if counts is not None:
            record["counts"] = counts(result)
        return result


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced run (unit-free numbers)."""
    own = self_times(spans)
    duration = {}
    for s in spans:
        duration[s["name"]] = duration.get(s["name"], 0.0) + s["end"] - s["start"]
    instance_s = sum(s["end"] - s["start"] for s in spans if s["layer"] == "instance")

    out: dict[str, float] = {}
    for metric, names in BUSY.items():
        out[metric] = sum(duration.get(n, 0.0) for n in names)
    for metric, key in COUNTS.items():
        out[metric] = sum(s.get("counts", {}).get(key, 0) for s in spans)
    samples = sum(s.get("counts", {}).get("samples", 0) for s in spans)

    def rate(work: float, seconds: float) -> float:
        return work / seconds if seconds > 0 else 0.0

    out["simplex.pivot_us"] = rate(out["simplex.solve_s"] * 1e6, out["simplex.pivots"])
    out["classical.branches_per_s"] = rate(out["classical.branches"], out["classical.search_s"])
    cell_s = sum(
        out[f"auth_scheme.{stage}_s"] for stage in ("materialize", "validate", "verify", "marginal")
    )
    out["auth_scheme.cells_per_s"] = rate(out["auth_scheme.tensor_cells"], cell_s)
    out["auth_scheme.mc_samples_per_s"] = rate(samples, out["auth_scheme.mc_s"])

    for layer in LAYERS:
        mine = [i for i, s in enumerate(spans) if s["layer"] == layer]
        self_s = sum(own[i] for i in mine)
        out[f"{layer}.calls"] = len(mine)
        out[f"{layer}.failed"] = sum(1 for i in mine if spans[i]["failed"])
        out[f"{layer}.self_s"] = self_s
        out[f"{layer}.share"] = rate(self_s, instance_s)
    return out
