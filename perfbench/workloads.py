"""Seeded, closed-loop workloads for the nscoding benchmark.

A workload is an endless stream of rounds.  Round r draws its inputs from
its own generators, so a run can be replayed exactly and running more
rounds never changes the earlier ones.  Every round has the same mix of
instance classes, which keeps the figures comparable across seeds:

* the light classes, most of the instances, are drawn from a generator
  seeded by (workload, seed, r): the seed changes them;
* the heavy classes, a few instances per round that take most of its
  time, are drawn from a generator seeded by (workload, r) alone: a fixed
  panel.  One heavy instance costs up to a few seconds, and its cost
  varies by a factor of two or more with its kernel, so a run's handful of
  heavy instances would otherwise decide its throughput.

Round 0 also holds the pinned instances (the z0z1 channel, the LP4
certificate, the identity-channel schemes) whose exact answers are known.

One client in one process sends each instance only after the previous one
has returned; there are no threads and the classical search runs with
`workers=1`, because on a 2-core machine pool workers measure the
scheduler, not the program.

Random kernels are built from small-denominator rationals and every
channel goes through `save_channel_file`/`load_channel_file`, so the
program only ever sees the generated channel files.

Why each workload, and each instance class in it:

* ``lp`` -- the exact simplex does most of the work.  Each channel gets
  a short sweep at n=2 (LP2 causal at M=2 and M=3, LP2 non-causal at M=2)
  plus LP1 at n=1; the sweep shares (channel, n) across questions as a
  real sweep does, so a per-channel cache could show a gain without any
  instance repeating.  LP2 has few equality rows.  One channel per round
  (z0z1 in round 0) also gets LP1 at n=2 and LP2 of its CSIR lift at
  n=2, the programs with many equality rows and a larger tableau.  Mixed
  alphabet shapes spread instance times into a continuum, so the median
  and p90 do not sit on a gap between classes.
* ``search`` -- the exhaustive encoder search and its per-branch
  block-law loops do the work and no simplex runs, so a simplex change
  predicts no change here.  Binary-input channels, drawn by the seed, run
  with and without CSIR (the no-CSIR path is the Sigma-max pair scan);
  the panel's three-letter inputs or states run with CSIR only, because
  without CSIR they are 9-20 s per instance or above `SEARCH_WORK_CAP`.
* ``scheme`` -- object-dtype tensor materialization and the cell-by-cell
  condition checks do the work, and memory grows with the cells.  The
  identity channel at n=5/6 (mu=4, 16k/65k cells) carries the large
  tensors; random binary channels at n=3/4 with two messages make the
  bulk of the instances.  Exact and Monte Carlo success share the scheme
  but differ in cost.  No simplex or search runs.

Left out on purpose, because any one of these instances would take most
of a run, while the instances above exercise the same code paths:

* ``lp solve z0z1 M=2 n=3`` (39 s);
* ``scheme verify`` on the identity channel at n=8 (38 s);
* the no-CSIR search on three-letter inputs (9-20 s at n=2);
* `capacity_table`, the float capacity layer, because its answers are
  known to be wrong on some channels: it answers inf for the classical
  causal cell of about one random channel of shape (3, 3, 2) in twenty.
  A benchmark run must not fail, and timing it only on channels where it
  happens to answer correctly would hide the defect.  `test_smoke.py`
  keeps one such channel and fails on it until the program is fixed;
  capacity joins the ``search`` workload with that fix.
"""

from __future__ import annotations

import math
import os
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from nscoding import (
    build_auth_scheme,
    build_lp1,
    build_lp2,
    build_lp4_z0z1,
    builtin_z0z1,
    certificate_point_z0z1,
    classical_opt_success,
    compute_mu,
    explicit_z0z1_strategy,
    lift_csir,
    load_channel_file,
    make_channel,
    materialize_tensor,
    save_channel_file,
    solve_exact,
    success_probability,
    verify_certificate,
    verify_conditions,
)
from nscoding.auth_scheme import DegenerateSchemeError

from tracing import Layers, at_reference_speed, reference_time

# A run's work is fixed by its length: the number of rounds that take
# `seconds` at reference speed at the commit that defined the benchmark
# (ROUND_S, per round), and at least MIN_INSTANCES, which leaves ten
# instances beyond the p90.  So runs of two commits time the same
# instances, and a faster program finishes sooner.
ROUND_S = {"lp": 6.9, "search": 6.9, "scheme": 8.2}
MIN_INSTANCES = 100

KERNEL_DEN = 4
STATE_DEN = 4
STRATEGY_DEN = 2

# Exact values the paper states or the repository's tests pin, keyed by
# "<source>/<instance class>".
PINNED = {
    "z0z1/lp2.causal.M2.n2": Fraction(13, 16),
    "z0z1/lp1.causal.M2.n2": Fraction(13, 16),
    "z0z1/lp2.csir.causal.M2.n2": Fraction(7, 8),
    "z0z1/lp4.certificate": Fraction(13, 16),
    "z0z1/classical.csir.M2.n2": Fraction(7, 8),
    "z0z1/explicit_strategy": Fraction(7, 8),
    "identity/scheme.n5.eps1/3": Fraction(3, 4),
    "identity/scheme.n6.eps1/3": Fraction(7, 8),
}

# Channel shapes (x, y, s) per round.  LP: one panel channel gets the heavy
# pair (z0z1 in round 0); every channel gets the light sweep.
LP_HEAVY = (2, 2, 2)
LP_SEEDED = [(2, 2, 2)] * 8
LP_PANEL = [(2, 3, 2), (3, 2, 2), (2, 2, 3)]
# Search: seeded binary-input channels run with and without CSIR, the
# panel's three-letter inputs or states with CSIR only.
SEARCH_SEEDED = [(2, 2, 2)] * 18 + [(2, 3, 2)] * 12
SEARCH_PANEL = [(3, 2, 2), (3, 3, 2), (2, 2, 3)]
# Scheme: random binary schemes with two messages, by block length.
SCHEME_SEEDED_N = [3] * 28
SCHEME_PANEL_N = [4] * 6
SCHEME_RANDOM_EPS = Fraction(1, 2)
SCHEME_IDENTITY_N = (6, 5)
MC_SAMPLES = 2000
# The Monte Carlo estimate must lie within MC_Z standard errors (plus one
# sample) of the exact success probability.
MC_Z = 5
MAX_REJECTIONS = 200


class AnswerError(Exception):
    """An instance's answer failed its check."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise AnswerError(what)


def _check_exact(value, lo: Fraction, hi: Fraction, what: str) -> None:
    _require(isinstance(value, Fraction), f"{what}: {value!r} is not a Fraction")
    _require(lo <= value <= hi, f"{what}: {value} outside [{lo}, {hi}]")


@dataclass
class Instance:
    label: str  # unique within a run
    kind: str  # instance class
    run: Callable[[Layers], object]  # returns the answer; raises AnswerError
    pin: Optional[Fraction] = None


@dataclass
class Round:
    """What generating one round needs: the layers, its generator and where
    the channel files go."""

    L: Layers
    rng: random.Random  # seeded: light classes
    panel: random.Random  # seed-independent: heavy classes
    index: int
    workdir: str
    tiny: bool
    instances: list = field(default_factory=list)
    random_inputs: list = field(default_factory=list)  # what the seed drew

    def channel(self, name: str, ch):
        """Round-trip a channel through its JSON file; the program sees the copy."""
        path = os.path.join(self.workdir, f"r{self.index}-{name}.json")
        self.L.call("channels", "save_channel_file", save_channel_file, ch, path)
        loaded = self.L.call("channels", "load_channel_file", load_channel_file, path)
        if loaded != ch:
            raise RuntimeError(f"channel file {path} does not load back to the same channel")
        return loaded

    def random_channel(self, name: str, shape, panel: bool = False):
        rng = self.panel if panel else self.rng
        x, y, s = shape
        kernel = [[_dist(rng, y, KERNEL_DEN) for _ in range(x)] for _ in range(s)]
        state = _dist(rng, s, STATE_DEN)
        if not panel:
            self.random_inputs.append((kernel, state))
        ch = self.L.call("channels", "make_channel", make_channel, kernel, state)
        return self.channel(name, ch)

    def add(self, source: str, kind: str, run: Callable[[Layers], object]) -> None:
        self.instances.append(
            Instance(
                label=f"r{self.index}.{source}.{kind}",
                kind=kind,
                run=run,
                pin=PINNED.get(f"{source}/{kind}"),
            )
        )


def _dist(rng: random.Random, k: int, den: int) -> list[Fraction]:
    """A random distribution on k points with denominator `den`."""
    cuts = sorted(rng.randint(0, den) for _ in range(k - 1))
    return [Fraction(b - a, den) for a, b in zip([0, *cuts], [*cuts, den])]


def _lp_counts(lp) -> dict:
    return {
        "vars": len(lp.var_names),
        "rows": len(lp.rows),
        "nonzeros": sum(len(row.coeffs) for row in lp.rows),
    }


def _tableau_cells(lp) -> int:
    """rows x (structural + slack + artificial columns) of the dense
    tableau `solve_exact` builds, computed from the program's shape."""
    structural = sum(1 if nonneg else 2 for nonneg in lp.nonneg)
    slack = sum(1 for row in lp.rows if row.relation != "==")
    artificial = 0
    for row in lp.rows:
        relation = row.relation
        if row.rhs < 0 and relation != "==":
            relation = ">=" if relation == "<=" else "<="
        artificial += relation != "<="
    return len(lp.rows) * (structural + slack + artificial)


def _solve(L: Layers, build, ch, M: int, n: int, causal: bool = True) -> Fraction:
    lp = L.call("ns_lp", build.__name__, build, ch, M, n, causal=causal, counts=_lp_counts)
    sol = L.call(
        "simplex",
        "solve_exact",
        solve_exact,
        lp,
        counts=lambda s: {"pivots": s.pivots, "tableau_cells": _tableau_cells(lp)},
    )
    _require(sol.status == "optimal", f"{lp.name}: status {sol.status}")
    return sol.value


# -- lp -----------------------------------------------------------------------


def _lp_channel(rnd: Round, source: str, ch, heavy: bool) -> None:
    seen: dict[str, Fraction] = {}

    def question(kind, build, M, n, causal=True, check=None, channel=ch):
        def run(L):
            value = _solve(L, build, channel, M, n, causal)
            _check_exact(value, Fraction(1, M), Fraction(1), kind)
            if check is not None:
                check(value)
            seen[kind] = value
            return value

        rnd.add(source, kind, run)

    def at_least_causal(value):
        causal = seen.get("lp2.causal.M2.n2")
        _require(causal is None or causal <= value, f"{value} below causal LP2 {causal}")

    def equals_lp2(value):
        lp2 = seen.get("lp2.causal.M2.n2")
        _require(lp2 is None or lp2 == value, f"LP1 {value} differs from LP2 {lp2}")

    question("lp2.causal.M2.n2", build_lp2, 2, 2)
    question("lp2.causal.M3.n2", build_lp2, 3, 2)
    question("lp2.noncausal.M2.n2", build_lp2, 2, 2, causal=False, check=at_least_causal)
    question("lp1.causal.M2.n1", build_lp1, 2, 1)
    if heavy:
        question("lp1.causal.M2.n2", build_lp1, 2, 2, check=equals_lp2)
        lifted = rnd.L.call("channels", "lift_csir", lift_csir, ch)
        question("lp2.csir.causal.M2.n2", build_lp2, 2, 2, check=at_least_causal, channel=lifted)


def _lp_round(rnd: Round) -> None:
    if rnd.index == 0:
        z0z1 = rnd.channel("z0z1", rnd.L.call("channels", "builtin_z0z1", builtin_z0z1))
        _lp_channel(rnd, "z0z1", z0z1, heavy=True)

        def certificate(L):
            lp = L.call("ns_lp", "build_lp4_z0z1", build_lp4_z0z1, counts=_lp_counts)
            point = L.call("ns_lp", "certificate_point_z0z1", certificate_point_z0z1)
            report = L.call("ns_lp", "verify_certificate", verify_certificate, lp, point)
            _require(report.feasible, f"certificate violates {report.violated[:3]}")
            return report.objective

        rnd.add("z0z1", "lp4.certificate", certificate)
    elif not rnd.tiny:
        _lp_channel(rnd, "panel#h", rnd.random_channel("panel#h", LP_HEAVY, panel=True), heavy=True)
    for i, shape in enumerate(LP_SEEDED[:1] if rnd.tiny else LP_SEEDED):
        source = f"random#{i}"
        _lp_channel(rnd, source, rnd.random_channel(source, shape), heavy=False)
    for i, shape in enumerate([] if rnd.tiny else LP_PANEL):
        source = f"panel#{i}"
        _lp_channel(rnd, source, rnd.random_channel(source, shape, panel=True), heavy=False)


# -- search -------------------------------------------------------------------


def _search_channel(rnd: Round, source: str, ch, plain: bool, lp_bounds=None) -> None:
    seen: dict[str, Fraction] = {}

    def search(csir: bool):
        kind = "classical.csir.M2.n2" if csir else "classical.M2.n2"

        def run(L):
            value, _encoder = L.call(
                "classical",
                "classical_opt_success",
                classical_opt_success,
                ch,
                2,
                2,
                csir=csir,
                workers=1,
                counts=lambda _r: {"branches": ch.x_size ** (ch.s_size + ch.s_size**2)},
            )
            _check_exact(value, Fraction(1, 2), Fraction(1), kind)
            if csir and "classical.M2.n2" in seen:
                _require(seen["classical.M2.n2"] <= value, "CSIR search below the plain one")
            if lp_bounds is not None:
                bound = lp_bounds[csir]
                _require(value <= bound, f"{kind} {value} above the assisted LP value {bound}")
            seen[kind] = value
            return value

        rnd.add(source, kind, run)

    if plain:
        search(False)
    search(True)


def _search_round(rnd: Round) -> None:
    if rnd.index == 0:
        z0z1 = rnd.channel("z0z1", rnd.L.call("channels", "builtin_z0z1", builtin_z0z1))
        # Classical codes are assisted codes: each search is bounded by the
        # pinned LP2 value (of the CSIR lift, when the receiver sees the state).
        bounds = {
            False: PINNED["z0z1/lp2.causal.M2.n2"],
            True: PINNED["z0z1/lp2.csir.causal.M2.n2"],
        }
        _search_channel(rnd, "z0z1", z0z1, plain=True, lp_bounds=bounds)

        def explicit(L):
            strategy = L.call("classical", "explicit_z0z1_strategy", explicit_z0z1_strategy)
            return strategy.success

        rnd.add("z0z1", "explicit_strategy", explicit)
    for i, shape in enumerate(SEARCH_SEEDED[:1] if rnd.tiny else SEARCH_SEEDED):
        source = f"random#{i}"
        ch = rnd.random_channel(source, shape)
        _search_channel(rnd, source, ch, plain=True)
    for i, shape in enumerate([] if rnd.tiny else SEARCH_PANEL):
        source = f"panel#{i}"
        _search_channel(rnd, source, rnd.random_channel(source, shape, panel=True), plain=False)


# -- scheme -------------------------------------------------------------------


def _scheme_instance(rnd: Round, source: str, kind: str, ch, strategy, n, eps, messages):
    mc_seed = rnd.rng.randrange(2**32)

    def run(L):
        scheme = L.call(
            "auth_scheme",
            "build_auth_scheme",
            build_auth_scheme,
            ch,
            strategy,
            n,
            eps,
            message_count=messages,
        )
        tensor = L.call(
            "auth_scheme",
            "materialize_tensor",
            materialize_tensor,
            scheme,
            counts=lambda t: {"cells": t.entries.size},
        )
        L.call("auth_scheme", "validate", tensor.validate)
        report = L.call("auth_scheme", "verify_conditions", verify_conditions, tensor)
        violations = report.c1 + report.c2 + report.c3 + report.combined
        _require(report.all_pass(), f"condition violations {violations[:3]}")
        marginals = L.call("auth_scheme", "message_marginals", tensor.message_marginals)
        uniform = Fraction(1, scheme.message_count)
        _require(bool((marginals == uniform).all()), "message marginals are not uniform")
        exact = L.call(
            "auth_scheme", "success_exact", success_probability, scheme, mode="exact"
        )
        _check_exact(exact, Fraction(0), Fraction(1), kind)
        estimate, _ci = L.call(
            "auth_scheme",
            "success_monte_carlo",
            success_probability,
            scheme,
            mode="monte_carlo",
            samples=MC_SAMPLES,
            seed=mc_seed,
            counts=lambda _r: {"samples": MC_SAMPLES},
        )
        sigma = math.sqrt(float(exact * (1 - exact)) / MC_SAMPLES)
        _require(
            abs(estimate - float(exact)) <= MC_Z * sigma + 1 / MC_SAMPLES,
            f"Monte Carlo {estimate} too far from exact {exact}",
        )
        return exact

    rnd.add(source, kind, run)


def _random_scheme_inputs(rnd: Round, source: str, n: int, panel: bool):
    """A random binary channel and strategy whose scheme admits two messages."""
    rng = rnd.panel if panel else rnd.rng
    for _ in range(MAX_REJECTIONS):
        kernel = [[_dist(rng, 2, KERNEL_DEN) for _ in range(2)] for _ in range(2)]
        state = _dist(rng, 2, STATE_DEN)
        strategy = [_dist(rng, 2, STRATEGY_DEN) for _ in range(2)]
        ch = rnd.L.call("channels", "make_channel", make_channel, kernel, state)
        try:
            mu = rnd.L.call(
                "auth_scheme", "compute_mu", compute_mu, ch, strategy, n, SCHEME_RANDOM_EPS
            )
        except DegenerateSchemeError:
            continue
        if mu <= 2:
            if not panel:
                rnd.random_inputs.append((kernel, state, strategy))
            return rnd.channel(source, ch), strategy
    raise RuntimeError(f"no two-message scheme in {MAX_REJECTIONS} draws at n={n}")


def _scheme_round(rnd: Round) -> None:
    identity = rnd.channel(
        "identity", rnd.L.call("channels", "make_channel", make_channel, [[[1, 0], [0, 1]]], [1])
    )
    uniform = [[Fraction(1, 2), Fraction(1, 2)]]
    eps = Fraction(1, 3) if rnd.index % 2 == 0 else Fraction(1, 4)
    for n in SCHEME_IDENTITY_N[1:] if rnd.tiny else SCHEME_IDENTITY_N:
        kind = f"scheme.n{n}.eps{eps}"
        _scheme_instance(rnd, "identity", kind, identity, uniform, n, eps, None)
    drawn = [(n, False) for n in (SCHEME_SEEDED_N[:1] if rnd.tiny else SCHEME_SEEDED_N)]
    drawn += [(n, True) for n in ([] if rnd.tiny else SCHEME_PANEL_N)]
    for i, (n, panel) in enumerate(drawn):
        source = f"{'panel' if panel else 'random'}#{i}"
        ch, strategy = _random_scheme_inputs(rnd, source, n, panel)
        _scheme_instance(rnd, source, f"scheme.n{n}", ch, strategy, n, SCHEME_RANDOM_EPS, 2)


ROUNDS = {"lp": _lp_round, "search": _search_round, "scheme": _scheme_round}
WORKLOADS = tuple(ROUNDS)


def make_round(
    L: Layers, workload: str, seed: int, index: int, workdir: str, tiny: bool = False
) -> Round:
    """Generate round `index` of a workload: channels, strategies, instances."""
    rnd = Round(
        L=L,
        rng=random.Random(f"{workload}/{seed}/{index}"),
        panel=random.Random(f"{workload}/panel/{index}"),
        index=index,
        workdir=workdir,
        tiny=tiny,
    )
    ROUNDS[workload](rnd)
    return rnd


@dataclass
class RunResult:
    times: list[float] = field(default_factory=list)  # s at reference speed, per instance
    wall_times: list[float] = field(default_factory=list)  # s as measured
    kinds: list[str] = field(default_factory=list)
    labels: list[str] = field(default_factory=list)
    pinned: dict = field(default_factory=dict)  # label -> answer, pinned instances
    random_inputs: list = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    rounds: int = 0

    @property
    def attempted(self) -> int:
        return len(self.times)

    @property
    def failed(self) -> int:
        return len(self.errors)


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    L: Layers,
    workdir: str,
    rounds: Optional[int] = None,
    tiny: bool = False,
) -> RunResult:
    """Run whole rounds, one instance at a time: `rounds` of them, or, by
    default, as many as `seconds` buys (see ROUND_S) and at least enough
    for MIN_INSTANCES.  Round 0 is generated before the first instance."""
    reference_time()  # warm the yardstick up before it is used
    tracer = L.tracer
    result = RunResult()
    target = rounds if rounds is not None else max(1, round(seconds / ROUND_S[workload]))
    batch = make_round(L, workload, seed, 0, workdir, tiny)
    while True:
        result.random_inputs.extend(batch.random_inputs)
        ref_before = reference_time()
        for inst in batch.instances:
            if tracer is not None:
                tracer.instance = inst.label
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    answer = inst.run(L)
                else:
                    with tracer.span("instance", inst.kind):
                        answer = inst.run(L)
                if inst.pin is not None:
                    _require(answer == inst.pin, f"answer {answer}, pinned {inst.pin}")
            except Exception as exc:  # one failed instance must not end the run
                result.errors.append(f"{inst.label}: {type(exc).__name__}: {exc}")
                answer = None
            wall = time.perf_counter() - t0
            ref_after = reference_time()
            result.wall_times.append(wall)
            result.times.append(at_reference_speed(wall, ref_before, ref_after))
            ref_before = ref_after
            result.kinds.append(inst.kind)
            result.labels.append(inst.label)
            if inst.pin is not None:
                result.pinned[inst.label] = answer
        if tracer is not None:
            tracer.instance = None
        result.rounds += 1
        if result.rounds >= target and (rounds is not None or result.attempted >= MIN_INSTANCES):
            break
        batch = make_round(L, workload, seed, result.rounds, workdir, tiny)
    return result
