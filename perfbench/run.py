"""Run one nscoding benchmark workload and print its metrics.

    python3 perfbench/run.py --workload lp --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from any directory; the package is imported from the `src` directory
beside `perfbench`, never from an installed copy.  With `--trace 0` the run
measures the end-to-end metrics with tracing off.  With `--trace 1` it runs
the same stream with a span around every call into a layer, then replays
the same rounds untraced to measure the tracing overhead, and reports the
per-layer metrics.  Metric names and units come from `BENCHMARK.json`.

Every line but the last is for people: the metrics by name and unit, the
instance mix and the machine.  The last line is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`.  The exit status is 0
only when every answer check passed.  Result files and spans go to
`.perfbench/` under the checkout.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

from tracing import Layers, Tracer, layer_metrics

# The workloads run in one thread.  At import, numpy's OpenBLAS would start
# a worker thread per core, and setup would time their start-up: back to
# back on a 2-vCPU VM, a fresh `import numpy` took 0.16 s with the pool and
# 0.09 s without it.  Child processes inherit this.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("lp", "search", "scheme")
# Fresh processes timed per run; setup_s is their median.
SETUP_REPEATS = 9
# The yardstick for setup_s: a fresh process that imports numpy, and the
# time that import takes at reference speed.
YARDSTICK = [sys.executable, "-c",
             "import time; t = time.perf_counter(); import numpy; print(time.perf_counter() - t)"]
REFERENCE_IMPORT_S = 0.08
MAX_ERRORS_SHOWN = 10


def import_package():
    """Import nscoding from the checkout's `src`, or exit with an error."""
    sys.path.insert(0, SRC)
    try:
        import nscoding
    except ImportError as exc:
        sys.exit(f"error: cannot import nscoding from {SRC}: {exc}")
    if not os.path.abspath(nscoding.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: nscoding was imported from {nscoding.__file__}, not from {SRC}")
    return nscoding


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def machine_info() -> dict:
    import numpy

    import nscoding

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nscoding": nscoding.__version__,
        "platform": platform.platform(),
        "processor": platform.processor() or platform.machine(),
    }


def setup_once(workload: str, seed: int) -> float:
    """Import nscoding, generate round 0 from the seed and round-trip its
    channels through files; the wall seconds this takes."""
    t0 = time.perf_counter()
    import_package()
    from workloads import make_round

    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        make_round(Layers(), workload, seed, 0, workdir)
    return time.perf_counter() - t0


def _child_seconds(cmd: list[str]) -> float:
    return float(subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout)


def measure_setup(workload: str, seed: int) -> list[float]:
    """`setup_once` in fresh processes, so the import is timed too.

    Setup is mostly imports, and on a shared VM the speed of a fresh
    process's imports drifts apart from that of the Fraction loop that
    scales instance times: over ten runs of `lp`, setup scaled by that
    loop spread by 12% (quartile distance / median), scaled by this
    yardstick by 4%.  So each setup is scaled by the yardstick processes
    run just before and after it: seconds at the speed where a fresh
    `import numpy` takes REFERENCE_IMPORT_S.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    times = []
    yard_before = _child_seconds(YARDSTICK)
    for _ in range(SETUP_REPEATS):
        wall = _child_seconds(cmd)
        yard_after = _child_seconds(YARDSTICK)
        times.append(wall * 2 * REFERENCE_IMPORT_S / (yard_before + yard_after))
        yard_before = yard_after
    return times


def end_to_end(result, setup_times: list[float]) -> dict:
    times = result.times
    return {
        "setup_s": statistics.median(setup_times),
        "instance_p50_s": statistics.median(times),
        "instance_p90_s": statistics.quantiles(times, n=10)[8],
        "instances_per_s": (result.attempted - result.failed) / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "answers_ok_ratio": (result.attempted - result.failed) / result.attempted,
    }


def run_one(args) -> int:
    import_package()
    from workloads import run_workload

    spec = _spec()
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        if args.trace:
            setup_times = []
            tracer = Tracer()
            result = run_workload(args.workload, args.seed, args.seconds, Layers(tracer), workdir)
            replay = run_workload(
                args.workload, args.seed, args.seconds, Layers(), workdir, rounds=result.rounds
            )
            values = layer_metrics(tracer.spans)
            traced_ips = result.attempted / sum(result.times)
            untraced_ips = replay.attempted / sum(replay.times)
            values["trace.instances_per_s"] = traced_ips
            values["trace.untraced_instances_per_s"] = untraced_ips
            values["trace.slowdown"] = untraced_ips / traced_ips
            wanted = spec["per_layer"]
            errors = result.errors + replay.errors
            attempted = result.attempted + replay.attempted
        else:
            setup_times = measure_setup(args.workload, args.seed)
            result = run_workload(args.workload, args.seed, args.seconds, Layers(), workdir)
            values = end_to_end(result, setup_times)
            wanted = spec["end_to_end"]
            errors = result.errors
            attempted = result.attempted

    names = [m["name"] for m in wanted]
    if sorted(values) != sorted(names):
        raise RuntimeError(f"computed metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    mix = collections.Counter(result.kinds)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(),
        "rounds": result.rounds,
        "instances": result.attempted,
        "instance_mix": dict(sorted(mix.items())),
        "instance_s_at_reference_speed": sum(result.times),
        "instance_s_wall": sum(result.wall_times),
        "setup_samples_s": setup_times,
        "errors": errors,
        "metrics": metrics,
        "instances_at_reference_speed_s": dict(zip(result.labels, result.times)),
    }
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    if args.trace:
        tracer.write(os.path.join(OUT, f"spans-{tag}.jsonl"))

    print(f"workload {args.workload}  seed {args.seed}  rounds {result.rounds}  "
          f"instances {result.attempted}  failed {len(errors)}  "
          f"instance time {sum(result.times):.2f} s at reference speed, "
          f"{sum(result.wall_times):.2f} s wall")
    for kind, count in sorted(mix.items()):
        print(f"  {count:5d} x {kind}")
    for name in names:
        print(f"{name:34s} {values[name]:.6g} {metrics[name]['unit']}")
    for line in errors[:MAX_ERRORS_SHOWN]:
        print(f"FAILED {line}")
    print("machine " + json.dumps(record["machine"]))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": metrics,
    }))
    return 0 if not errors else 1


def run_all(args) -> int:
    """Run every workload in its own process and print their metrics."""
    status, metrics, attempted, failed = 0, {}, 0, 0
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            last = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"error: workload {workload} printed no result", file=sys.stderr)
            return proc.returncode or 1
        status = status or proc.returncode
        attempted += last["attempted"]
        failed += last["failed"]
        metrics.update({f"{workload}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps({
        "correct": failed == 0 and status == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        print(setup_once(args.workload, args.seed))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
