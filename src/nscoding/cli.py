"""Command-line front end tying the modules into reproducible reports.

Every subcommand builds a ReportDocument — command echo, channel
digest, seed, result lines, check verdicts — and renders it either as
plain text (`key = value` lines, `name: pass|FAIL` verdicts) or as JSON
mirroring the same fields (results as an ordered list of [key, value]
pairs, since a key such as `witness` repeats).  Reports carry no
timestamps or timings, so rerunning a command with the same inputs and
seed reproduces the output byte for byte.  Exit status: 0 when every check passed, 1 on a module
error or failed check, 2 on usage errors (from argparse).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import reprlib
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from . import auth_scheme, capacity, classical, ns_lp, type_mapping
from .channels import (
    BUILTIN_CHANNELS,
    ChannelWithState,
    builtin_channel,
    builtin_product_xs,
    builtin_z0z1,
    load_channel_file,
    read_json,
)
from .rational import as_distribution, as_integer, as_rational, check_int, format_rational
from .simplex import PivotLimitError, solve_exact
from .typicality import symbol_counts

__all__ = ["ReportDocument", "run", "main"]


def _fmt_float(v: float) -> str:
    return f"{v:.12g}"


@dataclass
class ReportDocument:
    command: str
    channel: Optional[str] = None
    seed: Optional[int] = None
    results: list[tuple[str, str]] = field(default_factory=list)
    checks: list[tuple[str, bool]] = field(default_factory=list)

    def add(self, key: str, value) -> None:
        if isinstance(value, Fraction):
            value = format_rational(value)
        elif isinstance(value, float):
            value = _fmt_float(value)
        self.results.append((key, str(value)))

    def check(self, name: str, ok: bool) -> None:
        self.checks.append((name, bool(ok)))

    def all_pass(self) -> bool:
        return all(ok for _, ok in self.checks)

    def text(self) -> str:
        lines = [f"command = {self.command}"]
        if self.channel is not None:
            lines.append(f"channel = {self.channel}")
        if self.seed is not None:
            lines.append(f"seed = {self.seed}")
        lines.extend(f"{k} = {v}" for k, v in self.results)
        lines.extend(f"{k}: {'pass' if ok else 'FAIL'}" for k, ok in self.checks)
        return "\n".join(lines) + "\n"

    def json(self) -> str:
        doc = {"command": self.command}
        if self.channel is not None:
            doc["channel"] = self.channel
        if self.seed is not None:
            doc["seed"] = self.seed
        doc["results"] = [list(item) for item in self.results]
        doc["checks"] = {k: "pass" if ok else "FAIL" for k, ok in self.checks}
        return json.dumps(doc, indent=2) + "\n"

    def render(self, as_json: bool) -> str:
        return self.json() if as_json else self.text()


def channel_digest(ch: ChannelWithState) -> str:
    """Short content hash of the exact channel description."""
    doc = {
        "kernel": [[[str(p) for p in row] for row in sl] for sl in ch.kernel],
        "state_dist": [str(p) for p in ch.state_dist],
    }
    if ch.block_state is not None:
        doc["block_state"] = [
            [list(seq), str(p)] for seq, p in ch.block_state.atoms
        ]
    blob = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _load_channel(spec: str) -> tuple[str, ChannelWithState]:
    if spec in BUILTIN_CHANNELS:
        ch = builtin_channel(spec)
    else:
        ch = load_channel_file(spec)
    return f"{spec} sha256:{channel_digest(ch)}", ch


def _parse(source: str, text, parse):
    """parse(text), or its ValueError prefixed with its source, an option or a file path."""
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


def _parse_list(option: str, text: str, parse) -> list:
    fields = [part.strip() for part in text.split(",")]
    if "" in fields:
        raise ValueError(f"{option} {reprlib.repr(text)} has an empty field")
    return [_parse(option, part, parse) for part in fields]


# -- subcommand bodies --------------------------------------------------------


def _cmd_capacity(args) -> ReportDocument:
    label, ch = _load_channel(args.channel)
    report = ReportDocument(command=f"capacity {args.channel}", channel=label)
    table = capacity.capacity_table(ch)
    for cell, value in table.cells().items():
        report.add(cell, value)
    report.add(
        "flags",
        "classical_noncausal is an approximate lower bound; other cells "
        f"converged to tol {_fmt_float(capacity.TOL)}",
    )
    return report


def _add_certificate(report: ReportDocument) -> None:
    """Verify the z0z1 dual point, the exact optimum of LP4: report its
    objective and any violated rows, and check that it is feasible and
    bounds at 13/16."""
    lp4 = ns_lp.build_lp4_z0z1()
    verdict = ns_lp.verify_certificate(lp4, solve_exact(lp4).assignment)
    report.add("certificate objective", verdict.objective)
    for row in verdict.violated:
        report.add("violated", row)
    report.check("certificate feasible", verdict.feasible)
    report.check("certificate objective = 13/16", verdict.objective == Fraction(13, 16))


def _add_tensor_checks(report: ReportDocument, tensor: auth_scheme.SchemeTensor, marginal_check: str) -> None:
    """Validate a scheme tensor, report the uniform message marginal 1/M,
    and check its conditions and that every message marginal equals 1/M."""
    tensor.validate()
    uniform = Fraction(1, tensor.message_count)
    report.add("marginal", uniform)
    report.check("C1/C2/C3", auth_scheme.verify_conditions(tensor).all_pass())
    report.check(marginal_check, bool((tensor.message_marginals() == uniform).all()))


def _cmd_lp(args) -> ReportDocument:
    if args.lp_action == "certificate":
        report = ReportDocument(command="lp certificate")
        _add_certificate(report)
        return report
    label, ch = _load_channel(args.channel)
    causal = not args.noncausal
    mode = "causal" if causal else "non-causal"
    report = ReportDocument(
        command=f"lp solve {args.channel} M={args.M} n={args.n} "
        f"form={args.form} {mode}",
        channel=label,
    )
    build = ns_lp.build_lp1 if args.form == "lp1" else ns_lp.build_lp2
    lp = build(ch, M=args.M, n=args.n, causal=causal)
    reduction = lp.reduction
    if reduction is not None:
        if reduction.group_order > 1:
            report.add("group order", reduction.group_order)
        report.add("reduced shape", f"{len(reduction.program.var_names)} x {len(reduction.program.rows)}")
    sol = solve_exact(lp)
    report.add("status", sol.status)
    if sol.status == "optimal":
        report.add("optimum", sol.value)
        if args.solution:
            for name in sorted(sol.assignment):
                if sol.assignment[name]:
                    report.add(f"solution[{name}]", sol.assignment[name])
    report.check("solved to optimality", sol.status == "optimal")
    return report


def _cmd_classical(args) -> ReportDocument:
    label, ch = _load_channel(args.channel)
    mode = "csir" if args.csir else "no-csir"
    report = ReportDocument(
        command=f"classical {args.channel} M={args.M} n={args.n} {mode}",
        channel=label,
    )
    value, witness = classical.classical_opt_success(ch, args.M, args.n, csir=args.csir)
    report.add("optimum", value)
    for line in classical.encoder_table_lines(witness):
        report.add("witness", line)
    return report


def _load_strategy(path: Optional[str], ch: ChannelWithState):
    if path is None:
        u = Fraction(1, ch.x_size)
        return [[u] * ch.x_size for _ in range(ch.s_size)]
    rows = read_json(path)
    if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
        raise ValueError(f"{path}: a strategy file must hold a list of per-state rows (lists)")
    return _parse(path, rows, lambda rows: auth_scheme._clean_strategy(ch, rows))


def _cmd_scheme(args) -> ReportDocument:
    if args.scheme_action == "simulate":  # refused in exact mode too, whose report echoes the seed
        check_int(args.seed, "seed", 0)
    label, ch = _load_channel(args.channel)
    report = ReportDocument(
        command=f"scheme {args.scheme_action} {args.channel} n={args.n} eps={args.eps}",
        channel=label,
        seed=args.seed if args.scheme_action == "simulate" else None,
    )
    strategy = _load_strategy(args.strategy_file, ch)
    scheme = auth_scheme.build_auth_scheme(ch, strategy, args.n, _parse("--eps", args.eps, as_rational))
    report.add("mu", scheme.mu)
    report.add("message_count", scheme.message_count)
    report.add("lambda", scheme.acceptance)
    report.add("rate", scheme.rate())
    report.add(
        "kept_block_lengths",
        ",".join(str(v) for v in scheme.kept_block_lengths()),
    )
    if args.scheme_action == "verify":
        _add_tensor_checks(report, auth_scheme.materialize_tensor(scheme), "marginal uniform")
    elif args.scheme_action == "simulate":
        if args.mode == "exact":
            value = auth_scheme.success_probability(scheme, mode="exact")
            report.add("success", value)
        else:
            estimate, (lo, hi) = auth_scheme.success_probability(
                scheme, mode="monte_carlo", samples=args.samples, seed=args.seed
            )
            report.add("success_estimate", estimate)
            report.add("success_ci95", f"[{_fmt_float(lo)}, {_fmt_float(hi)}]")
            report.add("samples", args.samples)
    return report


def _cmd_typemap(args) -> ReportDocument:
    report = ReportDocument(
        command=f"typemap n={args.n} dist={args.dist} eps={args.eps} seq={args.seq}"
    )
    dist = as_distribution(_parse_list("--dist", args.dist, as_rational), "--dist")
    seq = _parse_list("--seq", args.seq, as_integer)
    eps = _parse("--eps", args.eps, as_rational)
    _parse("--seq", seq, lambda seq: symbol_counts(seq, len(dist)))  # a symbol outside the alphabet
    mapped = type_mapping.map_sequence(args.n, dist, seq, eps)
    report.add("output", ",".join(str(v) for v in mapped.output))
    report.add("flag", mapped.flag)
    report.add("placeholder_symbol", type_mapping.placeholder(len(dist)))
    return report


def _cmd_theorem2(args) -> ReportDocument:
    ch = builtin_z0z1()
    report = ReportDocument(
        command="theorem2", channel=f"z0z1 sha256:{channel_digest(ch)}"
    )
    _add_certificate(report)

    sol = solve_exact(ns_lp.build_lp2(ch, M=2, n=2))
    report.add("assisted causal optimum (LP2)", sol.value)
    bound = Fraction(13, 16)
    report.check(
        "assisted causal optimum ≤ 13/16",
        sol.status == "optimal" and sol.value <= bound,
    )

    opt, _witness = classical.classical_opt_success(ch, 2, 2, csir=True)
    report.add("classical CSIR optimum", opt)
    strat = classical.explicit_z0z1_strategy()
    report.add("explicit strategy success", strat.success)
    report.add(
        "explicit per-message success",
        " ".join(format_rational(p) for p in strat.per_message),
    )
    seven_eighths = Fraction(7, 8)
    report.check("classical CSIR ≥ 7/8", opt >= seven_eighths)
    report.check("explicit strategy = 7/8", strat.success == seven_eighths)
    report.add(
        "comparison",
        f"assisted causal {format_rational(sol.value)} < "
        f"classical CSIR {format_rational(opt)}",
    )
    report.check("strict separation", sol.value < opt)
    return report


def _cmd_toy(args) -> ReportDocument:
    ch = builtin_product_xs()
    report = ReportDocument(
        command="toy", channel=f"product-xs sha256:{channel_digest(ch)}"
    )
    tensor = auth_scheme.toy_product_scheme()
    report.add("message_count", tensor.message_count)
    report.add("n", tensor.n)
    report.check("tensor well-formed", True)  # a malformed one ends the report in an error
    _add_tensor_checks(report, tensor, "marginal uniform 1/4")
    success = auth_scheme.tensor_success(tensor, ch)
    report.add("success", success)
    report.check("success equals 1", success == 1)
    return report


# -- argument parsing ----------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nscoding",
        description="Exact and simulated experiments for coding over "
        "channels with causal state, with and without non-signaling "
        "assistance.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="emit the report as JSON")

    p = sub.add_parser("capacity", help="four-cell capacity table of a channel")
    p.add_argument("channel", help="builtin channel name or channel file path")
    add_json(p)

    p = sub.add_parser("lp", help="exact success-probability linear programs")
    lp_sub = p.add_subparsers(dest="lp_action", required=True)
    ps = lp_sub.add_parser("solve", help="build and solve the program exactly")
    ps.add_argument("--channel", required=True)
    ps.add_argument("--M", type=int, required=True)
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--form", choices=("lp1", "lp2"), default="lp2")
    ps.add_argument("--noncausal", action="store_true")
    ps.add_argument(
        "--solution", action="store_true", help="print nonzero solution entries"
    )
    add_json(ps)
    add_json(lp_sub.add_parser("certificate", help="verify the z0z1 dual feasible point"))

    p = sub.add_parser("classical", help="exhaustive classical encoder search")
    p.add_argument("--channel", required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--csir", action="store_true")
    add_json(p)

    p = sub.add_parser("scheme", help="authentication-style scheme pipeline")
    scheme_sub = p.add_subparsers(dest="scheme_action", required=True)
    for action in ("build", "verify", "simulate"):
        pa = scheme_sub.add_parser(action)
        pa.add_argument("--channel", required=True)
        pa.add_argument("--n", type=int, required=True)
        pa.add_argument("--eps", required=True, help='rational, e.g. "1/4"')
        pa.add_argument(
            "--strategy-file",
            default=None,
            help="JSON per-state input rows; omitted = uniform inputs",
        )
        if action == "simulate":
            pa.add_argument("--mode", choices=("exact", "mc"), default="exact")
            pa.add_argument("--samples", type=int, default=100_000)
            pa.add_argument("--seed", type=int, default=0)
        add_json(pa)

    p = sub.add_parser("typemap", help="map one sequence to the fixed output type")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dist", required=True, help='comma rationals, e.g. "1/2,1/2"')
    p.add_argument("--eps", required=True)
    p.add_argument("--seq", required=True, help='comma symbols, e.g. "0,1,1,0"')
    add_json(p)

    p = sub.add_parser(
        "theorem2", help="certificate + LP + classical search separation pipeline"
    )
    add_json(p)

    p = sub.add_parser("toy", help="build and verify the hand-built 4-message scheme")
    add_json(p)

    return parser


_DISPATCH = {
    "capacity": _cmd_capacity,
    "lp": _cmd_lp,
    "classical": _cmd_classical,
    "scheme": _cmd_scheme,
    "typemap": _cmd_typemap,
    "theorem2": _cmd_theorem2,
    "toy": _cmd_toy,
}


def run(argv: Sequence[str]) -> tuple[int, str]:
    """Execute one CLI invocation; returns (exit_code, rendered report).

    Usage errors propagate as SystemExit(2) from argparse; module errors
    are caught and rendered as a one-line message with exit code 1.
    """
    args = _build_parser().parse_args(argv)
    try:
        report = _DISPATCH[args.subcommand](args)
    except (ValueError, OSError, PivotLimitError, capacity.ConvergenceError) as exc:
        return 1, f"error: {exc}\n"
    code = 0 if report.all_pass() else 1
    return code, report.render(args.json)


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    code, text = run(argv)
    stream = sys.stderr if code == 1 and text.startswith("error:") else sys.stdout
    stream.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
