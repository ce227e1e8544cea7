"""End-to-end checks of the command-line front end.

Everything runs in-process through `run` (argparse included), so these
are cheap; one test goes through the installed console script to make
sure the packaging entry point resolves.
"""

import importlib
import itertools
import json
import os
import pkgutil
import re
import shutil
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import nscoding
from nscoding import auth_scheme, capacity, classical, cli, ns_lp, simplex
from nscoding.capacity import ConvergenceError, capacity_table
from nscoding.channels import builtin_z0z1
from nscoding.cli import channel_digest, run
from nscoding.simplex import PivotLimitError
from nscoding.type_mapping import map_sequence
from test_golden_reports import CLI_CASES, GOLDEN
from test_rational import first_primes


def write_identity_channel(tmp_path):
    path = tmp_path / "ident.json"
    path.write_text(
        json.dumps(
            {
                "x_size": 2,
                "y_size": 2,
                "s_size": 1,
                "kernel": [[["1", "0"], ["0", "1"]]],
                "state_dist": ["1"],
            }
        )
    )
    return str(path)


def test_toy_pipeline_passes():
    code, text = run(["toy"])
    assert code == 0
    assert "success = 1" in text
    assert "C1/C2/C3: pass" in text
    assert "marginal = 1/4" in text


def test_theorem2_pipeline_exhibits_the_gap():
    code, text = run(["theorem2"])
    assert code == 0
    assert "certificate objective = 13/16" in text
    assert "classical CSIR ≥ 7/8: pass" in text
    assert "assisted causal optimum (LP2) = 13/16" in text
    assert "explicit strategy success = 7/8" in text
    assert "strict separation: pass" in text


def test_certificate_subcommand():
    code, text = run(["lp", "certificate"])
    assert code == 0
    assert "certificate objective = 13/16" in text
    assert "FAIL" not in text


# both certificate reports against their goldens, the certificate's lines rewritten
CERTIFICATE_REPORTS = pytest.mark.parametrize("argv, golden", [
    (["lp", "certificate"], "lp-certificate.txt"),
    (["theorem2"], "theorem2.txt"),
])


def certificate_report(golden, objective, violated, feasible):
    """The golden report `golden` with the certificate at `objective`, its
    `violated` rows, and the feasibility verdict `feasible`."""
    text = (Path(__file__).parent / "golden" / golden).read_text()
    rows = "".join(f"violated = {row}\n" for row in violated)
    text = text.replace("certificate objective = 13/16\n", f"certificate objective = {objective}\n{rows}")
    return text.replace("certificate feasible: pass\ncertificate objective = 13/16: pass\n",
                        f"certificate feasible: {feasible}\ncertificate objective = 13/16: FAIL\n")


def shift_certificate_entry(monkeypatch, name, by):
    """Make the CLI's exact solve of a dual program return its point with
    the entry `name` moved by `by`."""
    solve = cli.solve_exact

    def shifted(lp):
        sol = solve(lp)
        if lp.name.startswith("dual["):
            sol.assignment = {**sol.assignment, name: sol.assignment[name] + by}
        return sol

    monkeypatch.setattr(cli, "solve_exact", shifted)


@CERTIFICATE_REPORTS
def test_an_infeasible_certificate_point_fails_with_its_violated_rows(monkeypatch, argv, golden):
    # qsum[s=0] enters the dual rows of the four variables q[x, 0]: lowered by 1, all four fall short
    shift_certificate_entry(monkeypatch, "qsum[s=0]", -1)
    violated = [f"dual[q[{x},0]]" for x in range(4)]
    assert run(argv) == (1, certificate_report(golden, "-3/16", violated, "FAIL"))


@CERTIFICATE_REPORTS
def test_a_looser_feasible_certificate_point_fails_only_its_objective(monkeypatch, argv, golden):
    # raising a dual variable of a <= row keeps every dual row met, at a higher bound
    shift_certificate_entry(monkeypatch, "rsum[s=0,y=0]", 1)
    assert run(argv) == (1, certificate_report(golden, "21/16", [], "pass"))


@pytest.mark.parametrize("argv", [["theorem2"], ["lp", "certificate"]])
def test_certificate_pipelines_build_lp4_once(monkeypatch, argv):
    built = []
    build = cli.ns_lp.build_lp4_z0z1

    def counting_build():
        built.append(1)
        return build()

    monkeypatch.setattr(cli.ns_lp, "build_lp4_z0z1", counting_build)
    code, text = run(argv)
    assert code == 0 and "certificate objective = 13/16" in text
    assert len(built) == 1


def test_lp_solve_reports_exact_optimum():
    code, text = run(["lp", "solve", "--channel", "z0z1", "--M", "2", "--n", "2"])
    assert code == 0
    assert "optimum = 13/16" in text
    assert "status = optimal" in text


def test_lp_solution_export_is_rational_and_reproducible():
    argv = [
        "lp", "solve", "--channel", "z0z1", "--M", "2", "--n", "2", "--solution",
    ]
    code, text = run(argv)
    assert code == 0
    entries = [line for line in text.splitlines() if line.startswith("solution[")]
    assert entries
    for line in entries:
        F(line.split(" = ")[1])  # parses as an exact rational
    assert run(argv) == (code, text)


def test_classical_subcommand_prints_witness_table():
    code, text = run(
        ["classical", "--channel", "z0z1", "--M", "2", "--n", "2", "--csir"]
    )
    assert code == 0
    assert "optimum = 7/8" in text
    witness = [line for line in text.splitlines() if line.startswith("witness = ")]
    assert len(witness) == 2 * 2 + 2 * 4


def test_classical_single_message_report():
    # one all-zero entry per state prefix of length 1, 2 and 3
    witness = [f"witness = x_{len(p)}(w=0, s^{len(p)}={''.join(map(str, p))}) = 0"
               for j in (1, 2, 3) for p in itertools.product((0, 1), repeat=j)]
    expected = ["command = classical z0z1 M=1 n=3 no-csir", "channel = z0z1 sha256:ab0241477e03", "optimum = 1"]
    assert run(["classical", "--channel", "z0z1", "--M", "1", "--n", "3"]) == (0, "\n".join(expected + witness) + "\n")


def test_classical_single_message_refuses_a_witness_over_the_cap():
    tracemalloc.start()
    code, text = run(["classical", "--channel", "z0z1", "--M", "1", "--n", "40"])
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert (code, text) == (1, "error: the M = 1 witness (n=40) needs 2199023255550 table entries, above the cap 65536\n")
    assert peak < 2**22  # the 2^41-entry witness is counted, not built
    # a count past 64 bits is reported by its power of two
    assert run(["classical", "--channel", "z0z1", "--M", "1", "--n", "64"]) == (
        1, "error: the M = 1 witness (n=64) needs about 2^65 table entries, above the cap 65536\n"
    )


def test_classical_single_message_report_is_bounded():
    # the largest z0z1 witness under the cap prints within seconds; at
    # n = 23, 16.7M lines would take minutes
    start = time.perf_counter()
    code, text = run(["classical", "--channel", "z0z1", "--M", "1", "--n", "15"])
    assert code == 0 and text.count("\nwitness = ") == 2**16 - 2
    assert run(["classical", "--channel", "z0z1", "--M", "1", "--n", "23"]) == (
        1, "error: the M = 1 witness (n=23) needs 16777214 table entries, above the cap 65536\n"
    )
    assert time.perf_counter() - start < 20


def test_classical_single_message_checks_the_block_source_length():
    expected = (1, "error: block length 2 does not match block source length 3\n")
    for m in ("1", "2"):
        assert run(["classical", "--channel", "product-xs", "--M", m, "--n", "2"]) == expected


def test_capacity_subcommand_matches_library_values():
    code, text = run(["capacity", "z0z1"])
    assert code == 0
    table = capacity_table(builtin_z0z1())
    for cell, value in table.cells().items():
        assert f"{cell} = {value:.12g}" in text
    assert "seed" not in text


def test_scheme_build_and_verify(tmp_path):
    channel = write_identity_channel(tmp_path)
    code, text = run(["scheme", "build", "--channel", channel, "--n", "8", "--eps", "1/2"])
    assert code == 0
    assert "mu = 4" in text
    assert "message_count = 4" in text
    assert "lambda = 1" in text

    code, text = run(["scheme", "verify", "--channel", channel, "--n", "8", "--eps", "1/2"])
    assert code == 0
    assert "C1/C2/C3: pass" in text
    assert "marginal uniform: pass" in text


def test_scheme_simulate_exact(tmp_path):
    channel = write_identity_channel(tmp_path)
    code, text = run(
        ["scheme", "simulate", "--channel", channel, "--n", "8", "--eps", "1/2"]
    )
    assert code == 0
    assert "success = 7/8" in text


def test_scheme_simulate_mc_is_seeded(tmp_path):
    channel = write_identity_channel(tmp_path)
    argv = [
        "scheme", "simulate", "--channel", channel, "--n", "8", "--eps", "1/2",
        "--mode", "mc", "--samples", "20000", "--seed", "3",
    ]
    code, text = run(argv)
    assert code == 0
    estimate = float(
        next(l for l in text.splitlines() if l.startswith("success_estimate")).split(" = ")[1]
    )
    assert 0.85 <= estimate <= 0.9  # exact value is 7/8
    assert run(argv) == (code, text)


@pytest.mark.parametrize("argv", [
    ["scheme", "simulate", "--channel", "z0z1", "--n", "16", "--eps", "1/4", "--mode", "mc", "--samples", "30"],
    ["scheme", "simulate", "--channel", "z0z1", "--n", "2", "--eps", "1/2"],
    ["scheme", "simulate", "--channel", "z0z1", "--n", "2", "--eps", "1/2", "--mode", "exact"],
])
@pytest.mark.parametrize("seed", ["-1", "-3"])
def test_negative_seed_is_one_error_line(argv, seed):
    # random.Random seeds from abs(seed): -3 would print the estimate of 3;
    # the exact report, whose numbers ignore the seed, would echo it
    assert run(argv + [f"--seed={seed}"]) == (1, f"error: seed must be >= 0, got {seed}\n")


@pytest.mark.parametrize("option, text", [("--dist", "1/2,,1/2"), ("--seq", "0,1,1,0,")])
def test_typemap_list_with_an_empty_field_is_one_error_line(option, text):
    # an empty field was dropped: two probabilities, or four symbols, ran
    # while the report echoed the malformed list
    args = {"--n": "4", "--dist": "1/2,1/2", "--eps": "1/4", "--seq": "0,1,1,0", option: text}
    argv = ["typemap", *(item for pair in args.items() for item in pair)]
    assert run(argv) == (1, f"error: {option} {text!r} has an empty field\n")


def test_typemap_subcommand_mirrors_the_library():
    code, text = run(
        ["typemap", "--n", "6", "--dist", "1/2,1/2", "--eps", "1/3", "--seq", "0,1,1,1,0,1"]
    )
    assert code == 0
    mapped = map_sequence(6, [F(1, 2), F(1, 2)], (0, 1, 1, 1, 0, 1), F(1, 3))
    assert f"output = {','.join(str(v) for v in mapped.output)}" in text
    assert f"flag = {mapped.flag}" in text


# every golden report but the JSON one, and a seeded Monte Carlo report of
# its own sample count
JSON_CASES = {case: argv for case, argv in CLI_CASES.items() if case != "toy-json"}
JSON_CASES["simulate-z0z1-n16-mc-300"] = [
    "scheme", "simulate", "--channel", "z0z1", "--n", "16", "--eps", "1/4", "--mode", "mc",
    "--samples", "300", "--seed", "3",
]


@pytest.mark.parametrize("argv", JSON_CASES.values(), ids=JSON_CASES)
def test_json_report_rebuilds_the_text(argv, monkeypatch):
    # the JSON exits alike and carries the text's command, channel, seed,
    # results and checks, in the same order; its results are [key, value]
    # pairs, so a repeated key such as the classical `witness` survives
    monkeypatch.chdir(GOLDEN)
    code, text = run(argv)
    json_code, blob = run(argv + ["--json"])
    doc = json.loads(blob)
    assert json_code == code
    head = [key for key in ("command", "channel", "seed") if key in doc]
    assert list(doc) == [*head, "results", "checks"]
    lines = [f"{key} = {doc[key]}" for key in head]
    lines += [f"{key} = {value}" for key, value in doc["results"]]
    lines += [f"{key}: {verdict}" for key, verdict in doc["checks"].items()]
    assert text == "\n".join(lines) + "\n"
    if "--samples" in argv:
        assert ["samples", argv[argv.index("--samples") + 1]] in doc["results"]
        assert doc["seed"] == int(argv[argv.index("--seed") + 1])


def test_channel_digest_is_stable_and_content_sensitive():
    a = channel_digest(builtin_z0z1())
    assert a == channel_digest(builtin_z0z1())
    assert len(a) == 12
    from nscoding.channels import builtin_product_xs

    assert a != channel_digest(builtin_product_xs())


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        run(["bogus"])
    assert err.value.code == 2


def test_module_error_exits_1():
    code, text = run(["lp", "solve", "--channel", "missing.json", "--M", "2", "--n", "2"])
    assert code == 1
    assert text.startswith("error:")


def test_malformed_block_state_is_one_error_line(tmp_path):
    path = tmp_path / "bad_block.json"
    path.write_text(
        json.dumps(
            {
                "x_size": 2,
                "y_size": 2,
                "s_size": 1,
                "kernel": [[["1", "0"], ["0", "1"]]],
                "state_dist": ["1"],
                "block_state": {"atoms": []},
            }
        )
    )
    code, text = run(["lp", "solve", "--channel", str(path), "--M", "2", "--n", "1"])
    assert code == 1
    assert text.startswith("error:") and "block_state" in text
    assert text.count("\n") == 1


def test_malformed_block_state_atom_is_one_error_line(tmp_path):
    path = tmp_path / "atom.json"
    path.write_text(json.dumps({"x_size": 2, "y_size": 2, "s_size": 1, "kernel": [[["1", "0"], ["0", "1"]]],
                                "state_dist": ["1"], "block_state": {"n": 1, "atoms": [[0, "1"]]}}))
    code, text = run(["lp", "solve", "--channel", str(path), "--M", "2", "--n", "1"])
    assert (code, text) == (1, f"error: {path}: block_state atom [0, '1'] is not a [sequence, probability] pair\n")


def test_typemap_symbol_outside_the_alphabet_is_one_error_line():
    code, text = run(["typemap", "--n", "4", "--dist", "1/2,1/2", "--eps", "1/4", "--seq", "0,2,1,0"])
    assert (code, text) == (1, "error: --seq: symbol 2 out of range for alphabet of size 2\n")


@pytest.mark.parametrize("content", ["5", "[[0.5, 0.5], 3]"])
def test_malformed_strategy_file_is_one_error_line(tmp_path, content):
    path = tmp_path / "strategy.json"
    path.write_text(content)
    argv = ["scheme", "build", "--channel", "z0z1", "--n", "2", "--eps", "1/2"]
    code, text = run(argv + ["--strategy-file", str(path)])
    assert code == 1
    assert text.startswith("error:") and "strategy" in text
    assert text.count("\n") == 1


def test_boolean_strategy_entries_are_one_error_line(tmp_path):
    path = tmp_path / "strategy.json"
    path.write_text("[[true, false], [false, true]]")
    argv = ["scheme", "simulate", "--channel", "z0z1", "--n", "2", "--eps", "1/2"]
    assert run(argv + ["--strategy-file", str(path)]) == (1, f"error: {path}: true is a boolean, not a rational\n")


@pytest.mark.parametrize("content, message", [
    ("[[1]]", "1 strategy rows for 2 states"),
    ('[["1/2", "1/2"], [1]]', "strategy row 1 has 1 entries for 2 inputs"),
    ('[["1/2", "1/3"], ["1/2", "1/2"]]', "strategy row 0 is not a probability distribution: it sums to 5/6"),
    ('[["1/2", "1/2"], ["3/2", "-1/2"]]', "strategy row 1 is not a probability distribution: 3/2 is outside [0, 1]"),
])
def test_refused_strategy_file_contents_name_the_file(tmp_path, content, message):
    path = tmp_path / "strategy.json"
    path.write_text(content)
    argv = ["scheme", "build", "--channel", "z0z1", "--n", "2", "--eps", "1/2", "--strategy-file", str(path)]
    assert run(argv) == (1, f"error: {path}: {message}\n")


def test_a_long_dist_that_is_no_law_is_one_short_line_naming_the_option():
    dist = ",".join(["1/3000"] * 2999)
    code, text = run(["typemap", "--n", "4", "--dist", dist, "--eps", "1/4", "--seq", "0,1,0,1"])
    assert (code, text) == (1, "error: --dist is not a probability distribution: it sums to 2999/3000\n")
    assert len(text.encode()) < 200
    # 1/p over the first 300 primes sums to a fraction of about 850 digits over 850
    dist = ",".join(f"1/{p}" for p in first_primes(300))
    code, text = run(["typemap", "--n", "4", "--dist", dist, "--eps", "1/4", "--seq", "0,1,0,1"])
    assert code == 1
    assert re.fullmatch(r"error: --dist is not a probability distribution: it sums to \d+\.\.\.\d+/\d+\.\.\.\d+\n", text)
    assert len(text.encode()) < 120


@pytest.mark.parametrize("field, value", [
    ("kernel", [[[True, "0"], ["0", "1"]]]),
    ("state_dist", [True]),
])
def test_boolean_channel_entries_are_one_error_line(tmp_path, field, value):
    doc = json.loads(Path(write_identity_channel(tmp_path)).read_text())
    doc[field] = value
    path = tmp_path / "bool_entry.json"
    path.write_text(json.dumps(doc))
    code, text = run(["lp", "solve", "--channel", str(path), "--M", "2", "--n", "1"])
    assert (code, text) == (1, f"error: {path}: true is a boolean, not a rational\n")


@pytest.mark.parametrize(
    "field, value", [("kernel", 5), ("state_dist", 5), ("x_size", [2])]
)
def test_malformed_channel_field_is_one_error_line(tmp_path, field, value):
    doc = json.loads(Path(write_identity_channel(tmp_path)).read_text())
    doc[field] = value
    path = tmp_path / "bad_field.json"
    path.write_text(json.dumps(doc))
    code, text = run(["scheme", "build", "--channel", str(path), "--n", "2", "--eps", "1/2"])
    assert code == 1
    assert text.startswith("error:") and field in text
    assert text.count("\n") == 1


@pytest.mark.parametrize("workers", ["0", "1", "2"])
def test_worker_count_is_a_usage_error(workers):
    # the search runs in one process, so `classical` has no --workers
    argv = ["classical", "--channel", "z0z1", "--M", "2", "--n", "1", "--csir"]
    with pytest.raises(SystemExit) as info:
        run(argv + ["--workers", workers])
    assert info.value.code == 2


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_nonpositive_sample_count_is_one_error_line(samples):
    argv = ["scheme", "simulate", "--channel", "z0z1", "--n", "2", "--eps", "1/2", "--mode", "mc"]
    code, text = run(argv + ["--samples", samples])
    assert (code, text) == (1, f"error: samples must be >= 1, got {samples}\n")


def test_pivot_limit_is_one_error_line(monkeypatch):
    def give_up(lp):
        raise PivotLimitError("pivot limit 1 exceeded")

    monkeypatch.setattr(cli, "solve_exact", give_up)
    code, text = run(["lp", "solve", "--channel", "z0z1", "--M", "2", "--n", "1"])
    assert (code, text) == (1, "error: pivot limit 1 exceeded\n")


def test_capacity_nonconvergence_is_one_error_line(monkeypatch):
    def give_up(*args, **kwargs):
        raise ConvergenceError(7, 0.5)

    monkeypatch.setattr(capacity, "capacity_table", give_up)
    code, text = run(["capacity", "z0z1"])
    assert code == 1
    assert text.startswith("error: no convergence after 7 iterations")


@pytest.mark.parametrize(
    "argv, source",
    [
        (["scheme", "verify", "--channel", "z0z1", "--n", "2", "--eps", "1/0"], "--eps"),
        (["typemap", "--n", "4", "--dist", "1/0,1/2", "--eps", "1/4", "--seq", "0,1,1,0"], "--dist"),
        (["lp", "solve", "--channel", "ZERO_DEN_FILE", "--M", "2", "--n", "1"], "ZERO_DEN_FILE"),
    ],
)
def test_zero_denominator_is_one_error_line(tmp_path, argv, source):
    doc = json.loads(Path(write_identity_channel(tmp_path)).read_text())
    doc["kernel"][0][1] = ["1/0", "1"]
    path = tmp_path / "zero_den.json"
    path.write_text(json.dumps(doc))
    argv = [str(path) if a == "ZERO_DEN_FILE" else a for a in argv]
    source = str(path) if source == "ZERO_DEN_FILE" else source
    code, text = run(argv)
    assert (code, text) == (1, f"error: {source}: zero denominator in rational literal '1/0'\n")


SCHEME_BUILD = ["scheme", "build", "--channel", "z0z1", "--n", "4", "--eps", "1/2"]
TYPEMAP = ["typemap", "--n", "4", "--seq", "0,1,1,0"]


@pytest.mark.parametrize("argv, source, literal", [
    (["lp", "solve", "--channel", "NUMBER_FILE", "--M", "2", "--n", "1"], "NUMBER_FILE", "1e-99999999"),
    (["lp", "solve", "--channel", "STRING_FILE", "--M", "2", "--n", "1"], "STRING_FILE", "1e-99999999"),
    (SCHEME_BUILD + ["--strategy-file", "STRATEGY_FILE"], "STRATEGY_FILE", "1e-99999999"),
    (SCHEME_BUILD + ["--eps", "1e99999999"], "--eps", "1e99999999"),
    (TYPEMAP + ["--dist", "1e-99999999,1", "--eps", "1/4"], "--dist", "1e-99999999"),
    (TYPEMAP + ["--dist", "1/2,1/2", "--eps", "1e-999999999"], "--eps", "1e-999999999"),
])
def test_huge_decimal_exponent_is_one_error_line_at_once(tmp_path, argv, source, literal):
    # a 12-byte literal once asked Fraction for a hundred-million-digit power of ten
    text = Path(write_identity_channel(tmp_path)).read_text()
    files = {
        "NUMBER_FILE": text.replace('"state_dist": ["1"]', '"state_dist": [1e-99999999]'),
        "STRING_FILE": text.replace('"state_dist": ["1"]', '"state_dist": ["1e-99999999"]'),
        "STRATEGY_FILE": "[[1e-99999999, 1], [0.5, 0.5]]",
    }
    for name, content in files.items():
        (tmp_path / name).write_text(content)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    source = str(tmp_path / source) if source in files else source
    start = time.perf_counter()
    result = run(argv)
    assert time.perf_counter() - start < 1
    assert result == (1, f"error: {source}: decimal exponent of rational literal '{literal}' exceeds 4300\n")


@pytest.mark.parametrize("argv, source", [
    (["lp", "solve", "--channel", "STATE_DIST_FILE", "--M", "2", "--n", "1"], "STATE_DIST_FILE"),
    (["lp", "solve", "--channel", "X_SIZE_FILE", "--M", "2", "--n", "1"], "X_SIZE_FILE"),
    (["lp", "solve", "--channel", "KERNEL_FILE", "--M", "2", "--n", "1"], "KERNEL_FILE"),
    (["scheme", "build", "--channel", "z0z1", "--n", "4", "--eps", "x" * 3000], "--eps"),
    (["typemap", "--n", "2", "--dist", "1/2,1/2", "--eps", "1/4", "--seq", "1" * 5000 + ",0"], "--seq"),
    (["typemap", "--n", "2", "--dist", "1/2,1/2", "--eps", "1/4", "--seq", "a,b"], "--seq"),
    (["typemap", "--n", "2", "--dist", "1/2,1/2", "--eps", "1/4", "--seq", "x" * 3000], "--seq"),
    (["typemap", "--n", "2", "--dist", "1/2,," + "x" * 3000, "--eps", "1/4", "--seq", "0,0"], "--dist"),
], ids=["state_dist", "x_size", "kernel", "eps", "seq-digits", "seq-letters", "seq-long", "dist-empty"])
def test_refused_input_is_one_short_error_line_naming_its_source(tmp_path, argv, source):
    # a 5001-digit integer passes Python's digit limit, and a refused value
    # is echoed shortened: the line names the file or option and stays short
    text = Path(write_identity_channel(tmp_path)).read_text()
    files = {
        "STATE_DIST_FILE": text.replace('"state_dist": ["1"]', '"state_dist": [' + "1" * 5001 + "]"),
        "X_SIZE_FILE": text.replace('"x_size": 2', '"x_size": ' + "1" * 5001),
        "KERNEL_FILE": text.replace('["1", "0"]', '["' + "x" * 3000 + '", "0"]'),
    }
    for name, content in files.items():
        (tmp_path / name).write_text(content)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    source = str(tmp_path / source) if source in files else source
    code, out = run(argv)
    assert code == 1 and out.startswith(f"error: {source}") and out.count("\n") == 1
    assert len(out.encode()) <= 200


@pytest.mark.parametrize("option", ["--channel", "--strategy-file"])
def test_deeply_nested_file_is_one_error_line(tmp_path, option):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    start = time.perf_counter()
    result = run(SCHEME_BUILD + [option, str(path)])
    assert time.perf_counter() - start < 1
    assert result == (1, f"error: {path}: nested too deeply to read as JSON\n")


def test_lp_solve_answers_z0z1_at_n3():
    # the largest causal LP2 on z0z1 within the tableau budget (n = 4 is
    # refused below)
    code, text = run(["lp", "solve", "--channel", "z0z1", "--M", "2", "--n", "3"])
    assert code == 0
    assert "optimum = 7/8\n" in text and "solved to optimality: pass\n" in text


def test_oversize_tableau_is_one_error_line(tmp_path):
    # 4352 variables pass the builders' variable budget, but the tableau
    # would hold 6748 x 11100 cells; the solver refuses it before building.
    # The channel's automorphism group is trivial, so nothing reduces the
    # program (z0z1's orbits solve it: see the test below).
    path = tmp_path / "skew.json"
    path.write_text(json.dumps(CAP_CHANNELS["skew.json"]))
    code, text = run(["lp", "solve", "--channel", str(path), "--M", "2", "--n", "4"])
    assert code == 1
    assert text.startswith("error:") and "the 6748 x 11100 tableau of 'lp2[M=2,n=4,causal=True]' needs 74902800 cells" in text
    assert text.count("\n") == 1


@pytest.mark.parametrize("noncausal, group, shape, optimum", [
    (False, ["group order = 16"], "272 x 545", "51/56"),
    (True, ["group order = 384"], "40 x 41", "31/32"),
])
def test_z0z1_at_n4_solves_through_its_reduction(noncausal, group, shape, optimum):
    # the unreduced causal program is the one the tableau cap refuses above
    argv = ["lp", "solve", "--channel", "z0z1", "--M", "2", "--n", "4"] + ["--noncausal"] * noncausal
    code, text = run(argv)
    assert code == 0
    assert text.splitlines()[2:-1] == [*group, f"reduced shape = {shape}", "status = optimal", f"optimum = {optimum}"]


@pytest.mark.parametrize("action", ["build", "verify", "simulate"])
def test_block_source_of_another_length_is_one_error_line(action):
    argv = ["scheme", action, "--channel", "product-xs", "--n", "4", "--eps", "1/2"]
    assert run(argv) == (1, "error: block length 4 does not match block source length 3\n")


@pytest.mark.parametrize(
    "argv",
    [
        *(["scheme", action, "--channel", "z0z1", "--n", "-1", "--eps", "1/2"]
          for action in ("build", "verify", "simulate")),
        ["typemap", "--n", "-1", "--dist", "1/2,1/2", "--eps", "1/2", "--seq", "0"],
    ],
)
def test_negative_block_length_is_one_error_line(argv):
    assert run(argv) == (1, "error: n must be >= 1, got -1\n")


# -- fuzzing the command line -------------------------------------------------
#
# Only cheap instances are drawn (n <= 2, M <= 3, at most 100 samples) and
# at most one worker, so no pool process starts.

_INTS = st.integers(-1, 2).map(str)
_MESSAGES = st.integers(-1, 3).map(str)
_SEEDS = st.integers(-3, 3).map(str)
_RATIONALS = st.sampled_from(["1/2", "1/4", "0", "1", "2", "-1/3", "0.25", "1/0", "0/0", "x", ""])
_LISTS = st.lists(_RATIONALS, max_size=3).map(",".join)


@st.composite
def _argv(draw, channels):
    channel = draw(st.sampled_from(channels))
    kind = draw(st.sampled_from(["capacity", "lp", "certificate", "classical", "scheme", "typemap", "theorem2", "toy"]))
    if kind == "capacity":
        argv = ["capacity", channel]
    elif kind == "lp":
        argv = ["lp", "solve", "--channel", channel, "--M", draw(_MESSAGES), "--n", draw(_INTS)]
        argv += draw(st.sampled_from([[], ["--form", "lp1"], ["--noncausal", "--solution"]]))
    elif kind == "certificate":
        argv = ["lp", "certificate"]
    elif kind == "classical":
        argv = ["classical", "--channel", channel, "--M", draw(_MESSAGES), "--n", draw(_INTS)]
        argv += draw(st.sampled_from([[], ["--csir"]]))
    elif kind == "scheme":
        action = draw(st.sampled_from(["build", "verify", "simulate"]))
        argv = ["scheme", action, "--channel", channel, "--n", draw(_INTS), "--eps", draw(_RATIONALS)]
        if action == "simulate" and draw(st.booleans()):
            argv += ["--mode", "mc", "--samples", draw(st.integers(-1, 100).map(str)), "--seed", draw(_SEEDS)]
    elif kind == "typemap":
        argv = ["typemap", "--n", draw(_INTS), "--dist", draw(_LISTS), "--eps", draw(_RATIONALS)]
        argv += ["--seq", draw(st.lists(st.integers(-1, 3).map(str), max_size=4).map(",".join))]
    else:
        argv = [kind]
    return argv + draw(st.sampled_from([[], ["--json"]]))


@pytest.fixture(scope="module")
def fuzz_channels(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz")
    good = write_identity_channel(tmp)
    doc = json.loads(Path(good).read_text())
    doc["state_dist"] = ["1/0"]
    bad = tmp / "zero_den.json"
    bad.write_text(json.dumps(doc))
    return ["z0z1", "product-xs", good, str(bad), str(tmp / "missing.json")]


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_any_command_line_exits_0_1_or_2(fuzz_channels, data):
    argv = data.draw(_argv(fuzz_channels))
    try:
        code, text = run(argv)
    except SystemExit as exc:  # argparse usage errors
        assert exc.code == 2
        return
    assert code in (0, 1)
    if code == 1 and text.startswith("error:"):
        assert text.count("\n") == 1


def test_console_script_entry_point():
    exe = shutil.which("nscoding")
    if exe is None:
        pytest.skip("package not installed with scripts")
    proc = subprocess.run(
        [exe, "lp", "certificate"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "certificate objective = 13/16" in proc.stdout
    assert sys.version_info >= (3, 9)


def test_import_loads_neither_multiprocessing_nor_numpy_random():
    # the classical search runs in the calling process, with and without
    # CSIR, and loads no process pool; the Monte Carlo sampler draws from
    # random.Random, as numpy.random raised the scheme benchmark's peak RSS
    # by 15%
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = (
        "import sys, nscoding\n"
        "banned = {'multiprocessing', 'concurrent.futures', 'numpy.random'}\n"
        "print(sorted(banned & set(sys.modules)))\n"
        "for csir in (False, True):\n"
        "    nscoding.classical_opt_success(nscoding.builtin_z0z1(), 2, 2, csir=csir)\n"
        "print(sorted(banned & set(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n[]\n"


EXPORTING_MODULES = [
    module.__name__
    for module in map(importlib.import_module, ["nscoding", *(f"nscoding.{m.name}" for m in pkgutil.iter_modules(nscoding.__path__))])
    if hasattr(module, "__all__")
]


@pytest.mark.parametrize("name", EXPORTING_MODULES)
def test_every_exported_name_resolves(name):
    # a deleted function must take its __all__ entry with it
    module = importlib.import_module(name)
    assert [export for export in module.__all__ if not hasattr(module, export)] == []
    assert len(set(module.__all__)) == len(module.__all__)


@pytest.mark.parametrize("channel, n, mode", [
    ("z0z1", 12, []),
    ("z0z1", 12, ["--csir"]),
    ("one-output", 12, []),
    ("one-output", 12, ["--csir"]),
    ("z0z1", 40, []),
    ("z0z1", 40, ["--csir"]),
    ("z0z1", 3, []),
])
def test_oversize_search_is_one_error_line_within_a_second(tmp_path, channel, n, mode):
    # the one-output channel passes the law-array check with 2^24 cells;
    # its 2^8190 branches must still never be built or printed
    if channel == "one-output":
        channel = str(tmp_path / "one-output.json")
        with open(channel, "w", encoding="utf-8") as fh:
            json.dump({"x_size": 2, "y_size": 1, "s_size": 2, "kernel": [[["1"], ["1"]], [["1"], ["1"]]],
                       "state_dist": ["1/2", "1/2"]}, fh)
    start = time.perf_counter()
    code, text = run(["classical", "--channel", channel, "--M", "2", "--n", str(n), *mode])
    assert time.perf_counter() - start < 1
    assert code == 1
    assert re.fullmatch(rf"error: the (CSIR )?encoder search \(M=2, n={n}\) needs (\d+|about 2\^\d+) "
                        r"(block law cells|steps), above the cap 20000000\n", text)


@pytest.mark.parametrize("eps", ["1/4", "39/40"])
def test_oversize_exact_success_is_one_error_line_within_a_second(eps):
    start = time.perf_counter()
    code, text = run(["scheme", "simulate", "--channel", "z0z1", "--n", "40", "--eps", eps])
    assert time.perf_counter() - start < 1
    assert code == 1
    assert re.fullmatch(r"error: the exact success pass needs \d+ terms, above the cap 4000000; use monte_carlo mode\n", text)


def test_oversize_exact_success_prints_a_count_past_64_bits_as_a_power_of_two():
    # 2^15000 state blocks and no tested state: the count has 15001 bits
    start = time.perf_counter()
    code, text = run(["scheme", "simulate", "--channel", "z0z1", "--n", "15000", "--eps", "9999/10000"])
    assert time.perf_counter() - start < 1
    assert code == 1
    assert text == "error: the exact success pass needs about 2^15000 terms, above the cap 4000000; use monte_carlo mode\n"


CAP_CHANNELS = {
    # binary inputs and outputs over three states: at n = 10^7 each count
    # below has millions of digits, so only its logarithm may be formed
    "three.json": {
        "x_size": 2, "y_size": 2, "s_size": 3,
        "kernel": [[["1", "0"], ["0", "1"]], [["1/2", "1/2"], ["1/2", "1/2"]], [["3/4", "1/4"], ["1/4", "3/4"]]],
        "state_dist": ["1/3", "1/3", "1/3"],
    },
    "identity.json": {"x_size": 2, "y_size": 2, "s_size": 1, "kernel": [[["1", "0"], ["0", "1"]]], "state_dist": ["1"]},
    # 8 inputs over 5 states: 8^5 = 32768 strategy letters
    "wide.json": {"x_size": 8, "y_size": 2, "s_size": 5, "kernel": [[["1", "0"]] * 8] * 5, "state_dist": ["1/5"] * 5},
    # binary, with no automorphism but the identity: its programs are not reduced
    "skew.json": {
        "x_size": 2, "y_size": 2, "s_size": 2,
        "kernel": [[["1", "0"], ["1/2", "1/2"]], [["1/4", "3/4"], ["0", "1"]]],
        "state_dist": ["1/3", "2/3"],
    },
}
BIG_N = str(10**7)
NEAR_ONE = f"{10**7 - 1}/{10**7}"


@pytest.mark.parametrize("argv, cap", [
    (["lp", "solve", "--channel", "three.json", "--M", "2", "--n", BIG_N], "MAX_LP_VARIABLES"),
    (["lp", "solve", "--channel", "skew.json", "--M", "2", "--n", "4"], "MAX_TABLEAU_CELLS"),
    (["scheme", "verify", "--channel", "three.json", "--n", BIG_N, "--eps", NEAR_ONE], "TENSOR_ENTRY_CAP"),
    (["scheme", "simulate", "--channel", "three.json", "--n", BIG_N, "--eps", NEAR_ONE], "EXACT_SUCCESS_CAP"),
    (["scheme", "build", "--channel", "identity.json", "--n", "18000", "--eps", "1/2"], "MU_WORK_CAP"),
    (["classical", "--channel", "three.json", "--M", "2", "--n", BIG_N, "--csir"], "SEARCH_WORK_CAP"),
    (["classical", "--channel", "three.json", "--M", "1", "--n", BIG_N], "WITNESS_ENTRY_CAP"),
    (["capacity", "wide.json"], "MAX_STRATEGY_LETTERS"),
])
def test_every_size_cap_refuses_in_one_error_line_within_a_second(tmp_path, argv, cap):
    for name, doc in CAP_CHANNELS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    argv = [str(tmp_path / a) if a in CAP_CHANNELS else a for a in argv]
    value = next(getattr(m, cap) for m in (auth_scheme, capacity, classical, ns_lp, simplex) if hasattr(m, cap))
    start = time.perf_counter()
    code, text = run(argv)
    assert time.perf_counter() - start < 1
    assert code == 1
    assert re.fullmatch(rf"error: .+ needs (\d+|about 2\^\d+) [a-z ]+, above the cap {value}(; use monte_carlo mode)?\n", text)


@pytest.mark.parametrize("action", ["build", "verify"])
def test_seed_is_an_option_of_simulate_only(action):
    with pytest.raises(SystemExit) as err:
        run(["scheme", action, "--channel", "z0z1", "--n", "2", "--eps", "1/2", "--seed", "1"])
    assert err.value.code == 2


@pytest.mark.parametrize("option", [["--gp-restarts", "2"], ["--seed", "0"], ["--tol", "1e-9"]],
                         ids=["gp-restarts", "seed", "tol"])
def test_capacity_takes_no_restarts_or_seed(option):
    # the non-causal bound runs from two fixed starts, with nothing to draw;
    # capacity.TOL is the one tolerance, and the report's flags line reads it
    with pytest.raises(SystemExit) as err:
        run(["capacity", "z0z1", *option])
    assert err.value.code == 2
