"""End-to-end checks of the command-line front end.

Everything runs in-process through `run` (argparse included), so these
are cheap; one test goes through the installed console script to make
sure the packaging entry point resolves.
"""

import itertools
import json
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

from nscoding import auth_scheme, capacity, classical, cli, ns_lp, simplex
from nscoding.capacity import ConvergenceError, capacity_table
from nscoding.channels import builtin_z0z1
from nscoding.cli import channel_digest, run
from nscoding.simplex import PivotLimitError
from nscoding.type_mapping import map_sequence


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
    code, text = run(["capacity", "z0z1", "--gp-restarts", "2", "--seed", "0"])
    assert code == 0
    table = capacity_table(builtin_z0z1(), gp_restarts=2, seed=0)
    for cell, value in table.cells().items():
        assert f"{cell} = {value:.12g}" in text
    assert "seed = 0" in text


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
    ["capacity", "z0z1", "--gp-restarts", "2"],
    ["scheme", "simulate", "--channel", "z0z1", "--n", "2", "--eps", "1/2"],
    ["scheme", "simulate", "--channel", "z0z1", "--n", "2", "--eps", "1/2", "--mode", "exact"],
])
@pytest.mark.parametrize("seed", ["-1", "-3"])
def test_negative_seed_is_one_error_line(argv, seed):
    # random.Random seeds from abs(seed): -3 would print the estimate of 3;
    # the exact report, whose numbers ignore the seed, would echo it
    assert run(argv + [f"--seed={seed}"]) == (1, f"error: seed must be >= 0, got {seed}\n")


def test_typemap_subcommand_mirrors_the_library():
    code, text = run(
        ["typemap", "--n", "6", "--dist", "1/2,1/2", "--eps", "1/3", "--seq", "0,1,1,1,0,1"]
    )
    assert code == 0
    mapped = map_sequence(6, 2, [F(1, 2), F(1, 2)], (0, 1, 1, 1, 0, 1), F(1, 3))
    assert f"output = {','.join(str(v) for v in mapped.output)}" in text
    assert f"flag = {mapped.flag}" in text


def test_json_report_mirrors_text(tmp_path):
    code, text = run(["toy"])
    json_code, blob = run(["toy", "--json"])
    assert (code, json_code) == (0, 0)
    doc = json.loads(blob)
    assert doc["command"] == "toy"
    for key, value in doc["results"]:
        assert f"{key} = {value}" in text
    for key, verdict in doc["checks"].items():
        assert f"{key}: {'pass' if verdict == 'pass' else 'FAIL'}" in text


def test_json_report_keeps_repeated_keys():
    argv = ["classical", "--channel", "z0z1", "--M", "2", "--n", "2", "--csir"]
    _, text = run(argv)
    _, blob = run(argv + ["--json"])
    witness = [v for k, v in json.loads(blob)["results"] if k == "witness"]
    assert len(witness) == 12
    assert [f"witness = {v}" for v in witness] == [
        line for line in text.splitlines() if line.startswith("witness = ")
    ]


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
    assert run(argv + ["--strategy-file", str(path)]) == (1, "error: true is a boolean, not a rational\n")


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
    assert (code, text) == (1, "error: true is a boolean, not a rational\n")


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


@pytest.mark.parametrize("workers", ["0", "-4"])
def test_nonpositive_worker_count_is_one_error_line(workers):
    argv = ["classical", "--channel", "z0z1", "--M", "2", "--n", "1", "--csir"]
    code, text = run(argv + ["--workers", workers])
    assert (code, text) == (1, f"error: workers must be >= 1, got {workers}\n")


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_nonpositive_sample_count_is_one_error_line(samples):
    argv = ["scheme", "simulate", "--channel", "z0z1", "--n", "2", "--eps", "1/2", "--mode", "mc"]
    code, text = run(argv + ["--samples", samples])
    assert (code, text) == (1, f"error: samples must be >= 1, got {samples}\n")


def test_nonpositive_capacity_tolerance_is_one_error_line():
    code, text = run(["capacity", "z0z1", "--tol", "-1"])
    assert (code, text) == (1, "error: tolerance must be finite and positive, got -1.0\n")


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
    "argv",
    [
        ["scheme", "verify", "--channel", "z0z1", "--n", "2", "--eps", "1/0"],
        ["typemap", "--n", "4", "--dist", "1/0,1/2", "--eps", "1/4", "--seq", "0,1,1,0"],
        ["lp", "solve", "--channel", "ZERO_DEN_FILE", "--M", "2", "--n", "1"],
    ],
)
def test_zero_denominator_is_one_error_line(tmp_path, argv):
    doc = json.loads(Path(write_identity_channel(tmp_path)).read_text())
    doc["kernel"][0][1] = ["1/0", "1"]
    path = tmp_path / "zero_den.json"
    path.write_text(json.dumps(doc))
    argv = [str(path) if a == "ZERO_DEN_FILE" else a for a in argv]
    code, text = run(argv)
    assert (code, text) == (1, "error: zero denominator in rational literal '1/0'\n")


@pytest.mark.parametrize("restarts", ["-1", "1"])
def test_too_few_gp_restarts_is_one_error_line(restarts):
    code, text = run(["capacity", "z0z1", "--gp-restarts", restarts])
    assert code == 1
    assert text.startswith("error: restarts must be >= 2") and text.endswith(f"got {restarts}\n")
    assert text.count("\n") == 1


def test_lp_solve_answers_z0z1_at_n3():
    # the largest causal LP2 on z0z1 within the tableau budget (n = 4 is
    # refused below)
    code, text = run(["lp", "solve", "--channel", "z0z1", "--M", "2", "--n", "3"])
    assert code == 0
    assert "optimum = 7/8\n" in text and "solved to optimality: pass\n" in text


def test_oversize_tableau_is_one_error_line():
    # 4352 variables pass the builders' variable budget, but the tableau
    # would hold 6748 x 11100 cells; the solver refuses it before building.
    code, text = run(["lp", "solve", "--channel", "z0z1", "--M", "2", "--n", "4"])
    assert code == 1
    assert text.startswith("error:") and "the 6748 x 11100 tableau of 'lp2[M=2,n=4,causal=True]' needs 74902800 cells" in text
    assert text.count("\n") == 1


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
# Only cheap instances are drawn (n <= 2, M <= 3, at most 100 samples, at
# most 2 restarts) and at most one worker, so no pool process starts.

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
        argv = ["capacity", channel, "--gp-restarts", draw(_INTS)]
        argv += ["--tol", draw(st.sampled_from(["1e-9", "1e-6", "0", "-1", "nan", "inf"])), "--seed", draw(_SEEDS)]
    elif kind == "lp":
        argv = ["lp", "solve", "--channel", channel, "--M", draw(_MESSAGES), "--n", draw(_INTS)]
        argv += draw(st.sampled_from([[], ["--form", "lp1"], ["--noncausal", "--solution"]]))
    elif kind == "certificate":
        argv = ["lp", "certificate"]
    elif kind == "classical":
        argv = ["classical", "--channel", channel, "--M", draw(_MESSAGES), "--n", draw(_INTS)]
        argv += draw(st.sampled_from([[], ["--csir"]])) + ["--workers", draw(st.integers(-1, 1).map(str))]
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
}
BIG_N = str(10**7)
NEAR_ONE = f"{10**7 - 1}/{10**7}"


@pytest.mark.parametrize("argv, cap", [
    (["lp", "solve", "--channel", "three.json", "--M", "2", "--n", BIG_N], "MAX_LP_VARIABLES"),
    (["lp", "solve", "--channel", "z0z1", "--M", "2", "--n", "4"], "MAX_TABLEAU_CELLS"),
    (["scheme", "verify", "--channel", "three.json", "--n", BIG_N, "--eps", NEAR_ONE], "TENSOR_ENTRY_CAP"),
    (["scheme", "simulate", "--channel", "three.json", "--n", BIG_N, "--eps", NEAR_ONE], "EXACT_SUCCESS_CAP"),
    (["scheme", "build", "--channel", "identity.json", "--n", "264", "--eps", "1/2"], "MU_TYPE_ENUM_CAP"),
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
