"""Byte-for-byte pins of CLI reports and seeded estimates.

Each CLI case runs in-process from `tests/golden/` (so the channel and
strategy files there are named by a fixed relative path and the echoed
command stays stable) and must reproduce `tests/golden/<case>.txt`
exactly.  `values.json` pins what the CLI does not print: exact and
seeded Monte Carlo successes on channels with a block state source, and
a seeded Monte Carlo success on a channel with zero state and kernel
probabilities.

The files record the program's output as it was when they were written;
a change that alters any of them alters a report.  To rewrite them after
an intended change of output, run `python tests/test_golden_reports.py`.
"""

import json
import os
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest

from nscoding.auth_scheme import (
    build_auth_scheme,
    success_decomposition,
    success_probability,
    tensor_success,
    toy_product_scheme,
)
from nscoding.channels import BlockStateSource, builtin_product_xs, make_channel
from nscoding.cli import run

GOLDEN = Path(__file__).parent / "golden"
HALF = F(1, 2)

SIMULATE = ["scheme", "simulate", "--channel"]
MC = ["--mode", "mc", "--samples", "2000"]
LP_SOLVE = ["lp", "solve", "--channel", "z0z1", "--solution"]

CLI_CASES = {
    "toy": ["toy"],
    "toy-json": ["toy", "--json"],
    "theorem2": ["theorem2"],
    "lp-certificate": ["lp", "certificate"],
    "typemap": [
        "typemap", "--n", "8", "--dist", "1/4,3/4", "--eps", "1/4", "--seq", "0,1,1,0,0,0,1,1",
    ],
    "build-z0z1-n16": ["scheme", "build", "--channel", "z0z1", "--n", "16", "--eps", "1/4"],
    "verify-z0z1-n4": ["scheme", "verify", "--channel", "z0z1", "--n", "4", "--eps", "1/2"],
    "verify-identity-n8": [
        "scheme", "verify", "--channel", "identity.json", "--n", "8", "--eps", "1/2",
    ],
    "verify-identity-third-n6": [
        "scheme", "verify", "--channel", "identity.json", "--n", "6", "--eps", "1/4",
        "--strategy-file", "strategy-third.json",
    ],
    "simulate-z0z1-n5": SIMULATE + ["z0z1", "--n", "5", "--eps", "1/4"],
    "simulate-z0z1-n16-mc": SIMULATE + ["z0z1", "--n", "16", "--eps", "1/4", *MC, "--seed", "3"],
    "simulate-product-xs": SIMULATE + ["product-xs", "--n", "3", "--eps", "1/2"],
    "simulate-product-xs-mc": SIMULATE + ["product-xs", "--n", "3", "--eps", "1/2", *MC, "--seed", "7"],
    "simulate-identity-n8": SIMULATE + ["identity.json", "--n", "8", "--eps", "1/2"],
    "simulate-identity-n8-mc": SIMULATE + ["identity.json", "--n", "8", "--eps", "1/2", *MC, "--seed", "7"],
    "simulate-identity-quarter-n8": SIMULATE + [
        "identity.json", "--n", "8", "--eps", "1/4", "--strategy-file", "strategy-quarter.json",
    ],
    "simulate-identity-quarter-n8-mc": SIMULATE + [
        "identity.json", "--n", "8", "--eps", "1/4", "--strategy-file", "strategy-quarter.json",
        *MC, "--seed", "11",
    ],
    "classical-z0z1-n1-csir": ["classical", "--channel", "z0z1", "--M", "2", "--n", "1", "--csir"],
    "classical-z0z1-n2": ["classical", "--channel", "z0z1", "--M", "2", "--n", "2"],
    "classical-z0z1-n2-csir": ["classical", "--channel", "z0z1", "--M", "2", "--n", "2", "--csir"],
    "lp-z0z1-M2-n2": LP_SOLVE + ["--M", "2", "--n", "2"],
    "lp-z0z1-M3-n2": LP_SOLVE + ["--M", "3", "--n", "2"],
    "lp1-z0z1-M2-n2": LP_SOLVE + ["--form", "lp1", "--M", "2", "--n", "2"],
    "lp-z0z1-M2-n3-noncausal": LP_SOLVE + ["--M", "2", "--n", "3", "--noncausal"],
}


def xor_block_channel():
    """y = x xor s, states drawn from a three-atom block source of length 8."""
    atoms = (
        ((0, 1, 1, 0, 0, 1, 1, 0), F(1, 4)),
        ((1, 1, 0, 0, 1, 1, 0, 0), F(1, 4)),
        ((0, 0, 0, 0, 1, 1, 1, 1), HALF),
    )
    return make_channel(
        [[[1, 0], [0, 1]], [[0, 1], [1, 0]]], [HALF, HALF], block_state=BlockStateSource(n=8, atoms=atoms)
    )


def zero_probability_channel():
    """Three states, the middle one of probability 0, and kernel rows with
    a zero entry: several cumulative weight tables repeat a value."""
    return make_channel(
        [[[1, 0], [F(1, 4), F(3, 4)]], [[HALF, HALF]] * 2, [[0, 1], [HALF, HALF]]], [HALF, 0, HALF]
    )


def golden_values() -> dict[str, str]:
    xor = build_auth_scheme(xor_block_channel(), [[HALF, HALF]] * 2, 8, F(1, 4))
    product = build_auth_scheme(builtin_product_xs(), [[HALF, HALF]] * 2, 3, HALF, message_count=2)
    skew = BlockStateSource(n=3, atoms=(((0, 1, 1), HALF), ((0, 0, 1), HALF)))
    zero = build_auth_scheme(
        zero_probability_channel(), [[1, 0], [HALF, HALF], [F(1, 4), F(3, 4)]], 16, F(1, 3), message_count=4
    )
    dec = success_decomposition(xor)
    return {
        "xor block source exact": str(success_probability(xor)),
        "xor block source decomposition": " ".join(
            str(v) for v in (dec.success, dec.acceptance, dec.p_flag, dec.p_accept_given_flag)
        ),
        "xor block source mc": repr(success_probability(xor, mode="monte_carlo", samples=2000, seed=1)),
        "product-xs M=2 exact": str(success_probability(product)),
        "product-xs M=2 mc": repr(success_probability(product, mode="monte_carlo", samples=2000, seed=5)),
        "zero-probability channel M=4 mc": repr(
            success_probability(zero, mode="monte_carlo", samples=3000, seed=6)
        ),
        "toy on a skewed source": str(
            tensor_success(toy_product_scheme(), replace(builtin_product_xs(), block_state=skew))
        ),
    }


@pytest.mark.parametrize("case", list(CLI_CASES))
def test_cli_report_is_unchanged(case, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code, text = run(CLI_CASES[case])
    assert code == 0
    assert text == (GOLDEN / f"{case}.txt").read_text(encoding="utf-8")


def test_seeded_and_exact_values_are_unchanged():
    expected = json.loads((GOLDEN / "values.json").read_text(encoding="utf-8"))
    assert golden_values() == expected


def write_golden() -> None:
    os.chdir(GOLDEN)
    for case, argv in CLI_CASES.items():
        code, text = run(argv)
        assert code == 0, text
        Path(f"{case}.txt").write_text(text, encoding="utf-8")
    Path("values.json").write_text(json.dumps(golden_values(), indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    write_golden()
