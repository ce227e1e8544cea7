"""Tests for the assisted-coding linear programs.

The binary two-state channel at M=2, n=2 is small enough to solve
exactly, so the values asserted here are solver-verified rationals:
13/16 for the causal programs (full and reduced agree, and the
relaxation plus a certificate point in its derived dual pin the same
number from both sides) and 7/8 for the non-causal programs, which must
not change when the receiver is handed the state sequence.
"""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from nscoding.channels import (
    BlockStateSource,
    block_outputs,
    builtin_z0z1,
    lift_csir,
    make_channel,
    state_blocks,
)
from nscoding.classical import classical_opt_success
from nscoding.ns_lp import (
    MAX_LP_VARIABLES,
    build_lp1,
    build_lp2,
    build_lp3_z0z1,
    build_lp4_z0z1,
    certificate_point_z0z1,
    dual_of,
    lp1_to_lp2,
    lp2_to_lp1,
    verify_certificate,
)
from nscoding.simplex import solve_exact

F = Fraction
OPT_CAUSAL = F(13, 16)
OPT_NONCAUSAL = F(7, 8)


# -- worked binary instance -------------------------------------------------


def test_reduced_causal_optimum_is_13_16():
    sol = solve_exact(build_lp2(builtin_z0z1(), M=2, n=2))
    assert sol.status == "optimal"
    assert sol.value == OPT_CAUSAL


def test_full_causal_optimum_matches_reduced():
    sol = solve_exact(build_lp1(builtin_z0z1(), M=2, n=2))
    assert sol.status == "optimal"
    assert sol.value == OPT_CAUSAL


def test_relaxation_and_dual_bracket_the_same_value():
    relaxed = solve_exact(build_lp3_z0z1())
    dual = solve_exact(build_lp4_z0z1())
    assert relaxed.value == OPT_CAUSAL
    assert dual.value == OPT_CAUSAL


def test_noncausal_value_survives_state_disclosure():
    ch = builtin_z0z1()
    base = solve_exact(build_lp2(ch, M=2, n=2, causal=False))
    lifted = solve_exact(build_lp2(lift_csir(ch), M=2, n=2, causal=False))
    assert base.value == OPT_NONCAUSAL
    assert lifted.value == OPT_NONCAUSAL


def test_causal_value_on_lifted_channel_meets_noncausal():
    # Once the receiver knows the states, encoder causality costs
    # nothing on this instance.
    sol = solve_exact(build_lp2(lift_csir(builtin_z0z1()), M=2, n=2))
    assert sol.value == OPT_NONCAUSAL


def test_reduced_program_shape_regression():
    lp = build_lp2(builtin_z0z1(), M=2, n=2)
    # 64 r-cells + 16 q-cells; 16 output-normalization rows, 4
    # input-normalization rows, 64 dominance rows, 16 + 4 causality rows.
    assert lp.size() == (80, 104)


# -- certificate ------------------------------------------------------------


# The dual point published with the 13/16 bound, keyed by the relaxation's
# rows: output-block normalization (rsum), input-marginal normalization
# (qsum), diagonal-weight causality (rcausal) and r <= q (rq).  Every
# unlisted variable is zero.  It is another optimum of the same dual than
# the simplex vertex `certificate_point_z0z1` returns.
PUBLISHED_CERTIFICATE = {label: F(v) for label, v in {
    "rsum[s=1,y=0]": "3/16", "rsum[s=2,y=0]": "1/16", "rsum[s=1,y=1]": "3/16",
    "rsum[s=1,y=2]": "1/16", "rsum[s=2,y=2]": "3/16", "rsum[s=2,y=3]": "3/16",
    "qsum[s=0]": "1/8", "qsum[s=1]": "1/16", "qsum[s=2]": "1/8", "qsum[s=3]": "1/16",
    "rcausal[i=1,px=0,s=1,y=0]": "-1/8", "rcausal[i=1,px=0,s=3,y=1]": "1/16",
    "rcausal[i=1,px=0,s=1,y=2]": "-1/16", "rcausal[i=1,px=0,s=3,y=2]": "1/16",
    "rcausal[i=1,px=0,s=3,y=3]": "1/8", "rcausal[i=1,px=1,s=1,y=0]": "-1/8",
    "rcausal[i=1,px=1,s=3,y=0]": "1/16", "rcausal[i=1,px=1,s=1,y=1]": "-1/16",
    "rcausal[i=1,px=1,s=1,y=2]": "-1/16", "rcausal[i=1,px=1,s=3,y=2]": "1/16",
    "rcausal[i=1,px=1,s=1,y=3]": "1/16", "rcausal[i=1,px=1,s=3,y=3]": "3/16",
    "rq[x=0,y=0,s=0]": "1/8", "rq[x=0,y=0,s=1]": "1/16", "rq[x=0,y=0,s=2]": "1/16",
    "rq[x=0,y=0,s=3]": "1/16", "rq[x=0,y=1,s=2]": "1/16", "rq[x=1,y=1,s=0]": "1/8",
    "rq[x=1,y=1,s=1]": "1/16", "rq[x=1,y=1,s=2]": "1/8", "rq[x=1,y=1,s=3]": "1/16",
    "rq[x=2,y=2,s=0]": "1/16", "rq[x=2,y=2,s=1]": "1/16", "rq[x=2,y=2,s=2]": "1/8",
    "rq[x=2,y=2,s=3]": "1/16", "rq[x=2,y=3,s=0]": "1/16", "rq[x=3,y=3,s=0]": "1/8",
    "rq[x=3,y=3,s=1]": "1/16", "rq[x=3,y=3,s=2]": "1/8", "rq[x=3,y=3,s=3]": "1/16",
}.items()}


def test_certificate_is_feasible_with_objective_13_16():
    report = verify_certificate(build_lp4_z0z1(), certificate_point_z0z1())
    assert report.feasible
    assert report.violated == []
    assert report.objective == OPT_CAUSAL


def test_certificate_is_the_simplex_optimum_of_the_dual():
    lp4 = build_lp4_z0z1()
    point = certificate_point_z0z1()
    assert point == solve_exact(lp4).assignment
    assert lp4.violated_rows(point) == []
    assert lp4.objective_value(point) == OPT_CAUSAL
    assert point != PUBLISHED_CERTIFICATE


def test_published_certificate_is_feasible_with_objective_13_16():
    report = verify_certificate(build_lp4_z0z1(), PUBLISHED_CERTIFICATE)
    assert report.feasible and report.violated == []
    assert report.objective == OPT_CAUSAL
    assert len(PUBLISHED_CERTIFICATE) == 40


def test_certificate_mu_entry_cannot_be_lowered():
    point = dict(PUBLISHED_CERTIFICATE)
    point["qsum[s=0]"] = F(1, 16)
    report = verify_certificate(build_lp4_z0z1(), point)
    assert not report.feasible
    assert report.violated == [
        "dual[q[0,0]]",
        "dual[q[1,0]]",
        "dual[q[2,0]]",
        "dual[q[3,0]]",
    ]


def test_certificate_with_an_unknown_variable_is_a_value_error():
    with pytest.raises(ValueError, match=r"no variable 'mu\[0,0\]'"):
        verify_certificate(build_lp4_z0z1(), {"mu[0,0]": 1})


def test_dual_of_the_dual_recovers_13_16():
    # The dual is a min problem with free variables and >= rows.
    assert solve_exact(dual_of(build_lp4_z0z1())).value == OPT_CAUSAL


# -- point mappings between the two formulations ----------------------------


def test_reduced_solution_lifts_to_feasible_full_point():
    ch = builtin_z0z1()
    lp2 = build_lp2(ch, M=2, n=2)
    sol = solve_exact(lp2)
    z_point = lp2_to_lp1(ch, 2, 2, sol.assignment)
    lp1 = build_lp1(ch, M=2, n=2)
    assert lp1.violated_rows(z_point) == []
    assert lp1.objective_value(z_point) == sol.value


def test_full_solution_projects_to_feasible_reduced_point():
    ch = builtin_z0z1()
    lp1 = build_lp1(ch, M=2, n=2)
    sol = solve_exact(lp1)
    rq_point = lp1_to_lp2(ch, 2, 2, sol.assignment)
    lp2 = build_lp2(ch, M=2, n=2)
    assert lp2.violated_rows(rq_point) == []
    assert lp2.objective_value(rq_point) == sol.value


def test_single_message_programs_are_trivial():
    # With one message there is nothing to decode: both programs allow
    # success probability 1, and the round trip keeps only diagonals.
    ch = builtin_z0z1()
    assert solve_exact(build_lp2(ch, M=1, n=1)).value == 1
    z_point = lp2_to_lp1(ch, 1, 1, {"r[0,0,0]": 1, "q[0,0]": 1})
    assert set(z_point) == {"z[0,0,0,0,0]"}


# -- formulations agree on random channels ----------------------------------


def random_binary_channel(seed: int):
    rng = random.Random(seed)
    kernel = [
        [[F(a, 8), F(8 - a, 8)] for a in (rng.randint(0, 8), rng.randint(0, 8))]
        for _ in range(2)
    ]
    b = rng.randint(1, 7)
    return make_channel(kernel=kernel, state_dist=[F(b, 8), F(8 - b, 8)])


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize(
    "build, n, causal",
    [(build_lp2, 2, True), (build_lp2, 2, False), (build_lp1, 1, True)],
)
def test_dual_of_meets_the_primal_optimum(seed, build, n, causal):
    lp = build(random_binary_channel(seed), M=2, n=n, causal=causal)
    assert solve_exact(dual_of(lp)).value == solve_exact(lp).value


def random_channel(seed: int, x_size: int, y_size: int, s_size: int):
    # Small-integer kernel rows, some entries zero, and a positive state law.
    rng = random.Random(seed)
    kernel = []
    for _ in range(s_size):
        rows = []
        for _ in range(x_size):
            w = [rng.randint(0, 3) for _ in range(y_size)]
            w[rng.randrange(y_size)] += 1
            rows.append([F(a, sum(w)) for a in w])
        kernel.append(rows)
    d = [rng.randint(1, 4) for _ in range(s_size)]
    return make_channel(kernel=kernel, state_dist=[F(a, sum(d)) for a in d])


def test_programs_match_the_pinned_digest():
    # The sha256 of every program below, computed with the per-family
    # row loops the builders had before they shared one invariance-row
    # rule: name, sense, variables, objective, sign constraints and every
    # row, in row order.  Coefficient keys must be Python ints.
    z0z1 = builtin_z0z1()
    channels = [
        z0z1,
        lift_csir(z0z1),
        random_channel(1, 2, 3, 2),
        random_channel(2, 3, 2, 2),
        random_channel(3, 2, 2, 3),
    ]
    programs = [
        build(ch, M, n, causal)
        for ch in channels
        for n in (1, 2)
        for M in (1, 2, 3)
        for causal in (True, False)
        for build in (build_lp1, build_lp2)
    ]
    programs += [build_lp2(z0z1, 2, 3), build_lp3_z0z1()]
    digest = hashlib.sha256()
    for lp in programs:
        rows = [(sorted(row.coeffs.items()), row.relation, row.rhs, row.label) for row in lp.rows]
        digest.update(repr((
            lp.name, lp.sense, lp.var_names, sorted(lp.objective.items()), lp.nonneg, rows,
        )).encode())
    assert len(programs) == 122
    assert digest.hexdigest() == "296eb66666595bdc5c06e4736190f7e6265606c8f87e2b5788bc6560d4ebcf1f"


@pytest.mark.parametrize("seed", [1, 2])
def test_formulations_agree_on_random_channels(seed):
    ch = random_binary_channel(seed)
    full = solve_exact(build_lp1(ch, M=2, n=2))
    reduced = solve_exact(build_lp2(ch, M=2, n=2))
    assert full.status == reduced.status == "optimal"
    assert full.value == reduced.value


# -- the block law -----------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("seed", [1, 2])
def test_block_law_matches_direct_product(seed, n):
    # Reference: P(s^n) and prod_i N(y_i|x_i,s_i) written out over every
    # (x^n, s^n, y^n), zero-weight blocks dropped.
    ch = random_binary_channel(seed)
    blocks = list(itertools.product(range(2), repeat=n))
    expected_states = []
    for si, ss in enumerate(blocks):
        p = F(1)
        for s in ss:
            p *= ch.state_dist[s]
        if p:
            expected_states.append((si, ss, p))
    assert list(state_blocks(ch, n)) == expected_states
    for ss in blocks:
        for xs in blocks:
            expected = []
            for yi, ys in enumerate(blocks):
                p = F(1)
                for x, s, y in zip(xs, ss, ys):
                    p *= ch.kernel[s][x][y]
                if p:
                    expected.append((yi, p))
            assert list(block_outputs(ch, xs, ss)) == expected


def product_channel_with_block_source():
    # y = x*s at n = 2, the state block uniform on {(0,1), (1,0)}: one
    # position always copies x, so one clean bit gets through.
    h = F(1, 2)
    source = BlockStateSource(n=2, atoms=(((1, 0), h), ((0, 1), h)))
    return make_channel(
        kernel=[[[1, 0], [1, 0]], [[1, 0], [0, 1]]], state_dist=[h, h], block_state=source
    )


def test_state_blocks_follow_the_block_source():
    ch = product_channel_with_block_source()
    assert list(state_blocks(ch, 2)) == [(1, (0, 1), F(1, 2)), (2, (1, 0), F(1, 2))]


@pytest.mark.parametrize("build", [build_lp1, build_lp2])
@pytest.mark.parametrize("causal", [True, False])
def test_assisted_programs_weigh_states_by_the_block_source(build, causal):
    ch = product_channel_with_block_source()
    classical, _ = classical_opt_success(ch, 2, 2)
    assert classical == 1
    assisted = solve_exact(build(ch, M=2, n=2, causal=causal))
    assert assisted.status == "optimal"
    assert assisted.value >= classical


def test_program_length_must_match_the_block_source():
    with pytest.raises(ValueError, match="block source length 2"):
        build_lp2(product_channel_with_block_source(), M=2, n=3)


# -- structural guards ------------------------------------------------------


def test_variable_budget_enforced():
    ch = builtin_z0z1()
    with pytest.raises(ValueError, match=str(MAX_LP_VARIABLES)):
        build_lp1(ch, M=4, n=4)


def test_point_violating_only_the_stepwise_rows():
    # z in cell (x, wh, w, s, y) equal to [x1 = s2] / 4 is normalized and
    # passes both block-level invariance families, but the first input
    # symbol depends on the not-yet-available second state: exactly the
    # stepwise rows must flag it.
    ch = builtin_z0z1()
    lp = build_lp1(ch, M=2, n=2)
    point = {}
    for xi in range(4):
        x1 = xi >> 1
        for si in range(4):
            s2 = si & 1
            if x1 != s2:
                continue
            for wh in range(2):
                for w in range(2):
                    for yi in range(4):
                        point[f"z[{xi},{wh},{w},{si},{yi}]"] = F(1, 4)
    bad = lp.violated_rows(point)
    assert bad
    assert all(label.startswith("c3") for label in bad)
