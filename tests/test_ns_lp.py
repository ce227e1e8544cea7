"""Tests for the assisted-coding linear programs.

The binary two-state channel at M=2, n=2 is small enough to solve
exactly, so the values asserted here are solver-verified rationals:
13/16 for the causal programs (full and reduced agree, and a
certificate point in the reduced program's derived dual pins the same
number from above) and 7/8 for the non-causal programs, which must
not change when the receiver is handed the state sequence.
"""

import dataclasses
import hashlib
import itertools
import math
import random
import re
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from nscoding.channels import (
    BlockStateSource,
    builtin_z0z1,
    lift_csir,
    make_channel,
    state_blocks,
)
from nscoding import ns_lp, simplex
from nscoding.classical import classical_opt_success
from nscoding.ns_lp import (
    MAX_LP_VARIABLES,
    build_lp1,
    build_lp2,
    build_lp4_z0z1,
    certificate_point_z0z1,
    dual_of,
    verify_certificate,
)
from nscoding.simplex import LinearProgram, SimplexSolution, solve_exact
from test_channels import reference_block_outputs

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
    assert (len(lp.var_names), len(lp.rows)) == (80, 104)


# -- certificate ------------------------------------------------------------


# The simplex vertex of the certificate program, `certificate_point_z0z1`:
# its 37 nonzero entries, keyed by LP2's rows.  Every qcausal multiplier is 0.
CERTIFICATE_VERTEX = {label: F(v) for label, v in {
    "rsum[s=0,y=0]": "1/8", "rsum[s=0,y=1]": "1/16", "rsum[s=1,y=1]": "1/16",
    "rsum[s=1,y=3]": "1/16", "rsum[s=2,y=0]": "1/16", "rsum[s=2,y=2]": "1/8",
    "rsum[s=3,y=3]": "1/8",
    "qsum[s=0]": "1/8", "qsum[s=1]": "1/8", "qsum[s=2]": "1/8", "qsum[s=3]": "1/8",
    "rq[x=0,y=0,s=0]": "1/8", "rq[x=0,y=0,s=1]": "1/8", "rq[x=0,y=0,s=2]": "1/16",
    "rq[x=0,y=0,s=3]": "1/16", "rq[x=0,y=1,s=2]": "1/16", "rq[x=0,y=2,s=3]": "1/16",
    "rq[x=1,y=1,s=0]": "1/8", "rq[x=1,y=1,s=1]": "1/8", "rq[x=1,y=1,s=2]": "1/8",
    "rq[x=1,y=1,s=3]": "1/16", "rq[x=1,y=3,s=3]": "1/16", "rq[x=2,y=0,s=1]": "1/16",
    "rq[x=2,y=2,s=0]": "1/8", "rq[x=2,y=2,s=1]": "1/16", "rq[x=2,y=2,s=2]": "1/8",
    "rq[x=2,y=2,s=3]": "1/8", "rq[x=3,y=1,s=1]": "1/16", "rq[x=3,y=2,s=0]": "1/16",
    "rq[x=3,y=3,s=0]": "1/16", "rq[x=3,y=3,s=1]": "1/16", "rq[x=3,y=3,s=2]": "1/8",
    "rq[x=3,y=3,s=3]": "1/8",
    "rcausal[i=1,px=0,s=1,y=1]": "1/16", "rcausal[i=1,px=0,s=1,y=3]": "-1/16",
    "rcausal[i=1,px=0,s=3,y=1]": "1/16", "rcausal[i=1,px=0,s=3,y=3]": "-1/16",
}.items()}


def test_certificate_program_is_the_dual_of_causal_lp2():
    lp2 = build_lp2(builtin_z0z1(), M=2, n=2)
    lp4 = build_lp4_z0z1()
    assert lp4 == dual_of(lp2)  # name, sense, variables, objective, rows and signs
    assert (len(lp4.var_names), len(lp4.rows)) == (104, 80)
    assert lp4.var_names == [row.label for row in lp2.rows]
    sol = solve_exact(lp4)
    assert sol.value == solve_exact(lp2).value == OPT_CAUSAL
    assert sol.assignment == CERTIFICATE_VERTEX and len(CERTIFICATE_VERTEX) == 37


# The dual point published with the 13/16 bound, keyed by LP2's rows:
# output-block normalization (rsum), input-marginal normalization (qsum),
# diagonal-weight causality (rcausal) and r <= q (rq).  Every unlisted
# variable is zero, the four input-marginal causality multipliers (qcausal)
# among them.  It is another optimum of the same dual than the simplex
# vertex `certificate_point_z0z1` returns.
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
    lp4 = build_lp4_z0z1()
    report = verify_certificate(lp4, PUBLISHED_CERTIFICATE)
    assert report.feasible and report.violated == []
    assert report.objective == OPT_CAUSAL
    assert len(PUBLISHED_CERTIFICATE) == 40
    qcausal = [name for name in lp4.var_names if name.startswith("qcausal")]
    assert len(qcausal) == 4 and not PUBLISHED_CERTIFICATE.keys() & set(qcausal)


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


def lp1_to_lp2(ch, M, n, z_point):
    """Map a full-program point to the reduced variables: r averages the
    diagonal (wh = w) cells over w, and q also sums over wh, at the reference
    output block (any output gives the same number at a point that satisfies
    the invariance rows).  The full program's cap and names are the library's:
    an oversize shape or an unknown name is a ValueError."""
    nx, ns, ny = ns_lp._checked_shape(ch, M, n, ns_lp._lp1_system)
    nums, d = ns_lp._lp1_variables(ch.x_size, ch.y_size, ch.s_size, M, n)[0]._point(z_point)
    z = np.array(nums, dtype=object).reshape(nx, M, M, ns, ny)
    r, q = np.trace(z, axis1=1, axis2=2).transpose(0, 2, 1), z[..., 0].sum(axis=(1, 2))  # r[x, y, s], q[x, s]
    names = ns_lp._lp2_variables(ch.x_size, ch.y_size, ch.s_size, n)[0].var_names
    return {name: F(v, d * M) for name, v in zip(names, [*r.flat, *q.flat]) if v}


def lp2_to_lp1(ch, M, n, rq_point):
    """Map a reduced-program point back to the full variables by
    `ns_lp._lift`: diagonal cells carry r, and off-diagonal cells split the
    leftover q - r evenly over the M - 1 wrong guesses; refused as
    `lp1_to_lp2` refuses."""
    nx, ns, ny = ns_lp._checked_shape(ch, M, n, ns_lp._lp1_system)
    nums, d = ns_lp._lp2_variables(ch.x_size, ch.y_size, ch.s_size, n)[0]._point(rq_point)
    r, q = np.split(np.array(nums, dtype=object), [nx * ny * ns])
    z = ns_lp._lift(r.reshape(nx, ny, ns).transpose(0, 2, 1), q.reshape(nx, ns), M)
    names = ns_lp._lp1_variables(ch.x_size, ch.y_size, ch.s_size, M, n)[0].var_names
    return {name: F(int(v), d * max(M - 1, 1)) for name, v in zip(names, z.flat) if v}


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


@pytest.mark.parametrize("mapping", [lp1_to_lp2, lp2_to_lp1])
def test_point_maps_refuse_oversize_programs_and_unknown_names(mapping):
    start = time.perf_counter()
    with pytest.raises(ValueError, match=rf"^lp1\(M=2, n=30\) needs about 2\^92 variables, above the cap {MAX_LP_VARIABLES}$"):
        mapping(builtin_z0z1(), 2, 30, {})
    assert time.perf_counter() - start < 1
    with pytest.raises(ValueError, match=r"has no variable 'w\[0\]'"):
        mapping(builtin_z0z1(), 2, 1, {"w[0]": 1})


def test_programs_refuse_an_oversize_shape_and_a_point_with_unknown_names():
    start = time.perf_counter()
    with pytest.raises(ValueError, match=rf"^lp1\(M=2, n=30\) needs about 2\^92 variables, above the cap {MAX_LP_VARIABLES}$"):
        build_lp1(builtin_z0z1(), 2, 30)
    assert time.perf_counter() - start < 1
    lp = build_lp1(builtin_z0z1(), 2, 1)
    for evaluate in (lp.violated_rows, lp.objective_value):
        with pytest.raises(ValueError, match=r"has no variable 'w\[0\]'"):
            evaluate({"w[0]": 1})


@pytest.mark.parametrize("bits, dtype", [(57, np.int64), (58, object)])
def test_lift_dtype_holds_every_sum_over_input_and_guess(bits, dtype):
    # r = q over D = 2^bits at M = 3: z is 2 * r where wh = w and 0 elsewhere,
    # and each of its sums over (x, wh) is 2 * D; int64 holds 18 of those
    # up to bits = 57
    q = np.array([[2 ** (bits - 1)], [2 ** (bits - 1)]], dtype=object)
    z = ns_lp._lift(q[..., None], q, 3)
    assert z.dtype == dtype
    assert z.sum(axis=(0, 1)).tolist() == [[[2 ** (bits + 1)]]] * 3
    assert z[:, [0, 1, 2], [0, 1, 2]].tolist() == [[[[2**bits]]] * 3] * 2 and not z[:, 0, 1].any()


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


def relaxed_lp2() -> LinearProgram:
    """Causal LP2 on z0z1 at M=2, n=2 without its four qcausal rows: a
    shared program whose rows were changed, under a name of its own."""
    lp = build_lp2(builtin_z0z1(), M=2, n=2)
    lp.rows = [row for row in lp.rows if not row.label.startswith("qcausal")]
    lp.name = "lp3[z0z1,M=2,n=2]"
    return lp


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
    programs += [build_lp2(z0z1, 2, 3), relaxed_lp2()]
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


@pytest.mark.parametrize("build", [build_lp1, build_lp2])
@pytest.mark.parametrize("M, n, name, why", [
    (2.0, 2, "M", "must be an int, got 2.0"),
    (True, 2, "M", "must be an int, got True"),
    (0, 2, "M", "must be >= 1, got 0"),
    (2, 2.0, "n", "must be an int, got 2.0"),
    (2, True, "n", "must be an int, got True"),
    (2, 0, "n", "must be >= 1, got 0"),
])
def test_message_count_and_block_length_must_be_positive_ints(build, M, n, name, why):
    # 2.0 used to end in a TypeError from Fraction, and True to build the M = 1 program
    with pytest.raises(ValueError, match=f"^{name} {re.escape(why)}$"):
        build(builtin_z0z1(), M, n)


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
            assert list(reference_block_outputs(ch, xs, ss)) == expected


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


# -- one constraint system per shape ----------------------------------------
#
# build_lp1 and build_lp2 share the variables, rows, standard form and phase
# 1 of one constraint system per (form, |X|, |Y|, |S|, M, n, causal); the
# programs differ only in name and objective, and solve as if built row by
# row.


@contextmanager
def fresh_memo(max_pivots=None):
    """An empty memo (no shared system) for the block, and with
    `max_pivots` that pivot limit in place of MAX_PIVOTS; the module's own
    restored after.  A system stored in another memo is not stored in this
    one, so its programs solve cold here and keep nothing, and no phase 1
    kept under another limit is hit."""
    saved = simplex._SYSTEMS, simplex.MAX_PIVOTS
    simplex._SYSTEMS = memo = simplex._SystemMemo()
    if max_pivots is not None:
        simplex.MAX_PIVOTS = max_pivots
    try:
        yield memo
    finally:
        simplex._SYSTEMS, simplex.MAX_PIVOTS = saved


@contextmanager
def phase_one_runs():
    """A list that grows by one entry per phase-1 run in the block."""
    runs = []
    run = simplex._phase_one

    def counted(*args):
        runs.append(args)
        return run(*args)

    simplex._phase_one = counted
    try:
        yield runs
    finally:
        simplex._phase_one = run


def hand_built(lp: LinearProgram) -> LinearProgram:
    """A copy of `lp` built variable by variable and row by row, sharing no
    constraint system."""
    copy = LinearProgram(name=lp.name, sense=lp.sense)
    for name, flag in zip(lp.var_names, lp.nonneg):
        copy.add_var(name, nonneg=flag)
    copy.set_objective(lp.objective)
    for row in lp.rows:
        copy.add_row(row.coeffs, row.relation, row.rhs, row.label)
    return copy


def outcome(sol: SimplexSolution) -> tuple:
    return sol.status, sol.value, sol.pivots, sol.assignment


def solve_cold(lp: LinearProgram) -> SimplexSolution:
    with fresh_memo():
        return solve_exact(lp)


def core_program(lp: LinearProgram) -> LinearProgram:
    """The program the simplex runs on when `lp` is solved: its reduction's,
    or `lp` itself."""
    return lp.reduction.program if lp.reduction is not None else lp


def _shared_families():
    """(build, channel of a seed, n, causal) over the random families above."""
    shapes = {
        "binary": random_binary_channel,
        "x2y3s2": lambda seed: random_channel(seed, 2, 3, 2),
        "x3y2s2": lambda seed: random_channel(seed, 3, 2, 2),
        "x2y2s3": lambda seed: random_channel(seed, 2, 2, 3),
    }
    for name, channel in shapes.items():
        for causal in (True, False):
            mode = "causal" if causal else "noncausal"
            yield pytest.param(build_lp1, channel, 1, causal, id=f"lp1-{name}-n1-{mode}")
            for n in (1, 2):
                yield pytest.param(build_lp2, channel, n, causal, id=f"lp2-{name}-n{n}-{mode}")
    yield pytest.param(build_lp1, random_binary_channel, 2, True, id="lp1-binary-n2-causal")


@pytest.mark.parametrize("build, channel, n, causal", _shared_families())
def test_shared_programs_solve_as_hand_built_copies_cold_and_warm(build, channel, n, causal):
    with fresh_memo():
        first, second = (build(channel(seed), M=2, n=n, causal=causal) for seed in (1, 2))
    assert first._system is second._system
    assert all(a is b for a, b in zip(first.rows, second.rows)) and len(first.rows) == len(second.rows)
    # a program solved through a reduction (non-causal LP2 at n = 2, by
    # joint types) is checked on the program the simplex runs on, which
    # shares one system too
    pair = core_program(first), core_program(second)
    assert pair[0]._system is pair[1]._system
    expected = [outcome(solve_cold(hand_built(lp))) for lp in pair]
    assert [outcome(solve_cold(lp)) for lp in pair] == expected
    with fresh_memo() as memo, phase_one_runs() as runs:
        first, second = (build(channel(seed), M=2, n=n, causal=causal) for seed in (1, 2))
        pair = core_program(first), core_program(second)
        # the second program hits the first's phase 1; a hand-built copy
        # runs its own and keeps nothing
        warm = [outcome(solve_exact(lp)) for lp in pair] + [outcome(solve_exact(hand_built(pair[1])))]
        assert warm == [*expected, expected[-1]]
        systems = [first] if first.reduction is None else [first, pair[0]]
        assert len(runs) == 2 and list(memo.entries) == [lp._system.key for lp in systems]


def test_changing_one_shared_program_leaves_the_others_and_the_system():
    def snapshot(lp):
        rows = [(dict(row.coeffs), row.relation, row.rhs, row.label) for row in lp.rows]
        return rows, list(lp.var_names), list(lp.nonneg), dict(lp.objective)

    with fresh_memo():
        grown, relaxed, other = (build_lp2(ch, M=2, n=2) for ch in (
            builtin_z0z1(), builtin_z0z1(), random_binary_channel(1)))
        system = other._system
        rows, form, before = list(system.program.rows), system.form, snapshot(other)
        grown.add_var("t")
        grown.add_row({0: 1, len(grown.var_names) - 1: -1}, "<=", 0, "extra")
        grown.set_objective({0: 1})
        # as relaxed_lp2 does
        relaxed.rows = [row for row in relaxed.rows if not row.label.startswith("qcausal")]
        assert snapshot(other) == before
        assert system.program.rows == rows and all(map(lambda a, b: a is b, system.program.rows, rows))
        assert system.form is form and system.program.var_names == other.var_names
        fresh = build_lp2(random_binary_channel(1), M=2, n=2)
        assert fresh._system is system and snapshot(fresh) == before
    # each changed program is solved from its own rows
    for lp in (grown, relaxed):
        assert lp._form()[0] is not form and lp._form()[1] is None
        assert outcome(solve_cold(lp)) == outcome(solve_cold(hand_built(lp)))
    assert solve_exact(relaxed).value == solve_exact(relaxed_lp2()).value == OPT_CAUSAL
    assert outcome(solve_cold(other)) == outcome(solve_cold(hand_built(other)))


def test_systems_and_phase_one_outcomes_share_one_bound(monkeypatch):
    ch = random_binary_channel(1)  # its programs are solved without a reduction

    def sweep(memo, bound):
        """Build and solve M = 2, build and solve M = 3, build M = 2 again,
        build and solve M = 4; return the memo's keys after each step."""
        steps = []
        for M, solve in ((2, True), (3, True), (2, False), (4, True)):
            lp = build_lp2(ch, M=M, n=1)
            steps.append(list(memo.entries))
            if solve:
                solve_exact(lp)
                steps.append(list(memo.entries))
            assert memo.cells == sum(system.cells for system in memo.entries.values()) <= bound
        return steps

    systems = {M: (ns_lp._lp2_system, 2, 2, 2, M, 1, True) for M in (2, 3, 4)}
    with fresh_memo() as memo:
        sweep(memo, simplex._SYSTEM_CELLS)
        # one entry per system, keyed by its builder and fields alone
        assert list(memo.entries) == [systems[3], systems[2], systems[4]]
        cells = {key: system.cells for key, system in memo.entries.items()}
        for system in memo.entries.values():
            template, tab = system.program, system.phase_one
            rows = sum(len(row.coeffs) for row in template.rows) + system.form.cells()
            assert system.cells == rows + sum(map(len, tab.rows)) > rows
    # room for all but one cell: keeping M = 4's phase 1 evicts the least
    # recently used system, M = 3 (M = 2 was built again)
    bound = sum(cells.values()) - 1
    monkeypatch.setattr(simplex, "_SYSTEM_CELLS", bound)
    with fresh_memo() as memo:
        steps = sweep(memo, bound)
    assert steps[-1] == [systems[2], systems[4]]
    assert steps[-2] == [systems[3], systems[2], systems[4]]


@pytest.mark.parametrize("make", [
    build_lp4_z0z1,
    lambda: dual_of(build_lp2(random_channel(1, 2, 3, 2), M=2, n=2)),
    # a shared program whose rows changed
    relaxed_lp2,
], ids=["lp4", "dual-of-lp2", "lp3"])
def test_hand_built_and_changed_programs_never_enter_the_memo(make):
    lp = make()
    with fresh_memo() as memo, phase_one_runs() as runs:
        first, second = solve_exact(lp), solve_exact(lp)
        assert not memo.entries and memo.cells == 0
    assert outcome(first) == outcome(second) and len(runs) == 2


def test_an_over_budget_program_is_refused_before_anything_is_built(monkeypatch):
    def refuse(*_fields):
        raise AssertionError("a constraint system was built")

    monkeypatch.setattr(ns_lp, "_lp1_system", refuse)
    monkeypatch.setattr(ns_lp, "_lp2_system", refuse)
    with fresh_memo() as memo:
        with pytest.raises(ValueError, match=str(MAX_LP_VARIABLES)):
            build_lp1(builtin_z0z1(), M=4, n=4)
        with pytest.raises(ValueError, match=str(MAX_LP_VARIABLES)):
            build_lp2(builtin_z0z1(), M=2, n=5)
        assert not memo.entries and memo.cells == 0


# -- exact reductions ----------------------------------------------------------
#
# build_lp1 and build_lp2 attach a reduction that solve_exact solves through:
# the orbits of the channel's per-position automorphisms, with the
# permutations of the positions in the non-causal programs, where the state
# blocks of probability 0 are also folded into one.  Each must give the value
# of the program solved without it, at a point that meets every row of it.


def identity_channel(size: int, states: int = 1):
    """y = x over `size` letters; with two states, the second flips x."""
    kernel = [[[F(int(y == x)) for y in range(size)] for x in range(size)]]
    if states == 2:
        kernel.append([[F(int(y == size - 1 - x)) for y in range(size)] for x in range(size)])
    return make_channel(kernel=kernel, state_dist=[F(1, states)] * states)


def mirrored_channel(seed: int, block: bool = False):
    """A random binary kernel in state 0 and its mirror image (x, y flipped)
    in state 1, states uniform: flipping all three letters is an
    automorphism.  With `block`, the states come from a block source of
    length 2 that is uniform, hence invariant under each position's flip."""
    rng = random.Random(seed)
    rows = [[F(a, 8), F(8 - a, 8)] for a in (rng.randint(0, 8), rng.randint(0, 8))]
    mirror = [row[::-1] for row in rows[::-1]]
    source = BlockStateSource(n=2, atoms=tuple((seq, F(1, 4)) for seq in itertools.product(range(2), repeat=2)))
    return make_channel(kernel=[rows, mirror], state_dist=[F(1, 2)] * 2, block_state=source if block else None)


def reference_automorphisms(ch) -> set:
    """Every (pi_s, pi_x, pi_y) keeping the kernel and the state law, by
    trying all permutation triples."""
    perms = [list(itertools.permutations(range(k))) for k in (ch.s_size, ch.x_size, ch.y_size)]
    return {
        (ps, px, py) for ps, px, py in itertools.product(*perms)
        if all(ch.state_dist[ps[s]] == ch.state_dist[s] for s in range(ch.s_size))
        and all(ch.kernel[ps[s]][px[x]][py[y]] == ch.kernel[s][x][y]
                for s in range(ch.s_size) for x in range(ch.x_size) for y in range(ch.y_size))
    }


def generated_group(generators, sizes) -> set:
    """The closure of the generators under composition."""
    identity = tuple(tuple(range(k)) for k in sizes)
    group, frontier = {identity}, [identity]
    while frontier:
        g = frontier.pop()
        for h in generators:
            gh = tuple(tuple(a[b[i]] for i in range(len(a))) for a, b in zip(g, h))
            if gh not in group:
                group.add(gh)
                frontier.append(gh)
    return group


REDUCTION_CHANNELS = {
    "z0z1": builtin_z0z1,
    "z0z1-csir": lambda: lift_csir(builtin_z0z1()),
    "identity2": lambda: identity_channel(2),
    "identity3": lambda: identity_channel(3),
    "identity-and-flip": lambda: identity_channel(2, states=2),
}


def symmetric_channel(seed: int):
    """A random channel of at most 3 states, 4 inputs and 4 outputs; for an
    even seed, its kernel and state law averaged over the powers of a
    random permutation triple, which is then an automorphism."""
    rng = random.Random(seed)
    sizes = [rng.randint(1, k) for k in (3, 4, 4)]
    ch = random_channel(rng.randrange(2**32), sizes[1], sizes[2], sizes[0])
    if seed % 2:
        return ch
    g = [rng.sample(range(k), k) for k in sizes]
    powers, p = [], [list(range(k)) for k in sizes]
    while p not in powers:
        powers.append(p)
        p = [[gi[i] for i in pi] for gi, pi in zip(g, p)]
    kernel = [[[sum(ch.kernel[ps[s]][px[x]][py[y]] for ps, px, py in powers) / len(powers)
                for y in range(ch.y_size)] for x in range(ch.x_size)] for s in range(ch.s_size)]
    return make_channel(kernel, [sum(ch.state_dist[ps[s]] for ps, _, _ in powers) / len(powers)
                                 for s in range(ch.s_size)])


SYMMETRIC_SEEDS = range(150)


@pytest.mark.parametrize("name", [*REDUCTION_CHANNELS, "binary#1", "mirrored#1", "random#1", "random#3",
                                  *(f"symmetric#{seed}" for seed in SYMMETRIC_SEEDS)])
def test_automorphisms_are_every_permutation_that_keeps_the_channel(name):
    extra = {
        "binary#1": lambda: random_binary_channel(1),
        "mirrored#1": lambda: mirrored_channel(1),
        "random#1": lambda: random_channel(1, 2, 3, 2),
        "random#3": lambda: random_channel(3, 2, 2, 3),
        **{f"symmetric#{seed}": lambda seed=seed: symmetric_channel(seed) for seed in SYMMETRIC_SEEDS},
    }
    ch = {**REDUCTION_CHANNELS, **extra}[name]()
    order, generators = ch.automorphisms
    expected = reference_automorphisms(ch)
    assert generated_group(generators, (ch.s_size, ch.x_size, ch.y_size)) == expected
    assert order == len(expected)


def regular_pattern(size: int, seed: int):
    """One state; each input row has 1/3 at three outputs, and each output
    gets three: a pattern one round of refinement cannot split."""
    rng = random.Random(seed)
    while True:
        cols = [y for y in range(size) for _ in range(3)]
        rng.shuffle(cols)
        rows = [cols[3 * x:3 * x + 3] for x in range(size)]
        if all(len(set(row)) == 3 for row in rows):
            return make_channel([[[F(1, 3) if y in row else 0 for y in range(size)] for row in rows]], [1])


def identity_and_shift(size: int):
    """y = x in state 0 and y = x + 1 (mod size) in state 1: the rotations,
    and the maps that swap the states, form a group of order 2 size."""
    return make_channel([[[F(int(y == x)) for y in range(size)] for x in range(size)],
                         [[F(int(y == (x + 1) % size)) for y in range(size)] for x in range(size)]], [F(1, 2)] * 2)


def rotated_blocks(blocks: int):
    """y = x in state 0 and y = the next letter of x's block of three in
    state 1, states uniform: the maps that permute the blocks, rotate each
    block, and swap the states form a group of order 2 3^blocks blocks!."""
    size = 3 * blocks
    return make_channel([[[F(int(y == x)) for y in range(size)] for x in range(size)],
                         [[F(int(y == x - x % 3 + (x + 1) % 3)) for y in range(size)] for x in range(size)]],
                        [F(1, 2)] * 2)


@pytest.mark.parametrize("ch, order", [
    (identity_channel(12), math.factorial(12)),
    (make_channel([[[1]] * 40], [1]), math.factorial(40)),
    (identity_and_shift(10), 20),
    (regular_pattern(16, 1), 4),
    (regular_pattern(24, 1), 1),
    (regular_pattern(60, 2), 1),
    (rotated_blocks(23), 2 * 3**23 * math.factorial(23)),
], ids=["identity12", "constant40", "identity-and-shift10", "regular16", "regular24", "regular60",
        "rotated-blocks23"])
def test_large_groups_and_regular_patterns_are_found_quickly(ch, order):
    # a symmetric class comes out as one cycle per letter fixed, and a
    # rotation or a regular pattern is split by marking a letter and
    # refining on the nonzero entries alone
    start = time.perf_counter()
    found, generators = ch.automorphisms
    assert time.perf_counter() - start < 2
    assert found == order and len(generators) < ch.x_size
    for ps, px, py in generators:
        assert all(ch.kernel[ps[s]][px[x]][py[y]] == ch.kernel[s][x][y]
                   for s in range(ch.s_size) for x in range(ch.x_size) for y in range(ch.y_size))
    if order < 100:
        assert len(generated_group(generators, (ch.s_size, ch.x_size, ch.y_size))) == order


def single_state_automorphisms(ch) -> set:
    """`reference_automorphisms` of a one-state channel whose columns are
    distinct, in |X|! tries: each pi_x leaves pi_y no choice, as column y
    must go to the column holding its entries at the rows pi_x moves them to."""
    kernel = ch.kernel[0]
    columns = {frozenset((x, p) for x, row in enumerate(kernel) if (p := row[y])): y for y in range(ch.y_size)}
    assert ch.s_size == 1 and len(columns) == ch.y_size
    group = set()
    for px in itertools.permutations(range(ch.x_size)):
        py = []
        for column in columns:  # in y order
            image = columns.get(frozenset((px[x], p) for x, p in column))
            if image is None:
                break
            py.append(image)
        else:
            group.add(((0,), px, tuple(py)))
    return group


@pytest.mark.parametrize("size, seed, order", [(7, 75, 8), (8, 33, 2), (9, 93, 16)])
def test_regular_patterns_whose_search_backs_out_of_a_branch(size, seed, order):
    # on these patterns the search marks a letter against each candidate of
    # its colour, finds no map for any of them, and backs out of the branch
    ch = regular_pattern(size, seed)
    found, generators = ch.automorphisms
    expected = single_state_automorphisms(ch)
    assert found == len(expected) == order
    assert generated_group(generators, (1, size, size)) == expected


def test_a_permutation_that_breaks_the_kernel_is_not_an_automorphism():
    # flipping x alone on z0z1 maps the noiseless input of state 0 onto the
    # noisy one; only flipping all three letters keeps the kernel
    ch = builtin_z0z1()
    flip, keep = (1, 0), (0, 1)
    group = generated_group(ch.automorphisms[1], (2, 2, 2))
    assert group == {(keep, keep, keep), (flip, flip, flip)}
    assert (keep, flip, keep) not in group


def _differential_cases():
    for name in REDUCTION_CHANNELS:
        for n in (1, 2, 3):
            # the unreduced causal and non-causal LP2 of the CSIR lift at
            # n = 3 are above the tableau cap
            for causal in (True, False) if name != "z0z1-csir" or n < 3 else ():
                yield pytest.param(name, build_lp2, n, causal, id=f"lp2-{name}-n{n}-{'causal' if causal else 'noncausal'}")
        for n in (1, 2):
            for causal in (True, False):
                if not (name in ("z0z1-csir", "identity3") and n == 2):  # seconds to a minute unreduced
                    yield pytest.param(name, build_lp1, n, causal, id=f"lp1-{name}-n{n}-{'causal' if causal else 'noncausal'}")


@pytest.mark.parametrize("name, build, n, causal", _differential_cases())
def test_reduced_programs_give_the_unreduced_value_at_a_feasible_point(name, build, n, causal):
    lp = build(REDUCTION_CHANNELS[name](), M=2, n=n, causal=causal)
    assert lp.reduction is not None
    sol = solve_exact(lp)
    assert sol.status == "optimal"
    # a copy built row by row shares no system, so it carries no reduction
    assert sol.value == solve_exact(hand_built(lp)).value
    assert lp.violated_rows(sol.assignment) == [] and lp.objective_value(sol.assignment) == sol.value


def random_block_channel(seed: int):
    """A random (2, 2, 2) channel whose states come from a block source of
    length 2 on one to three random blocks, with random weights: the other
    blocks have probability 0, and the atoms need not be exchangeable."""
    rng = random.Random(seed)
    ch = random_channel(rng.randrange(2**32), 2, 2, 2)
    blocks = rng.sample(list(itertools.product(range(2), repeat=2)), rng.randint(1, 3))
    weights = [rng.randint(1, 4) for _ in blocks]
    source = BlockStateSource(n=2, atoms=tuple((b, F(w, sum(weights))) for b, w in zip(blocks, weights)))
    return make_channel(kernel=ch.kernel, state_dist=ch.state_dist, block_state=source)


def zero_state_channel(seed: int):
    """A random (2, 2, 3) channel whose last state has probability 0."""
    ch = random_channel(seed, 2, 2, 3)
    p = ch.state_dist[-1]
    return make_channel(kernel=ch.kernel, state_dist=[*(q / (1 - p) for q in ch.state_dist[:-1]), 0])


def _random_cases():
    families = {
        "binary": random_binary_channel,
        "x2y3s2": lambda seed: random_channel(seed, 2, 3, 2),
        "x3y2s2": lambda seed: random_channel(seed, 3, 2, 2),
        "x2y2s3": lambda seed: random_channel(seed, 2, 2, 3),
        "zero-state": zero_state_channel,
        "mirrored": mirrored_channel,
        "mirrored-block": lambda seed: mirrored_channel(seed, block=True),
        "product-block": lambda seed: product_channel_with_block_source(),
        "random-block": random_block_channel,
    }
    for name, family in families.items():
        for n in (1, 2) if "block" not in name else (2,):
            for causal in (True, False):
                # LP1 at n = 2 is solved unreduced in seconds only without c3
                for build in (build_lp1, build_lp2) if n == 1 or "block" in name or not causal else (build_lp2,):
                    mode = "causal" if causal else "noncausal"
                    yield pytest.param(family, build, n, causal, id=f"{build.__name__}-{name}-n{n}-{mode}")


@pytest.mark.parametrize("family, build, n, causal", _random_cases())
@pytest.mark.parametrize("seed", [1, 2])
def test_reductions_on_random_channels_match_the_unreduced_program(family, build, n, causal, seed):
    ch = family(seed)
    lp = build(ch, M=2, n=n, causal=causal)
    # causal programs reduce when the group is not trivial; non-causal ones
    # also when the positions move (n > 1) or a state block has probability 0
    order = ch.automorphisms[0]
    empty = len(list(state_blocks(ch, n))) < ch.s_size**n
    assert (lp.reduction is not None) == (order > 1 or not causal and (n > 1 or empty))
    if lp.reduction is not None and ch.block_state is None:
        # an i.i.d. state: the product of the letter group over the positions,
        # and the permutations of the positions when non-causal
        assert lp.reduction.group_order == order**n * (1 if causal else math.factorial(n))
    sol = solve_exact(lp)
    assert sol.value == solve_exact(hand_built(lp)).value
    assert lp.violated_rows(sol.assignment) == []


def test_a_block_source_the_group_moves_is_not_reduced_by_orbits():
    # the mirrored kernel has the flip, but a block source weighing (0, 1)
    # above (1, 0) is not invariant under flipping one position
    ch = mirrored_channel(1)
    source = BlockStateSource(n=2, atoms=(((0, 1), F(3, 4)), ((1, 0), F(1, 4))))
    skewed = make_channel(kernel=ch.kernel, state_dist=ch.state_dist, block_state=source)
    assert skewed.automorphisms[0] == 2
    assert build_lp2(skewed, M=2, n=2).reduction is None
    # non-causal, the blocks (0, 0) and (1, 1) of probability 0 are folded
    assert build_lp2(skewed, M=2, n=2, causal=False).reduction.group_order == 1
    assert build_lp2(mirrored_channel(1, block=True), M=2, n=2).reduction.group_order == 4


@pytest.mark.parametrize("atoms", [("0000", "0011"), ("0110", "1001", "1111")])
def test_z0z1_under_a_block_source_solves_through_its_orbits_and_the_fold(atoms):
    # neither source is exchangeable, but flipping the letters at some
    # positions maps each block onto any other, so the objective is still
    # constant on every orbit's members in blocks of positive probability:
    # the 40 variables of the i.i.d. program, and the 272 of one block that
    # every block of probability 0 is folded into.  Unreduced, the
    # 4368 x 8720 tableau is refused
    z0z1 = builtin_z0z1()
    source = BlockStateSource(n=4, atoms=tuple((tuple(map(int, a)), F(1, len(atoms))) for a in atoms))
    ch = make_channel(kernel=z0z1.kernel, state_dist=z0z1.state_dist, block_state=source)
    lp = build_lp2(ch, M=2, n=4, causal=False)
    assert lp.reduction.group_order == 384 and len(lp.reduction.program.var_names) == 40 + 272
    sol = solve_exact(lp)
    assert sol.value == F(31, 32) and lp.violated_rows(sol.assignment) == []


def _variable_map(lp: LinearProgram, g, position: int, n: int, sizes, order=None) -> list[int]:
    """The index each variable of `lp` goes to when the automorphism
    g = (pi_s, pi_x, pi_y) acts on the letters at one position, and then,
    with `order`, position i of every block takes position order[i]'s letter."""
    ps, px, py = g
    X, Y, S = sizes

    def block(index: int, perm, size: int) -> int:
        digits = list(np.unravel_index(index, (size,) * n))
        digits[position] = perm[digits[position]]
        if order is not None:
            digits = [digits[i] for i in order]
        return int(np.ravel_multi_index(digits, (size,) * n))

    names = []
    for name in lp.var_names:
        stem, cells = name[0], list(map(int, name[2:-1].split(",")))
        if stem == "z":  # z[x, wh, w, s, y]
            x, wh, w, s, y = cells
            cells = [block(x, px, X), wh, w, block(s, ps, S), block(y, py, Y)]
        elif stem == "r":  # r[x, y, s]
            x, y, s = cells
            cells = [block(x, px, X), block(y, py, Y), block(s, ps, S)]
        else:  # q[x, s]
            x, s = cells
            cells = [block(x, px, X), block(s, ps, S)]
        names.append(f"{stem}[{','.join(map(str, cells))}]")
    return [lp._index[name] for name in names]


@pytest.mark.parametrize("name, build, n", [
    pytest.param(name, build, n, id=f"{build.__name__}-{name}-n{n}")
    for name in ("z0z1", "z0z1-csir", "identity3", "identity-and-flip")
    for build, sizes in ((build_lp2, (1, 2, 3)), (build_lp1, (1, 2)))
    # the larger programs take seconds here: LP2 of the CSIR lift at n = 3 and LP1 at n = 2 but on z0z1
    for n in sizes if not (name == "z0z1-csir" and build is build_lp2 and n == 3 or
                           name != "z0z1" and build is build_lp1 and n == 2)
])
def test_each_generator_maps_the_program_onto_itself(name, build, n):
    ch = REDUCTION_CHANNELS[name]()
    lp = build(ch, M=2, n=n)
    rows = {(tuple(sorted(row.coeffs.items())), row.relation, row.rhs) for row in lp.rows}
    # a row comparing a cell with its reference cell (c1, c2, c3, rcausal,
    # qcausal) may map to one comparing two cells of its group: the
    # difference of two rows against the same reference
    group: dict[frozenset, frozenset] = {}
    for row in lp.rows:
        if row.label.split("[")[0] in ("c1", "c2", "c3", "rcausal", "qcausal"):
            cells = [frozenset(j for j, c in row.coeffs.items() if c == sign) for sign in (1, -1)]
            members = group.get(cells[1], frozenset([cells[1]])) | {cells[0]}
            for cell in members:
                group[cell] = members
    for g in ch.automorphisms[1]:
        for position in range(n):
            image = _variable_map(lp, g, position, n, (ch.x_size, ch.y_size, ch.s_size))
            assert sorted(image) == list(range(len(image)))
            assert {image[j]: c for j, c in lp.objective.items()} == lp.objective
            for row in lp.rows:
                coeffs = {image[j]: c for j, c in row.coeffs.items()}
                if (tuple(sorted(coeffs.items())), row.relation, row.rhs) in rows:
                    continue
                plus, minus = (frozenset(j for j, c in coeffs.items() if c == sign) for sign in (1, -1))
                assert row.label.split("[")[0] in ("c1", "c2", "c3", "rcausal", "qcausal"), row.label
                assert minus in group.get(plus, ()), row.label


@pytest.mark.parametrize("build, n, causal", [
    (build_lp2, 2, False), (build_lp2, 3, False), (build_lp1, 2, False), (build_lp2, 2, True),
], ids=["lp2-n2-noncausal", "lp2-n3-noncausal", "lp1-n2-noncausal", "lp2-n2-causal"])
def test_moving_the_positions_maps_each_non_causal_row_to_a_row(build, n, causal):
    # the non-causal rows' reference cells sit at block 0, which no order of
    # the positions moves; the causal c3 rows compare per prefix, which a
    # new order breaks
    ch = random_channel(1, 2, 3, 2)
    lp = build(ch, M=2, n=n, causal=causal)
    rows = {(tuple(sorted(row.coeffs.items())), row.relation, row.rhs) for row in lp.rows}
    identity = tuple(tuple(range(k)) for k in (ch.s_size, ch.x_size, ch.y_size))
    kept = []
    for order in itertools.permutations(range(n)):
        image = _variable_map(lp, identity, 0, n, (ch.x_size, ch.y_size, ch.s_size), order)
        assert {image[j]: c for j, c in lp.objective.items()} == lp.objective
        kept.append(all((tuple(sorted((image[j], c) for j, c in row.coeffs.items())), row.relation, row.rhs) in rows
                        for row in lp.rows))
    assert kept == [not causal or order == tuple(range(n)) for order in itertools.permutations(range(n))]


def test_a_point_off_the_lift_is_refused(monkeypatch):
    lp = build_lp2(builtin_z0z1(), M=2, n=2)
    optimum = simplex._optimum

    def nudged(program, form, system):
        found = optimum(program, form, system)
        if program is lp.reduction.program:
            up = next(j for j, v in enumerate(found.nums) if v)
            nums = list(found.nums)
            nums[up] += 1  # one orbit's value up by 1/D
            found = found._replace(nums=nums)
        return found

    monkeypatch.setattr(simplex, "_optimum", nudged)
    with pytest.raises(AssertionError, match="solver returned an infeasible or mismatched point"):
        solve_exact(lp)


def test_a_lift_onto_the_wrong_variable_is_refused():
    lp = build_lp2(builtin_z0z1(), M=2, n=2, causal=False)
    sol = solve_exact(lp)
    # one variable of the first block takes another variable's value
    lift = list(lp.reduction.lift)
    j = lp.var_names.index(next(name for name in sol.assignment if name.startswith("r")))
    lift[j] = lift[next(k for k, name in enumerate(lp.var_names) if name.startswith("q") and name not in sol.assignment)]
    lp._reduction = dataclasses.replace(lp.reduction, lift=lift)
    with pytest.raises(AssertionError, match="solver returned an infeasible or mismatched point"):
        solve_exact(lp)


def test_a_non_automorphism_forced_on_the_channel_reduces_nothing():
    # flipping x alone is no automorphism of z0z1: the objective is not
    # constant on its orbits, whose program would give 1/2
    ch = builtin_z0z1()
    keep, flip = (0, 1), (1, 0)
    ch.__dict__["automorphisms"] = (2, ((keep, flip, keep),))
    lp = build_lp2(ch, M=2, n=2)
    assert lp.reduction is None and solve_exact(lp).value == OPT_CAUSAL


def test_the_frontier_values():
    # the causal value with the receiver told the states equals the
    # non-causal one at n = 3 (15/16)
    z0z1 = builtin_z0z1()
    assert solve_exact(build_lp2(lift_csir(z0z1), 2, 3)).value == F(15, 16)


@pytest.mark.parametrize("build, n, causal, minimum", [
    (build_lp2, 2, True, F(3, 16)), (build_lp2, 2, False, F(1, 8)), (build_lp1, 2, True, F(3, 16)),
    (build_lp2, 4, True, F(5, 56)), (build_lp2, 4, False, F(1, 32)),
], ids=["lp2-n2-causal", "lp2-n2-noncausal", "lp1-n2-causal", "lp2-n4-causal", "lp2-n4-noncausal"])
def test_a_reduced_program_is_minimized_through_its_reduction(build, n, causal, minimum):
    # swapping the two guesses keeps every non-signaling row and turns each
    # success into an error, so the least success is 1 - the greatest
    lp = build(builtin_z0z1(), M=2, n=n, causal=causal)
    maximum = solve_exact(lp).value
    lp.sense = "min"
    assert lp.reduction is not None
    sol = solve_exact(lp)
    assert sol.value == minimum == 1 - maximum
    assert lp.violated_rows(sol.assignment) == [] and lp.objective_value(sol.assignment) == minimum
    if n == 2:
        assert solve_exact(hand_built(lp)).value == minimum
    lp.sense = "max"
    assert solve_exact(lp).value == maximum


@pytest.mark.parametrize("seed", SYMMETRIC_SEEDS)
def test_q_shares_a_class_exactly_where_the_group_maps_its_pairs(seed):
    ch = symmetric_channel(seed)
    lp = build_lp2(ch, M=2, n=1)
    group = reference_automorphisms(ch)
    assert (lp.reduction is None) == (len(group) == 1)
    lift = lp.reduction.lift if lp.reduction is not None else range(len(lp.var_names))
    q = {(x, s): lift[lp._index[f"q[{x},{s}]"]] for x in range(ch.x_size) for s in range(ch.s_size)}
    for (x, s), (x2, s2) in itertools.product(q, repeat=2):
        assert (q[x, s] == q[x2, s2]) == any(px[x] == x2 and ps[s] == s2 for ps, px, _py in group)


# -- the orbit program of a hand-written shared system ---------------------------


def written_system(rows: tuple) -> LinearProgram:
    """The system over a, b, c >= 0 with `rows`, each (the coefficients of
    a, b and c, relation, right-hand side)."""
    lp = LinearProgram()
    for name in "abc":
        lp.add_var(name)
    for *coeffs, relation, rhs in rows:
        lp.add_row(dict(enumerate(coeffs)), relation, rhs)
    return lp


def orbit_rows(rows: tuple, orbit: tuple) -> list:
    program = ns_lp._orbit_system(written_system, (rows,), orbit)
    return [(row.coeffs, row.relation, row.rhs) for row in program.rows]


def test_an_equality_summed_over_classes_keeps_its_sign():
    # -a + 2b == 1 is negated as a whole, right-hand side and coefficients
    rows = ((-1, 2, 0, "==", 1),)
    assert orbit_rows(rows, (0, 1, 2)) == [({0: 1, 1: -2}, "==", -1)]
    program = ns_lp._orbit_system(written_system, (rows,), (0, 1, 2))
    assert program.violated_rows({"a": 1, "b": 1}) == [] and program.violated_rows({"a": 1}) != []


def test_an_equality_and_its_negation_summed_over_classes_are_one_row():
    # with a and b in one class, a - c == 0 and c - b == 0 both read u - c == 0
    assert orbit_rows(((1, 0, -1, "==", 0), (0, -1, 1, "==", 0)), (0, 0, 1)) == [({0: 1, 1: -1}, "==", 0)]


def test_a_row_every_class_constant_point_meets_is_dropped():
    # a - b <= 1 sums to 0 <= 1 with a and b in one class; a - b >= 1 sums to
    # 0 >= 1, which no such point meets, and stays
    assert orbit_rows(((1, -1, 0, "<=", 1), (0, 0, 1, "<=", 2)), (0, 0, 1)) == [({1: 1}, "<=", 2)]
    assert orbit_rows(((1, -1, 0, ">=", 1),), (0, 0, 1)) == [({}, ">=", 1)]


def test_the_lifted_optimum_of_the_orbit_program_is_the_program_optimum():
    # swapping a and b keeps the rows and the objective: the two rows on a
    # and b sum to one, 3u <= 3, and the optimum a = b = c = 1 is constant on
    # the classes
    rows = ((1, 2, 0, "<=", 3), (2, 1, 0, "<=", 3), (0, 0, 1, "<=", 1))
    orbit = (0, 0, 1)
    lp = simplex.shared_program("written", written_system, rows)
    lp.set_objective({0: 1, 1: 1, 2: 1})
    reduced = simplex.shared_program("written/orbits", ns_lp._orbit_system, written_system, (rows,), orbit)
    assert reduced._system.key == (ns_lp._orbit_system, written_system, (rows,), orbit)
    assert [(row.coeffs, row.rhs) for row in reduced.rows] == [({0: 3}, 3), ({1: 1}, 1)]
    reduced.objective = {0: F(2), 1: F(1)}
    lp._reduction = simplex.Reduction(reduced, orbit, dict(lp.objective), 2)
    sol = solve_exact(lp)
    assert sol.value == solve_exact(hand_built(lp)).value == 3
    assert sol.assignment == {"a": 1, "b": 1, "c": 1}
