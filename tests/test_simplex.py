"""Tests for the exact rational simplex solver."""

import math
from fractions import Fraction
from functools import partial
from typing import Optional

import pytest
from hypothesis import example, given, settings, strategies as st

from nscoding import simplex
from nscoding.channels import builtin_z0z1, lift_csir
from nscoding.ns_lp import build_lp1, build_lp2
from nscoding.simplex import LinearProgram, PivotLimitError, SimplexSolution, shared_program, solve_exact
from test_ns_lp import fresh_memo, outcome, phase_one_runs, random_binary_channel, random_channel, solve_cold

F = Fraction


def two_var_max() -> LinearProgram:
    # max 3x + 2y  s.t.  x + y <= 4,  x + 3y <= 6,  x, y >= 0
    # vertices (0,0), (4,0), (3,1), (0,2) -> optimum 12 at (4,0)
    lp = LinearProgram(name="two-var", sense="max")
    x = lp.add_var("x", objective=3)
    y = lp.add_var("y", objective=2)
    lp.add_row({x: 1, y: 1}, "<=", 4, label="cap1")
    lp.add_row({x: 1, y: 3}, "<=", 6, label="cap2")
    return lp


def test_bounded_maximum_exact_vertex():
    sol = solve_exact(two_var_max())
    assert sol.status == "optimal"
    assert sol.value == 12
    assert sol["x"] == 4 and sol["y"] == 0


def test_minimization_with_free_variable():
    # min x - y  with x free in [-2, 5] and 0 <= y <= 3  ->  -2 - 3 = -5
    lp = LinearProgram(sense="min")
    x = lp.add_var("x", nonneg=False, objective=1)
    y = lp.add_var("y", objective=-1)
    lp.add_row({x: 1}, ">=", -2)
    lp.add_row({x: 1}, "<=", 5)
    lp.add_row({y: 1}, "<=", 3)
    sol = solve_exact(lp)
    assert sol.status == "optimal"
    assert sol.value == -5
    assert sol["x"] == -2 and sol["y"] == 3


def test_fractional_optimum_is_exact():
    # max z subject to 2z == 1: the answer is the exact rational 1/2,
    # not a float that merely prints as 0.5.
    lp = LinearProgram()
    z = lp.add_var("z", objective=1)
    lp.add_row({z: 2}, "==", 1)
    sol = solve_exact(lp)
    assert sol.value == F(1, 2)
    assert isinstance(sol.value, Fraction)


def test_infeasible_program_detected():
    lp = LinearProgram()
    x = lp.add_var("x", objective=1)
    lp.add_row({x: 1}, "<=", -1, label="impossible")
    sol = solve_exact(lp)
    assert sol.status == "infeasible"
    assert sol.value is None


def test_unbounded_program_detected():
    lp = LinearProgram(sense="max")
    x = lp.add_var("x", objective=1)
    lp.add_row({x: -1}, "<=", 0)
    sol = solve_exact(lp)
    assert sol.status == "unbounded"


def beale_cycling_program() -> LinearProgram:
    # The classic degenerate program on which Dantzig pricing cycles
    # forever without an anti-cycling rule.  Optimum -1/20 at
    # x = (1/25, 0, 1, 0).
    lp = LinearProgram(name="degenerate", sense="min")
    x1 = lp.add_var("x1", objective=F(-3, 4))
    x2 = lp.add_var("x2", objective=150)
    x3 = lp.add_var("x3", objective=F(-1, 50))
    x4 = lp.add_var("x4", objective=6)
    lp.add_row({x1: F(1, 4), x2: -60, x3: F(-1, 25), x4: 9}, "<=", 0)
    lp.add_row({x1: F(1, 2), x2: -90, x3: F(-1, 50), x4: 3}, "<=", 0)
    lp.add_row({x3: 1}, "<=", 1)
    return lp


def test_degenerate_program_terminates_at_optimum():
    sol = solve_exact(beale_cycling_program())
    assert sol.status == "optimal"
    assert sol.value == F(-1, 20)
    assert sol["x1"] == F(1, 25) and sol["x3"] == 1
    assert sol["x2"] == 0 and sol["x4"] == 0


def test_pivot_limit_raises():
    with pytest.raises(PivotLimitError):
        solve_exact(beale_cycling_program(), max_pivots=1)


@pytest.mark.parametrize("lp", [beale_cycling_program(), LinearProgram()], ids=["pivots", "no-pivot"])
def test_a_negative_pivot_limit_is_refused_before_any_work(lp, monkeypatch):
    monkeypatch.setattr(LinearProgram, "_form", None)  # no standard form is made
    with pytest.raises(ValueError, match="max_pivots must be >= 0, got -1"):
        solve_exact(lp, max_pivots=-1)


def test_reruns_are_identical():
    a = solve_exact(beale_cycling_program())
    b = solve_exact(beale_cycling_program())
    assert a.value == b.value
    assert a.assignment == b.assignment
    assert a.pivots == b.pivots


def test_violated_rows_names_offenders():
    lp = two_var_max()
    # x + y = 5 > 4 breaks cap1; x + 3y = 3 <= 6 keeps cap2; y < 0.
    bad = lp.violated_rows({"x": 6, "y": F(-1)})
    assert bad == ["cap1", "nonneg(y)"]


def test_equality_rows_checked_exactly():
    lp = LinearProgram()
    z = lp.add_var("z")
    lp.add_row({z: 2}, "==", 1, label="half")
    assert lp.violated_rows({"z": F(1, 2)}) == []
    assert lp.violated_rows({"z": F(1, 2) + F(1, 10**12)}) == ["half"]


@given(
    c1=st.fractions(min_value=-5, max_value=5),
    c2=st.fractions(min_value=-5, max_value=5),
)
def test_box_maximum_is_sum_of_positive_parts(c1, c2):
    # max c1*x1 + c2*x2 over the unit box: each coordinate contributes
    # its positive part.
    lp = LinearProgram(sense="max")
    x1 = lp.add_var("x1", objective=c1)
    x2 = lp.add_var("x2", objective=c2)
    lp.add_row({x1: 1}, "<=", 1)
    lp.add_row({x2: 1}, "<=", 1)
    sol = solve_exact(lp)
    assert sol.status == "optimal"
    assert sol.value == max(c1, 0) + max(c2, 0)


def test_duplicate_variable_name_rejected():
    lp = LinearProgram()
    lp.add_var("x")
    with pytest.raises(ValueError, match="duplicate"):
        lp.add_var("x")


def test_row_with_unknown_index_rejected():
    lp = LinearProgram()
    lp.add_var("x")
    with pytest.raises(ValueError, match="unknown variable index"):
        lp.add_row({7: 1}, "<=", 0, label="oops")


def test_objective_with_an_index_past_the_last_variable_rejected():
    lp = LinearProgram()
    x = lp.add_var("x", objective=1)
    with pytest.raises(ValueError, match="objective references unknown variable index 5"):
        lp.set_objective({5: 1})
    assert lp.objective == {x: 1} and solve_exact(lp).status == "unbounded"


def test_objective_with_a_negative_index_rejected():
    # -1 must not wrap around to the last variable
    lp = LinearProgram()
    x = lp.add_var("x")
    lp.add_row({x: 1}, "<=", 1)
    with pytest.raises(ValueError, match="objective references unknown variable index -1"):
        lp.set_objective({-1: 1})
    assert lp.objective == {} and solve_exact(lp).value == 0


def test_boolean_coefficients_are_refused():
    lp = LinearProgram()
    x = lp.add_var("x")
    with pytest.raises(ValueError, match="cannot use bool"):
        lp.add_row({x: True}, "<=", 1)
    with pytest.raises(ValueError, match="cannot use bool"):
        lp.add_row({x: 1}, "<=", True)
    with pytest.raises(ValueError, match="cannot use bool"):
        lp.add_var("y", objective=True)
    assert lp.rows == [] and lp.var_names == ["x"]


def test_tableau_cell_budget_counts_every_column(monkeypatch):
    # x free (two columns), y; x + y >= 1 gets a surplus and an artificial,
    # x - y == -2 flips its sign and gets an artificial: 2 x (3 + 1 + 2).
    lp = LinearProgram(name="budget", sense="min")
    x = lp.add_var("x", nonneg=False, objective=1)
    y = lp.add_var("y", objective=1)
    lp.add_row({x: 1, y: 1}, ">=", 1)
    lp.add_row({x: 1, y: -1}, "==", -2)
    monkeypatch.setattr(simplex, "MAX_TABLEAU_CELLS", 12)
    assert solve_exact(lp).value == 1
    monkeypatch.setattr(simplex, "MAX_TABLEAU_CELLS", 11)
    with pytest.raises(ValueError, match="^the 2 x 6 tableau of 'budget' needs 12 cells, above the cap 11$"):
        solve_exact(lp)


def test_a_pivot_eliminates_in_the_rows_leaving_found_for_its_column():
    # x sits in all three rows, y in the first two; column 0 is x
    lp = two_var_max()
    lp.add_row({0: 1}, "<=", 5, label="cap3")
    form = simplex._standard_form(lp.rows, lp.nonneg)
    found, scanned, partial = form.tableau(), form.tableau(), form.tableau()
    row, hits = found.leaving(0)
    assert (row, hits) == (0, [0, 1, 2])
    assert found.leaving(1) == (1, [0, 1])  # leaving changes nothing
    found.pivot(row, 0, hits)
    scanned.pivot(row, 0)  # as a drive-out pivot does, it scans for the rows
    for tab in (found, scanned):
        assert all(0 not in r for i, r in enumerate(tab.rows) if i != row)
    assert found.rows == scanned.rows
    assert found.dens == scanned.dens and found.basis == scanned.basis == [0, 3, 4]
    partial.pivot(row, 0, [0, 1])  # the rows it is given are the rows it reads
    assert 0 in partial.rows[2] and partial.rows[1] == found.rows[1]


# -- differential test: the integer-row tableau against the Fraction one -----
#
# The reference below is the dense Fraction tableau the solver used before
# its rows became integers over one denominator each.  Both must take the
# same pivots to the same vertex.

ZERO, ONE = F(0), F(1)


def _ref_pivot(tableau, basis, row, col):
    piv_row = tableau[row]
    piv = piv_row[col]
    if piv != ONE:
        inv = ONE / piv
        tableau[row] = piv_row = [v * inv if v else v for v in piv_row]
    for i, other in enumerate(tableau):
        if i == row:
            continue
        m = other[col]
        if m:
            tableau[i] = [a - m * b if b else a for a, b in zip(other, piv_row)]
    basis[row] = col


def _ref_choose_entering(obj, ncols, allowed, bland) -> Optional[int]:
    if bland:
        for j in range(ncols):
            if allowed[j] and obj[j] > 0:
                return j
        return None
    best, best_j = ZERO, None
    for j in range(ncols):
        if allowed[j]:
            c = obj[j]
            if c > best:
                best, best_j = c, j
    return best_j


def _ref_choose_leaving(tableau, basis, col) -> Optional[int]:
    best_ratio = None
    best_row = None
    for i, row in enumerate(tableau):
        a = row[col]
        if a > 0:
            ratio = row[-1] / a
            if best_ratio is None or ratio < best_ratio or (ratio == best_ratio and basis[i] < basis[best_row]):
                best_ratio = ratio
                best_row = i
    return best_row


def _ref_run_simplex(tableau, obj, basis, allowed, max_pivots, pivots_done, stop_at_zero=False):
    ncols = len(obj) - 1
    bland = False
    streak = 0
    while True:
        if stop_at_zero and obj[-1] == 0:
            return "optimal", pivots_done
        col = _ref_choose_entering(obj, ncols, allowed, bland)
        if col is None:
            return "optimal", pivots_done
        row = _ref_choose_leaving(tableau, basis, col)
        if row is None:
            return "unbounded", pivots_done
        pivots_done += 1
        if pivots_done > max_pivots:
            raise PivotLimitError(f"pivot limit {max_pivots} exceeded")
        before = obj[-1]
        _ref_pivot(tableau, basis, row, col)
        m = obj[col]
        if m:
            piv_row = tableau[row]
            for j, b in enumerate(piv_row):
                if b:
                    obj[j] -= m * b
        if obj[-1] == before:
            streak += 1
            if streak >= simplex._DEGENERATE_STREAK:
                bland = True
        else:
            streak = 0


def reference_solve(lp: LinearProgram, max_pivots: int = 200_000) -> SimplexSolution:
    negate = lp.sense == "min"
    n_orig = len(lp.var_names)
    col_of = []
    ncols = 0
    for j in range(n_orig):
        if lp.nonneg[j]:
            col_of.append((ncols, -1))
            ncols += 1
        else:
            col_of.append((ncols, ncols + 1))
            ncols += 2
    n_struct = ncols

    dense_rows, relations, rhs_vals = [], [], []
    for row in lp.rows:
        dense = [ZERO] * n_struct
        for j, c in row.coeffs.items():
            plus, minus = col_of[j]
            dense[plus] += c
            if minus >= 0:
                dense[minus] -= c
        rel, rhs = row.relation, row.rhs
        if rhs < 0:
            dense = [-v for v in dense]
            rhs = -rhs
            rel = {"<=": ">=", ">=": "<=", "==": "=="}[rel]
        dense_rows.append(dense)
        relations.append(rel)
        rhs_vals.append(rhs)

    m = len(dense_rows)
    n_slack = sum(1 for r in relations if r != "==")
    slack_base = n_struct
    art_base = n_struct + n_slack
    n_art = sum(1 for r in relations if r != "<=")
    total = art_base + n_art

    tableau, basis, art_rows = [], [], []
    s_idx = a_idx = 0
    for i in range(m):
        line = dense_rows[i] + [ZERO] * (n_slack + n_art) + [rhs_vals[i]]
        rel = relations[i]
        if rel == "<=":
            line[slack_base + s_idx] = ONE
            basis.append(slack_base + s_idx)
            s_idx += 1
        else:
            if rel == ">=":
                line[slack_base + s_idx] = -ONE
                s_idx += 1
            line[art_base + a_idx] = ONE
            basis.append(art_base + a_idx)
            art_rows.append(i)
            a_idx += 1
        tableau.append(line)

    pivots = 0
    if n_art:
        obj = [ZERO] * (total + 1)
        for i in art_rows:
            row = tableau[i]
            for j in range(total):
                if row[j]:
                    obj[j] += row[j]
            obj[-1] += row[-1]
        for j in range(art_base, total):
            obj[j] = ZERO
        allowed = [True] * art_base + [False] * n_art
        status, pivots = _ref_run_simplex(tableau, obj, basis, allowed, max_pivots, pivots, stop_at_zero=True)
        if status != "optimal" or obj[-1] != 0:
            return SimplexSolution(status="infeasible", value=None, assignment={}, pivots=pivots)
        drop = []
        for i in range(m):
            if basis[i] >= art_base:
                row = tableau[i]
                for j in range(art_base):
                    if row[j]:
                        pivots += 1
                        _ref_pivot(tableau, basis, i, j)
                        break
                else:
                    drop.append(i)
        for i in reversed(drop):
            del tableau[i], basis[i]
        tableau = [row[:art_base] + row[-1:] for row in tableau]
        total = art_base

    cost = [ZERO] * total
    for j, c in lp.objective.items():
        c = -c if negate else c
        plus, minus = col_of[j]
        cost[plus] += c
        if minus >= 0:
            cost[minus] -= c
    obj = list(cost) + [ZERO]
    for i, row in enumerate(tableau):
        cb = cost[basis[i]]
        if cb:
            for j in range(total):
                if row[j]:
                    obj[j] -= cb * row[j]
            obj[-1] -= cb * row[-1]
    status, pivots = _ref_run_simplex(tableau, obj, basis, [True] * total, max_pivots, pivots)
    if status == "unbounded":
        return SimplexSolution(status="unbounded", value=None, assignment={}, pivots=pivots)
    values = [ZERO] * total
    for i, b in enumerate(basis):
        values[b] = tableau[i][-1]
    assignment = {}
    for j in range(n_orig):
        plus, minus = col_of[j]
        v = values[plus] - (values[minus] if minus >= 0 else ZERO)
        if v:
            assignment[lp.var_names[j]] = v
    value = -obj[-1]
    return SimplexSolution(status="optimal", value=-value if negate else value, assignment=assignment, pivots=pivots)


def assert_same_pivots(lp: LinearProgram) -> None:
    new, ref = solve_exact(lp), reference_solve(lp)
    assert (new.status, new.value, new.pivots) == (ref.status, ref.value, ref.pivots)
    assert new.assignment == ref.assignment


def _assisted_programs():
    # LP2 at n = 1, 2 and LP1 at n = 1 (plus the full 13/16 program) on the
    # channels of the LP tests; LP1 at n = 2 elsewhere costs the Fraction
    # reference seconds to a minute each.
    z0z1 = builtin_z0z1()
    channels = {
        "z0z1": z0z1,
        "z0z1-csir": lift_csir(z0z1),
        "binary#1": random_binary_channel(1),
        "binary#2": random_binary_channel(2),
        "random#1": random_channel(1, 2, 3, 2),
        "random#2": random_channel(2, 3, 2, 2),
        "random#3": random_channel(3, 2, 2, 3),
    }
    for name, ch in channels.items():
        for causal in (True, False):
            mode = "causal" if causal else "noncausal"
            yield pytest.param(build_lp1, ch, 1, causal, id=f"lp1-{name}-n1-{mode}")
            for n in (1, 2):
                yield pytest.param(build_lp2, ch, n, causal, id=f"lp2-{name}-n{n}-{mode}")
    yield pytest.param(build_lp1, z0z1, 2, True, id="lp1-z0z1-n2-causal")


@pytest.mark.parametrize("build, ch, n, causal", _assisted_programs())
def test_assisted_programs_take_the_reference_pivots(build, ch, n, causal):
    assert_same_pivots(build(ch, M=2, n=n, causal=causal))


def assert_sparse_form(tab) -> None:
    """No row stores a zero, every denominator is positive, every row is
    divided by its gcd with its denominator."""
    lines = list(zip(tab.rows, tab.dens))
    if tab.obj:
        lines.append((tab.obj, tab.obj_den))
    for row, den in lines:
        assert den > 0
        assert all(row.values())
        assert math.gcd(den, *row.values()) == 1


def count_checked_pivots(monkeypatch) -> list[int]:
    """Check the sparse form around every pivot; the returned list holds
    the count of pivots taken so far."""
    pivot = simplex._Tableau.pivot
    pivots = [0]

    def checked_pivot(tab, row, col, hits=None):
        assert_sparse_form(tab)  # the rows and the objective row left by the last step
        pivot(tab, row, col, hits)
        assert_sparse_form(tab)
        pivots[0] += 1

    monkeypatch.setattr(simplex._Tableau, "pivot", checked_pivot)
    return pivots


@pytest.mark.parametrize("build, ch, n, causal", _assisted_programs())
def test_assisted_programs_keep_the_sparse_form(build, ch, n, causal, monkeypatch):
    # cold: every phase-1, drive-out and phase-2 pivot is taken and checked
    with fresh_memo():
        pivots = count_checked_pivots(monkeypatch)
        sol = solve_exact(build(ch, M=2, n=n, causal=causal))
    assert sol.status == "optimal" and pivots[0] == sol.pivots


@pytest.mark.parametrize("build, ch, n, causal", _assisted_programs())
def test_assisted_programs_keep_the_sparse_form_after_a_memo_hit(build, ch, n, causal, monkeypatch):
    with fresh_memo():
        lp = build(ch, M=2, n=n, causal=causal)
        cold = solve_exact(lp)
        found = lp._system.phase_one
        pivots = count_checked_pivots(monkeypatch)
        warm = solve_exact(lp)
    # warm: only phase 2 pivots, and the count goes on from phase 1's
    assert warm == cold and pivots[0] == warm.pivots - found.pivots


def test_degenerate_program_takes_the_reference_pivots():
    assert_same_pivots(beale_cycling_program())


_COEFF = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def small_programs(draw):
    """(sense, nonneg flags, objective, rows) of a program with at most
    four variables and five rows, some of them repeated equalities."""
    nvars = draw(st.integers(1, 4))
    nonneg = draw(st.lists(st.booleans(), min_size=nvars, max_size=nvars))
    objective = draw(st.dictionaries(st.integers(0, nvars - 1), _COEFF, max_size=nvars))
    row = st.tuples(
        st.dictionaries(st.integers(0, nvars - 1), _COEFF, min_size=1, max_size=nvars),
        st.sampled_from(["<=", ">=", "=="]),
        st.fractions(min_value=-4, max_value=4, max_denominator=3),
    )
    rows = draw(st.lists(row, max_size=5))
    equalities = [r for r in rows if r[1] == "=="]
    if equalities and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(equalities)))
    return draw(st.sampled_from(["max", "min"])), nonneg, objective, rows


@settings(deadline=None, max_examples=150)
@given(small_programs())
@example(("max", [True], {0: 1}, [({0: 1}, "<=", -1)]))  # infeasible
@example(("max", [False], {0: 1}, [({0: -1}, "<=", 2)]))  # unbounded
@example(("min", [True, False], {0: 1, 1: F(1, 2)}, [  # a redundant equality row
    ({0: 1, 1: 1}, "==", F(-3, 2)), ({0: 1, 1: 1}, "==", F(-3, 2)), ({1: 2}, ">=", -5),
]))
def test_small_programs_take_the_reference_pivots(spec):
    sense, nonneg, objective, rows = spec
    lp = LinearProgram(sense=sense)
    for j, flag in enumerate(nonneg):
        lp.add_var(f"x{j}", nonneg=flag, objective=objective.get(j, 0))
    for coeffs, relation, rhs in rows:
        lp.add_row(coeffs, relation, rhs)
    assert_same_pivots(lp)


# -- the integer row check against the Fraction one ---------------------------
#
# The reference below is the Fraction evaluation LinearProgram used before
# its row check ran in integers.  Both must name the same rows, in the same
# order, and agree on the objective.


def _ref_vector(lp: LinearProgram, assignment) -> list:
    vec = [ZERO] * len(lp.var_names)
    for name, value in assignment.items():
        vec[lp._index[name]] = F(value)
    return vec


def reference_objective_value(lp: LinearProgram, assignment) -> Fraction:
    vec = _ref_vector(lp, assignment)
    return sum((c * vec[j] for j, c in lp.objective.items()), ZERO)


def reference_violated_rows(lp: LinearProgram, assignment) -> list:
    vec = _ref_vector(lp, assignment)
    bad = []
    for row in lp.rows:
        lhs = sum((c * vec[j] for j, c in row.coeffs.items()), ZERO)
        ok = (
            lhs == row.rhs
            if row.relation == "=="
            else lhs <= row.rhs if row.relation == "<=" else lhs >= row.rhs
        )
        if not ok:
            bad.append(row.label)
    for j, is_nonneg in enumerate(lp.nonneg):
        if is_nonneg and vec[j] < 0:
            bad.append(f"nonneg({lp.var_names[j]})")
    return bad


_VALUE = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=12),
    st.sampled_from([F(1, 10**12), F(-1, 10**12), 1 + F(1, 10**12), F(1, 2) - F(1, 10**12)]),
)


@st.composite
def programs_and_points(draw):
    """A program from `small_programs`, plus a point that is, at random,
    one of its rows' solutions nudged by 1/10^12 or a free draw."""
    sense, nonneg, objective, rows = draw(small_programs())
    lp = LinearProgram(sense=sense)
    for j, flag in enumerate(nonneg):
        lp.add_var(f"x{j}", nonneg=flag, objective=objective.get(j, 0))
    for coeffs, relation, rhs in rows:
        lp.add_row(coeffs, relation, rhs)
    point = {name: draw(_VALUE) for name in lp.var_names if draw(st.booleans())}
    rows = [row for row in lp.rows if row.coeffs]
    if rows and draw(st.booleans()):
        # put the point on a row's boundary, then perhaps push it off by 1/10^12
        row = draw(st.sampled_from(rows))
        j, c = next(iter(row.coeffs.items()))
        rest = sum((a * F(point.get(lp.var_names[k], 0)) for k, a in row.coeffs.items() if k != j), ZERO)
        point[lp.var_names[j]] = (row.rhs - rest) / c + draw(st.sampled_from([ZERO, F(1, 10**12), F(-1, 10**12)]))
    return lp, point


@settings(deadline=None, max_examples=200)
@given(programs_and_points())
def test_integer_row_check_matches_the_fraction_one(case):
    lp, point = case
    assert lp.violated_rows(point) == reference_violated_rows(lp, point)
    assert lp.objective_value(point) == reference_objective_value(lp, point)


def test_integer_row_check_on_a_certificate_and_an_optimum():
    lp = build_lp2(random_channel(1, 2, 3, 2), M=2, n=2, causal=True)
    sol = solve_exact(lp)
    assert lp.violated_rows(sol.assignment) == reference_violated_rows(lp, sol.assignment) == []
    assert lp.objective_value(sol.assignment) == reference_objective_value(lp, sol.assignment) == sol.value
    nudged = {name: v + F(1, 10**12) for name, v in sol.assignment.items()}
    bad = lp.violated_rows(nudged)
    assert bad and bad == reference_violated_rows(lp, nudged)
    assert lp.objective_value(nudged) == reference_objective_value(lp, nudged)


# -- the post-solve self-check ------------------------------------------------
#
# solve_exact reads the optimum off the tableau as integers over one common
# denominator and checks every row, sign constraint and the objective with
# the integer row check that violated_rows also uses.


def checked_points(monkeypatch) -> list:
    """Record (form, numerators, denominator, objective line) of every row check."""
    check = LinearProgram._violations
    seen = []

    def recording(lp, form, nums, d, objective=None):
        seen.append((form, list(nums), d, objective))
        return check(lp, form, nums, d, objective)

    monkeypatch.setattr(LinearProgram, "_violations", recording)
    return seen


@pytest.mark.parametrize("build, ch, n, causal", _assisted_programs())
def test_the_self_check_checks_the_returned_point(build, ch, n, causal, monkeypatch):
    lp = build(ch, M=2, n=n, causal=causal)
    seen = checked_points(monkeypatch)
    sol = solve_exact(lp)
    [(form, nums, d, objective)] = seen
    assert (nums, d) == lp._point(sol.assignment)
    assert objective is not None
    # one coordinate nudged by 1/d, up on a nonzero one and down on a zero
    # one: the integer check names the rows the Fraction point violates
    up = next(j for j, v in enumerate(nums) if v)
    down = next(j for j, v in enumerate(nums) if not v)
    for j, step in ((up, 1), (down, -1)):
        nudged = list(nums)
        nudged[j] += step
        point = {name: F(v, d) for name, v in zip(lp.var_names, nudged) if v}
        bad = lp._violations(form, nudged, d)
        assert bad and bad == lp.violated_rows(point) == reference_violated_rows(lp, point)


def corrupted_optimum(monkeypatch, corrupt) -> None:
    """Apply `corrupt` to the tableau of every phase-2 run once it ends."""
    run = simplex._Tableau.run

    def corrupting(tab, ncols, max_pivots, pivots_done, stop_at_zero=False):
        result = run(tab, ncols, max_pivots, pivots_done, stop_at_zero)
        if not stop_at_zero:
            corrupt(tab)
        return result

    monkeypatch.setattr(simplex._Tableau, "run", corrupting)


def test_the_self_check_refuses_a_point_off_the_rows(monkeypatch):
    def move_x(tab):  # x = 4 + 1, above cap1; the objective row still says 12
        i = tab.basis.index(0)
        tab.rows[i][simplex.RHS] += tab.dens[i]

    corrupted_optimum(monkeypatch, move_x)
    with pytest.raises(AssertionError, match=r"\['cap1', 'objective'\]"):
        solve_exact(two_var_max())


def test_the_self_check_refuses_a_value_off_the_point(monkeypatch):
    def lower_z(tab):  # the point stays (4, 0), the value reads 13
        tab.obj[simplex.RHS] -= tab.obj_den

    corrupted_optimum(monkeypatch, lower_z)
    with pytest.raises(AssertionError, match=r"\['objective'\]"):
        solve_exact(two_var_max())


# -- the phase-1 memo ---------------------------------------------------------
#
# Phase 1 depends on the constraint system alone, so a shared system keeps
# its outcome.  A hit must reproduce the cold solve exactly: status, value,
# vertex and every pivot counted.  Programs are built inside the memo under
# test: a system stored in another memo solves cold in it.


def spec_system(sense: str, nonneg: tuple, rows: tuple) -> LinearProgram:
    """The variables and rows of a `small_programs` spec, rows given as
    (coefficient items, relation, right-hand side)."""
    lp = LinearProgram(sense=sense)
    for j, flag in enumerate(nonneg):
        lp.add_var(f"x{j}", nonneg=flag)
    for coeffs, relation, rhs in rows:
        lp.add_row(dict(coeffs), relation, rhs)
    return lp


def shared_spec_program(spec, objective: dict) -> LinearProgram:
    """The program of a `small_programs` spec over the shared system of its
    rows, under `objective` (indices outside the program dropped)."""
    sense, nonneg, _, rows = spec
    rows = tuple((tuple(coeffs.items()), relation, rhs) for coeffs, relation, rhs in rows)
    lp = shared_program("spec", spec_system, sense, tuple(nonneg), rows)
    return with_objective(lp, {j: c for j, c in objective.items() if j < len(nonneg)})


def with_objective(lp: LinearProgram, objective: dict) -> LinearProgram:
    """`lp` under `objective` in place of its own."""
    lp.set_objective(objective)
    return lp


def assert_warm_matches_cold(make_a, make_b) -> None:
    """make_a() and make_b() build programs of one shared system; in each
    order of solving them the second solve hits the first's phase 1, when
    there is one, and must give the cold results."""
    cold_a, cold_b = outcome(solve_cold(make_a())), outcome(solve_cold(make_b()))
    for first, second, cold in ((make_a, make_b, cold_b), (make_b, make_a, cold_a)):
        with fresh_memo() as memo, phase_one_runs() as runs:
            a, b = first(), second()
            assert a._system is b._system and list(memo.entries) == [a._system.key]
            solve_exact(a)
            assert outcome(solve_exact(b)) == cold
        form = a._system.form
        assert len(runs) == (form.art_base < form.total)  # one run at most: the second solve hit


@pytest.mark.parametrize("build, ch, n, causal", _assisted_programs())
def test_assisted_programs_solve_alike_cold_and_warm(build, ch, n, causal):
    def other():
        # the same rows, another objective: each coefficient times 1, 2 or 3
        lp = build(ch, M=2, n=n, causal=causal)
        return with_objective(lp, {j: c * (j % 3 + 1) for j, c in lp.objective.items()})

    assert_warm_matches_cold(partial(build, ch, M=2, n=n, causal=causal), other)


@settings(deadline=None, max_examples=150)
@given(small_programs(), st.dictionaries(st.integers(0, 3), _COEFF, max_size=4))
@example(("max", [True], {0: 1}, [({0: 1}, "<=", -1)]), {0: -1})  # infeasible
@example(("min", [True, False], {0: 1, 1: F(1, 2)}, [  # a redundant equality row
    ({0: 1, 1: 1}, "==", F(-3, 2)), ({0: 1, 1: 1}, "==", F(-3, 2)), ({1: 2}, ">=", -5),
]), {1: -1})
def test_small_programs_solve_alike_cold_and_warm(spec, objective):
    assert_warm_matches_cold(lambda: shared_spec_program(spec, spec[2]), lambda: shared_spec_program(spec, objective))


def _equality_system(coeff, rhs) -> LinearProgram:
    # x + coeff*y == rhs,  x <= 1: the equality needs an artificial, so
    # phase 1 runs
    lp = LinearProgram(sense="max")
    x = lp.add_var("x")
    y = lp.add_var("y")
    lp.add_row({x: 1, y: coeff}, "==", rhs)
    lp.add_row({x: 1}, "<=", 1)
    return lp


def equality_program(coeff, rhs) -> LinearProgram:
    """max x + 2y over the shared system of (coeff, rhs)."""
    return with_objective(shared_program("eq", _equality_system, coeff, rhs), {0: 1, 1: 2})


@pytest.mark.parametrize("a, b", [
    # only a right-hand side differs, over the same row denominators
    (partial(equality_program, 1, 1), partial(equality_program, 1, 2)),
    (partial(equality_program, 1, F(1, 3)), partial(equality_program, 1, F(2, 3))),
    # only one coefficient differs
    (partial(equality_program, 1, 1), partial(equality_program, 2, 1)),
    (partial(equality_program, F(1, 2), 1), partial(equality_program, F(3, 2), 1)),
    # LP2 at M = 2 and M = 3: the right-hand sides 1/2 and 1/3
    (partial(build_lp2, builtin_z0z1(), M=2, n=1), partial(build_lp2, builtin_z0z1(), M=3, n=1)),
], ids=["rhs", "rhs-thirds", "coefficient", "coefficient-halves", "lp2-M2-M3"])
def test_programs_with_different_rows_never_share_an_entry(a, b):
    # a and b build their programs inside the memo under test
    cold_a, cold_b = outcome(solve_cold(a())), outcome(solve_cold(b()))
    assert cold_a != cold_b
    for first, second, cold in ((a, b, cold_b), (b, a, cold_a)):
        with fresh_memo() as memo, phase_one_runs() as runs:
            solve_exact(first())
            assert outcome(solve_exact(second())) == cold
            assert len(memo.entries) == 2 == len(runs)


def test_a_hit_leaves_the_memo_as_it_was():
    def snapshot(tab):
        return [dict(row) for row in tab.rows], list(tab.dens), list(tab.basis)

    with fresh_memo() as memo, phase_one_runs() as runs:
        lp = build_lp2(random_channel(1, 2, 3, 2), M=2, n=2, causal=True)
        sols = [outcome(solve_exact(lp))]
        (system,) = memo.entries.values()
        found, cells = system.phase_one, memo.cells
        stored = snapshot(found.tab)
        sols += [outcome(solve_exact(lp)) for _ in range(2)]
        assert snapshot(found.tab) == stored
        assert system.phase_one is found and memo.cells == cells == system.cells
    assert len(runs) == 1  # both later solves hit
    assert sols[0][2] > found.pivots  # phase 2 pivots, on a copy
    assert sols == [sols[0]] * 3


@pytest.mark.parametrize("program", [
    partial(build_lp1, builtin_z0z1(), M=2, n=1),
    partial(build_lp1, random_binary_channel(2), M=2, n=1),
    # no phase-2 pivot: only the limit check on the hit itself can raise
    lambda: with_objective(build_lp1(builtin_z0z1(), M=2, n=1), {}),
], ids=["lp1-z0z1-n1", "lp1-binary#2-n1", "lp1-z0z1-n1-no-objective"])
def test_a_hit_hits_the_pivot_limit_where_a_cold_solve_does(program):
    with fresh_memo():
        lp = program()
        full = solve_exact(lp)
        found = lp._system.phase_one

    def attempt(lp, max_pivots: int):
        try:
            return outcome(solve_exact(lp, max_pivots=max_pivots))
        except PivotLimitError:
            return "limit"

    limits = range(full.pivots + 1)
    cold = []
    for max_pivots in limits:
        with fresh_memo():
            lp = program()
            cold.append(attempt(lp, max_pivots))
            # a phase-1 run that raised is not kept
            assert (lp._system.phase_one is not None) == (max_pivots >= found.run_pivots)
    with fresh_memo(), phase_one_runs() as runs:
        lp = program()
        solve_exact(lp)
        warm = [attempt(lp, max_pivots) for max_pivots in limits]
    assert len(runs) == 1  # every attempt hit
    assert warm == cold
    assert cold[0] == "limit" and cold[-1] == outcome(full)
    assert 0 < found.run_pivots < found.pivots <= full.pivots  # limits in phase 1, in the drive-out (unchecked) and in phase 2


def test_an_infeasible_program_stays_infeasible_on_a_hit():
    # x + y == 1 and x + y == 2 after one phase-1 pivot or more
    spec = ("max", [True, True], {0: 1, 1: 1}, [({0: 1, 1: 1}, "==", 1), ({0: 1, 1: 1}, "==", 2)])
    cold = solve_cold(shared_spec_program(spec, spec[2]))
    assert cold.status == "infeasible" and cold.pivots > 0
    with fresh_memo() as memo, phase_one_runs() as runs:
        lp = shared_spec_program(spec, spec[2])
        solve_exact(lp)
        assert len(memo.entries) == 1 and lp._system.phase_one.tab is None
        other = shared_spec_program(spec, {1: -1})
        assert outcome(solve_exact(lp)) == outcome(solve_exact(other)) == outcome(cold)
    assert len(runs) == 1


def test_memo_stays_within_its_cell_bound(monkeypatch):
    bound = 3000
    monkeypatch.setattr(simplex, "_SYSTEM_CELLS", bound)
    stored, held = set(), 0
    with fresh_memo() as memo:
        for build, ch, n, causal in [param.values for param in _assisted_programs()][:12]:
            lp = build(ch, M=2, n=n, causal=causal)
            assert outcome(solve_exact(lp)) == outcome(solve_cold(lp))
            assert memo.cells == sum(system.cells for system in memo.entries.values()) <= bound
            stored.update(memo.entries)
            held = max(held, len(memo.entries))
        assert 1 < held < len(stored)  # several systems at once, and evictions


def test_memo_evicts_the_least_recently_used_system(monkeypatch):
    def solve(M):
        solve_exact(build_lp2(builtin_z0z1(), M=M, n=1))

    with fresh_memo() as memo:
        for M in (2, 3, 4):
            solve(M)
        (key_a, a), (key_b, b), (key_c, c) = memo.entries.items()
    # room for any two of the three systems, not for all three
    monkeypatch.setattr(simplex, "_SYSTEM_CELLS", a.cells + b.cells + c.cells - 1)
    with fresh_memo() as memo:
        for M in (2, 3, 2, 4):  # M = 2 is used again after M = 3, so M = 3 goes
            solve(M)
        assert list(memo.entries) == [key_a, key_c]


def test_a_system_above_the_bound_is_solved_but_not_stored(monkeypatch):
    def build():
        return build_lp2(builtin_z0z1(), M=2, n=1)

    with fresh_memo() as memo:
        build()
        (system,) = memo.entries.values()
        rows = system.cells  # the system without its phase 1
    # the system alone above the bound, then the system and its phase 1
    for bound in (10, rows):
        monkeypatch.setattr(simplex, "_SYSTEM_CELLS", bound)
        with fresh_memo() as memo, phase_one_runs() as runs:
            lp = build()
            assert len(memo.entries) == (bound == rows)
            assert outcome(solve_exact(lp)) == outcome(solve_exact(lp))
            assert len(runs) == 2 and memo.cells == (rows if bound == rows else 0)
            assert lp._system.phase_one is None
