"""Exact linear programming over the rationals.

A small sparse-tableau simplex: two phases, slack/artificial
initialization, Dantzig pricing that permanently falls back to Bland's
anti-cycling rule after a run of degenerate pivots, and fully
deterministic tie-breaking (lowest column index, then lowest basis
index).  Optima are therefore exact rationals and reruns are
bit-identical.

Each tableau row, and the objective row, is a dict {column: numerator}
of Python ints that stores no zeros, with the right-hand side under the
key RHS, over one positive denominator of its own, divided by their gcd
after every update.  Every tableau operation walks only stored entries:
pricing compares the objective's integer numerators, the ratio test
cross-multiplies (a row's denominator cancels in its ratio), and a pivot
updates the rows that store the pivot column at the pivot row's stored
columns.  `Fraction` appears only at the boundary: the program's
coefficients going in, the optimum and the assignment coming out.

Phase 1 (the run, the drive-out of artificials, the drop of redundant
rows and the strip of artificial columns) never reads the objective, and
programs that differ only in their objective, such as one LP over the
channels of one shape, share it.  Its outcome is kept in a least-recently-
used memo keyed by the complete standard-form constraint system: the
integer rows with their right-hand sides, slack and artificial columns,
the row denominators and the first artificial column.  Phase 2 runs on a
copy, and the pivot count includes phase 1's, so pivots, vertices and
values are those of a cold solve, and PivotLimitError is raised exactly
when a cold solve would raise it.  The memo holds at most
_PHASE_ONE_CELLS (column, value) pairs, keys included (100k, a few MB); a
larger system is solved but not stored.  A one-shot run solves each
system once and gains nothing from it.

Solutions are re-checked row by row against the original program, in
integers (each row and the point over their own common denominators),
before they are returned.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Mapping, Optional

from .rational import as_rational

__all__ = [
    "LinearProgram",
    "SimplexSolution",
    "solve_exact",
    "PivotLimitError",
    "MAX_TABLEAU_CELLS",
]

ZERO = Fraction(0)

EQ, LE, GE = "==", "<=", ">="
_RELATIONS = (EQ, LE, GE)

# pivots without objective progress tolerated before switching to Bland's rule
_DEGENERATE_STREAK = 40

# rows x columns of the largest tableau solve_exact builds.  Rows store only
# their nonzero entries, so this bounds work (a pivot's scan of the rows,
# fill-in up to a dense tableau), not bytes allocated up front.
MAX_TABLEAU_CELLS = 12_000_000

# the key of the right-hand side in a sparse tableau row (columns are >= 0)
RHS = -1


class PivotLimitError(RuntimeError):
    pass


@dataclass
class _Row:
    coeffs: dict[int, Fraction]
    relation: str
    rhs: Fraction
    label: str


@dataclass
class LinearProgram:
    """Named variables, sparse rows, and a linear objective."""

    name: str = "lp"
    sense: str = "max"
    var_names: list[str] = field(default_factory=list)
    objective: dict[int, Fraction] = field(default_factory=dict)
    rows: list[_Row] = field(default_factory=list)
    nonneg: list[bool] = field(default_factory=list)
    _index: dict[str, int] = field(default_factory=dict, repr=False)

    def add_var(self, name: str, nonneg: bool = True, objective: object = 0) -> int:
        if name in self._index:
            raise ValueError(f"duplicate variable name {name!r}")
        c = as_rational(objective)
        idx = len(self.var_names)
        self.var_names.append(name)
        self.nonneg.append(nonneg)
        self._index[name] = idx
        if c:
            self.objective[idx] = c
        return idx

    def set_objective(self, coeffs: Mapping[int, object]) -> None:
        self.objective = {j: as_rational(c) for j, c in coeffs.items() if as_rational(c)}

    def add_row(self, coeffs: Mapping[int, object], relation: str, rhs: object, label: str = "") -> None:
        if relation not in _RELATIONS:
            raise ValueError(f"relation must be one of {_RELATIONS}, got {relation!r}")
        clean = {}
        for j, c in coeffs.items():
            c = as_rational(c)
            if not 0 <= j < len(self.var_names):
                raise ValueError(f"row {label!r} references unknown variable index {j}")
            if c:
                clean[j] = c
        self.rows.append(_Row(coeffs=clean, relation=relation, rhs=as_rational(rhs), label=label or f"row{len(self.rows)}"))

    # -- exact evaluation --------------------------------------------------

    def _point(self, assignment: Mapping[str, object]) -> tuple[list[int], int]:
        """The point's coordinates as numerators over one common denominator."""
        vec = [ZERO] * len(self.var_names)
        for name, value in assignment.items():
            if name not in self._index:
                raise ValueError(f"program {self.name!r} has no variable {name!r}")
            vec[self._index[name]] = as_rational(value)
        d = math.lcm(*(v.denominator for v in vec))
        return [v.numerator * (d // v.denominator) for v in vec], d

    @staticmethod
    def _scaled(coeffs: Mapping[int, Fraction], nums: list[int], rhs: Fraction = ZERO) -> tuple[int, int, int]:
        """(Σ c_j·nums[j], rhs) both times L, and L: the lcm of the
        denominators of the coefficients and of `rhs`."""
        lcm = math.lcm(rhs.denominator, *(c.denominator for c in coeffs.values()))
        lhs = sum(c.numerator * (lcm // c.denominator) * nums[j] for j, c in coeffs.items())
        return lhs, rhs.numerator * (lcm // rhs.denominator), lcm

    def objective_value(self, assignment: Mapping[str, object]) -> Fraction:
        nums, d = self._point(assignment)
        total, _, lcm = self._scaled(self.objective, nums)
        return Fraction(total, lcm * d)

    def violated_rows(self, assignment: Mapping[str, object]) -> list[str]:
        """Labels of all rows (and sign constraints) the point violates.

        Each row is checked in integers: both sides times the lcm of the
        row's denominators and the point's common denominator.
        """
        nums, d = self._point(assignment)
        bad = []
        for row in self.rows:
            lhs, rhs, _ = self._scaled(row.coeffs, nums, row.rhs)
            rhs *= d
            ok = lhs == rhs if row.relation == EQ else lhs <= rhs if row.relation == LE else lhs >= rhs
            if not ok:
                bad.append(row.label)
        for j, is_nonneg in enumerate(self.nonneg):
            if is_nonneg and nums[j] < 0:
                bad.append(f"nonneg({self.var_names[j]})")
        return bad

    def size(self) -> tuple[int, int]:
        return len(self.var_names), len(self.rows)


@dataclass
class SimplexSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Optional[Fraction]
    assignment: dict[str, Fraction]
    pivots: int

    def __getitem__(self, name: str) -> Fraction:
        return self.assignment.get(name, ZERO)


def _reduce(row: dict[int, int], den: int) -> tuple[dict[int, int], int]:
    """Divide a row and its positive denominator by their common factor."""
    g = math.gcd(den, *row.values())
    if g == 1:
        return row, den
    return {j: v // g for j, v in row.items()}, den // g


def _eliminate(row: dict[int, int], den: int, prow: dict[int, int], col: int) -> tuple[dict[int, int], int]:
    """row/den minus row[col]/den times the pivot row prow/prow[col].

    The pivot row is normalized (its entry in `col` stands for 1, so
    prow[col] is its denominator); only its stored columns change, and
    entries that cancel are removed.  Mutates `row` when the denominator
    stays the same.
    """
    q = prow[col]
    g = math.gcd(row[col], q)
    m, s = row[col] // g, q // g
    if s != 1:
        row = {j: v * s for j, v in row.items()}
        den *= s
    get = row.get
    for j, p in prow.items():
        v = get(j, 0) - m * p
        if v:
            row[j] = v
        else:
            del row[j]
    return _reduce(row, den)


class _Tableau:
    """Sparse rows of Python ints, each over its own positive denominator.

    Row i stands for the rationals rows[i][j] / dens[i]; a column it does
    not store is zero, and the right-hand side sits under the key RHS.
    `obj` (over `obj_den`) holds reduced costs, under RHS the *negated*
    objective value; storing -z keeps the objective row consistent under
    the same row operations as the constraint rows.
    """

    def __init__(self, rows: list[dict[int, int]], dens: list[int], basis: list[int]) -> None:
        self.rows = rows
        self.dens = dens
        self.basis = basis
        self.obj: dict[int, int] = {}
        self.obj_den = 1

    def pivot(self, row: int, col: int) -> None:
        """Make `col` basic in `row`."""
        prow, den = self.rows[row], self.dens[row]
        piv = prow[col]
        if piv != den:  # the pivot element is not 1
            if piv < 0:  # phase-1 drive-out pivots may be negative
                prow, piv = {j: -v for j, v in prow.items()}, -piv
            prow, piv = _reduce(prow, piv)
            self.rows[row], self.dens[row] = prow, piv
        rows, dens = self.rows, self.dens
        for i, other in enumerate(rows):
            if col in other and i != row:
                rows[i], dens[i] = _eliminate(other, dens[i], prow, col)
        self.basis[row] = col

    def set_objective(self, cost: dict[int, int], den: int) -> None:
        """Reduced costs of `cost`/`den` (nonzero entries by column) for the basis."""
        obj = dict(cost)
        for i, b in enumerate(self.basis):
            if b in obj:
                obj, den = _eliminate(obj, den, self.rows[i], b)
        self.obj, self.obj_den = obj, den

    def entering(self, ncols: int, bland: bool) -> Optional[int]:
        """The lowest column of largest positive reduced cost (Dantzig), or
        with `bland` the lowest column of positive reduced cost."""
        costs = [(j, v) for j, v in self.obj.items() if v > 0 and 0 <= j < ncols]
        if not costs:
            return None
        if bland:
            return min(costs)[0]
        best = max(v for _, v in costs)
        return min(j for j, v in costs if v == best)

    def leaving(self, col: int) -> Optional[int]:
        """Minimum ratio rhs/a over a > 0, ties to the lowest basis index.

        A row's denominator cancels in its ratio, and the ratios compare
        by cross-multiplication.
        """
        best_rhs = best_a = 0
        best_row = None
        basis = self.basis
        for i, row in enumerate(self.rows):
            a = row.get(col, 0)
            if a > 0:
                rhs = row.get(RHS, 0)
                if best_row is None:
                    best_rhs, best_a, best_row = rhs, a, i
                    continue
                cross, best_cross = rhs * best_a, best_rhs * a  # rhs/a against best_rhs/best_a
                if cross < best_cross or (cross == best_cross and basis[i] < basis[best_row]):
                    best_rhs, best_a, best_row = rhs, a, i
        return best_row

    def run(self, ncols: int, max_pivots: int, pivots_done: int, stop_at_zero: bool = False) -> tuple[str, int]:
        """Maximize over the first `ncols` columns."""
        bland = False
        streak = 0
        while True:
            if stop_at_zero and RHS not in self.obj:
                return "optimal", pivots_done
            col = self.entering(ncols, bland)
            if col is None:
                return "optimal", pivots_done
            row = self.leaving(col)
            if row is None:
                return "unbounded", pivots_done
            pivots_done += 1
            if pivots_done > max_pivots:
                raise PivotLimitError(f"pivot limit {max_pivots} exceeded")
            before, before_den = self.obj.get(RHS, 0), self.obj_den
            self.pivot(row, col)
            if col in self.obj:
                self.obj, self.obj_den = _eliminate(self.obj, self.obj_den, self.rows[row], col)
            if self.obj.get(RHS, 0) * before_den == before * self.obj_den:
                streak += 1
                if streak >= _DEGENERATE_STREAK:
                    bland = True
            else:
                streak = 0


@dataclass
class _PhaseOne:
    """A phase-1 outcome: the pivots of its run (the count `max_pivots`
    bounds), all its pivots (with the drive-out), and, when the program is
    feasible, the tableau in a feasible basis without artificial columns."""

    run_pivots: int
    pivots: int
    rows: Optional[list[dict[int, int]]] = None
    dens: Optional[list[int]] = None
    basis: Optional[list[int]] = None


def _phase_one(tab: _Tableau, art_base: int, total: int, max_pivots: int) -> _PhaseOne:
    """Maximize minus the artificial mass, drive surviving artificials out
    of the basis (or drop their redundant rows), strip the artificials."""
    tab.set_objective(dict.fromkeys(range(art_base, total), -1), 1)
    status, run_pivots = tab.run(art_base, max_pivots, 0, stop_at_zero=True)
    if status != "optimal" or RHS in tab.obj:
        return _PhaseOne(run_pivots, run_pivots)
    pivots = run_pivots
    drop: list[int] = []
    for i, b in enumerate(tab.basis):
        if b >= art_base:
            j = min((j for j in tab.rows[i] if 0 <= j < art_base), default=None)
            if j is None:
                drop.append(i)
            else:
                pivots += 1
                tab.pivot(i, j)
    for i in reversed(drop):
        del tab.rows[i], tab.dens[i], tab.basis[i]
    # a row may share a factor with its denominator once its artificials are gone
    for i, (row, den) in enumerate(zip(tab.rows, tab.dens)):
        tab.rows[i], tab.dens[i] = _reduce({j: v for j, v in row.items() if j < art_base}, den)
    return _PhaseOne(run_pivots, pivots, tab.rows, tab.dens, tab.basis)


# (column, value) pairs the phase-1 memo holds, in its keys and its tableaux
# together, at 60-85 bytes each: the `lp` benchmark's 19 constraint systems
# take 31k, LP2 on z0z1 at n = 3 takes 9k (causal) and 6k (non-causal).  A
# system above the bound is not stored.
_PHASE_ONE_CELLS = 100_000


class _PhaseOneMemo:
    """Phase-1 outcomes by standard-form constraint system, least recently
    used first, evicted beyond _PHASE_ONE_CELLS."""

    def __init__(self) -> None:
        self.entries: OrderedDict[tuple, tuple[int, _PhaseOne]] = OrderedDict()
        self.cells = 0

    def get(self, key: tuple) -> Optional[_PhaseOne]:
        entry = self.entries.get(key)
        if entry is None:
            return None
        self.entries.move_to_end(key)
        return entry[1]

    def put(self, key: tuple, found: _PhaseOne) -> bool:
        """Store `found`; False when it alone is above the bound."""
        cells = sum(map(len, key[-1])) // 2 + sum(map(len, found.rows or ()))
        if cells > _PHASE_ONE_CELLS:
            return False
        self.entries[key] = (cells, found)
        self.cells += cells
        while self.cells > _PHASE_ONE_CELLS:
            self.cells -= self.entries.popitem(last=False)[1][0]
        return True


_PHASE_ONE = _PhaseOneMemo()


def _feasible_tableau(tab: _Tableau, art_base: int, total: int, max_pivots: int) -> tuple[int, Optional[_Tableau]]:
    """(pivots so far, tableau in a feasible basis or None if there is
    none) of the initial tableau `tab`, whose artificial columns are
    art_base..total-1.

    Phase 1 never reads the objective, so its outcome is memoized by the
    constraint system alone: art_base, total, the row denominators and
    the rows, right-hand sides, slack and artificial columns included.  A
    hit returns a copy, as phase 2 updates rows in place, and raises
    PivotLimitError whenever the cold run would have.
    """
    key = (art_base, total, tuple(tab.dens), tuple(tuple(chain.from_iterable(row.items())) for row in tab.rows))
    found = _PHASE_ONE.get(key)
    if found is None:
        found = _phase_one(tab, art_base, total, max_pivots)
        stored = _PHASE_ONE.put(key, found)
    elif found.run_pivots > max_pivots:
        raise PivotLimitError(f"pivot limit {max_pivots} exceeded")
    else:
        stored = True
    if found.rows is None:
        return found.pivots, None
    if stored:
        tab = _Tableau([dict(row) for row in found.rows], list(found.dens), list(found.basis))
    return found.pivots, tab


def solve_exact(lp: LinearProgram, max_pivots: int = 200_000) -> SimplexSolution:
    """Solve to exact rational optimality (or report infeasible/unbounded).

    Raises ValueError before building anything when the tableau would
    exceed MAX_TABLEAU_CELLS.
    """
    if lp.sense not in ("max", "min"):
        raise ValueError(f"sense must be 'max' or 'min', got {lp.sense!r}")
    negate = lp.sense == "min"

    # -- standard form: split free variables, normalize rhs signs ---------
    n_orig = len(lp.var_names)
    col_of: list[tuple[int, int]] = []  # (plus_col, minus_col or -1) per original var
    ncols = 0
    for j in range(n_orig):
        if lp.nonneg[j]:
            col_of.append((ncols, -1))
            ncols += 1
        else:
            col_of.append((ncols, ncols + 1))
            ncols += 2
    n_struct = ncols

    flips = [row.rhs < 0 for row in lp.rows]
    relations = [
        {LE: GE, GE: LE, EQ: EQ}[row.relation] if flip else row.relation
        for row, flip in zip(lp.rows, flips)
    ]
    m = len(relations)
    n_slack = sum(1 for r in relations if r in (LE, GE))
    slack_base = n_struct
    art_base = n_struct + n_slack
    n_art = sum(1 for r in relations if r in (EQ, GE))
    total = art_base + n_art
    cells = m * total
    if cells > MAX_TABLEAU_CELLS:
        raise ValueError(
            f"program {lp.name!r} needs a {m} x {total} tableau ({cells} cells), "
            f"above the exact-solver budget {MAX_TABLEAU_CELLS}"
        )

    rows: list[dict[int, int]] = []
    dens: list[int] = []
    basis: list[int] = []
    s_idx = a_idx = 0
    for row, flip, rel in zip(lp.rows, flips, relations):
        # numerators over the lcm of the row's denominators, sign-flipped
        # with the relation so the right-hand side is nonnegative
        den = math.lcm(row.rhs.denominator, *(c.denominator for c in row.coeffs.values()))
        scale = -den if flip else den
        line: dict[int, int] = {}
        for j, c in row.coeffs.items():
            plus, minus = col_of[j]
            line[plus] = v = c.numerator * (scale // c.denominator)
            if minus >= 0:
                line[minus] = -v
        if row.rhs:
            line[RHS] = row.rhs.numerator * (scale // row.rhs.denominator)
        if rel == LE:
            line[slack_base + s_idx] = den
            basis.append(slack_base + s_idx)
            s_idx += 1
        else:
            if rel == GE:
                line[slack_base + s_idx] = -den
                s_idx += 1
            line[art_base + a_idx] = den
            basis.append(art_base + a_idx)
            a_idx += 1
        rows.append(line)
        dens.append(den)
    tab = _Tableau(rows, dens, basis)
    pivots = 0
    if n_art:
        pivots, tab = _feasible_tableau(tab, art_base, total, max_pivots)
        if tab is None:
            return SimplexSolution(status="infeasible", value=None, assignment={}, pivots=pivots)
        total = art_base

    # -- phase 2 ------------------------------------------------------------
    cost_den = math.lcm(*(c.denominator for c in lp.objective.values()))
    cost: dict[int, int] = {}
    for j, c in lp.objective.items():
        c = (-c if negate else c).numerator * (cost_den // c.denominator)
        plus, minus = col_of[j]
        cost[plus] = c
        if minus >= 0:
            cost[minus] = -c
    tab.set_objective(cost, cost_den)
    status, pivots = tab.run(total, max_pivots, pivots)
    if status == "unbounded":
        return SimplexSolution(status="unbounded", value=None, assignment={}, pivots=pivots)

    values = [ZERO] * total
    for row, den, b in zip(tab.rows, tab.dens, tab.basis):
        values[b] = Fraction(row.get(RHS, 0), den)
    assignment: dict[str, Fraction] = {}
    for j in range(n_orig):
        plus, minus = col_of[j]
        v = values[plus] - (values[minus] if minus >= 0 else ZERO)
        if v:
            assignment[lp.var_names[j]] = v
    value = Fraction(-tab.obj.get(RHS, 0), tab.obj_den)
    if negate:
        value = -value

    bad = lp.violated_rows(assignment)
    if bad:  # pragma: no cover - solver self-check
        raise AssertionError(f"solver returned an infeasible point; violated rows: {bad[:5]}")
    expected = lp.objective_value(assignment)
    if expected != value:  # pragma: no cover - solver self-check
        raise AssertionError(f"objective mismatch: tableau {value}, recomputed {expected}")
    return SimplexSolution(status="optimal", value=value, assignment=assignment, pivots=pivots)
