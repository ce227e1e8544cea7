"""Exact linear programming over the rationals.

A small dense-tableau simplex: two phases, slack/artificial
initialization, Dantzig pricing that permanently falls back to Bland's
anti-cycling rule after a run of degenerate pivots, and fully
deterministic tie-breaking (lowest column index, then lowest basis
index).  Optima are therefore exact rationals and reruns are
bit-identical.

Each tableau row, and the objective row, is a list of Python ints over
one positive denominator of its own, divided by their gcd after every
update.  Pricing compares the objective's integer numerators, the ratio
test cross-multiplies (a row's denominator cancels in its ratio), and
a pivot touches only the pivot row's nonzero columns.  `Fraction`
appears only at the boundary: the program's coefficients going in, the
optimum and the assignment coming out.

Solutions are re-checked row by row against the original program
before they are returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional, Sequence

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

# rows x columns of the largest tableau solve_exact builds (about 8 bytes
# of list slot per cell before any nonzero numerator is stored)
MAX_TABLEAU_CELLS = 12_000_000


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
        idx = len(self.var_names)
        self.var_names.append(name)
        self.nonneg.append(nonneg)
        self._index[name] = idx
        c = as_rational(objective)
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

    def _vector(self, assignment: Mapping[str, object]) -> list[Fraction]:
        vec = [ZERO] * len(self.var_names)
        for name, value in assignment.items():
            if name not in self._index:
                raise ValueError(f"program {self.name!r} has no variable {name!r}")
            vec[self._index[name]] = as_rational(value)
        return vec

    def objective_value(self, assignment: Mapping[str, object]) -> Fraction:
        vec = self._vector(assignment)
        return sum((c * vec[j] for j, c in self.objective.items()), ZERO)

    def violated_rows(self, assignment: Mapping[str, object]) -> list[str]:
        """Labels of all rows (and sign constraints) the point violates."""
        vec = self._vector(assignment)
        bad = []
        for row in self.rows:
            lhs = sum((c * vec[j] for j, c in row.coeffs.items()), ZERO)
            ok = (
                lhs == row.rhs
                if row.relation == EQ
                else lhs <= row.rhs if row.relation == LE else lhs >= row.rhs
            )
            if not ok:
                bad.append(row.label)
        for j, is_nonneg in enumerate(self.nonneg):
            if is_nonneg and vec[j] < 0:
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


def _reduce(row: list[int], den: int) -> tuple[list[int], int]:
    """Divide a row and its positive denominator by their common factor."""
    g = math.gcd(den, *row)
    if g == 1:
        return row, den
    return [v // g for v in row], den // g


def _eliminate(row: list[int], den: int, prow: list[int], nz: list[int], col: int) -> tuple[list[int], int]:
    """row/den minus row[col]/den times the pivot row prow/prow[col].

    The pivot row is normalized (its entry in `col` stands for 1, so
    prow[col] is its denominator); only its nonzero columns `nz` change.
    Mutates `row` when the denominator stays the same.
    """
    q = prow[col]
    g = math.gcd(row[col], q)
    m, s = row[col] // g, q // g
    if s != 1:
        row = [v * s for v in row]
        den *= s
    for j in nz:
        row[j] -= m * prow[j]
    if s == 1 and math.gcd(den, *[row[j] for j in nz]) == 1:
        return row, den  # the entries left alone shared no factor with den
    return _reduce(row, den)


class _Tableau:
    """Rows of Python ints, each over its own positive denominator.

    Row i stands for the rationals rows[i][j] / dens[i], and the last
    entry is the right-hand side.  `obj` (over `obj_den`) holds reduced
    costs, its last entry the *negated* objective value; storing -z keeps
    the objective row consistent under the same row operations as the
    constraint rows.
    """

    def __init__(self, rows: list[list[int]], dens: list[int], basis: list[int]) -> None:
        self.rows = rows
        self.dens = dens
        self.basis = basis
        self.obj: list[int] = []
        self.obj_den = 1

    def pivot(self, row: int, col: int) -> list[int]:
        """Make `col` basic in `row`; returns the pivot row's nonzero columns."""
        prow, den = self.rows[row], self.dens[row]
        piv = prow[col]
        if piv != den:  # the pivot element is not 1
            if piv < 0:  # phase-1 drive-out pivots may be negative
                prow, piv = [-v for v in prow], -piv
            prow, piv = _reduce(prow, piv)
            self.rows[row], self.dens[row] = prow, piv
        nz = [j for j, v in enumerate(prow) if v]
        rows, dens = self.rows, self.dens
        for i, other in enumerate(rows):
            if i != row and other[col]:
                rows[i], dens[i] = _eliminate(other, dens[i], prow, nz, col)
        self.basis[row] = col
        return nz

    def set_objective(self, cost: list[int], den: int) -> None:
        """Reduced costs of `cost`/`den` (one entry per column) for the basis."""
        obj = cost + [0]
        for i, b in enumerate(self.basis):
            if obj[b]:
                prow = self.rows[i]
                obj, den = _eliminate(obj, den, prow, [j for j, v in enumerate(prow) if v], b)
        self.obj, self.obj_den = obj, den

    def entering(self, ncols: int, bland: bool) -> Optional[int]:
        obj = self.obj
        if bland:
            return next((j for j in range(ncols) if obj[j] > 0), None)
        best = max(obj[:ncols], default=0)
        return obj.index(best) if best > 0 else None

    def leaving(self, col: int) -> Optional[int]:
        """Minimum ratio rhs/a over a > 0, ties to the lowest basis index.

        A row's denominator cancels in its ratio, and the ratios compare
        by cross-multiplication.
        """
        best_rhs = best_a = 0
        best_row = None
        basis = self.basis
        for i, row in enumerate(self.rows):
            a = row[col]
            if a > 0:
                rhs = row[-1]
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
            if stop_at_zero and self.obj[-1] == 0:
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
            before, before_den = self.obj[-1], self.obj_den
            nz = self.pivot(row, col)
            if self.obj[col]:
                self.obj, self.obj_den = _eliminate(self.obj, self.obj_den, self.rows[row], nz, col)
            if self.obj[-1] * before_den == before * self.obj_den:
                streak += 1
                if streak >= _DEGENERATE_STREAK:
                    bland = True
            else:
                streak = 0


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

    rows: list[list[int]] = []
    dens: list[int] = []
    basis: list[int] = []
    s_idx = a_idx = 0
    for row, flip, rel in zip(lp.rows, flips, relations):
        # numerators over the lcm of the row's denominators, sign-flipped
        # with the relation so the right-hand side is nonnegative
        den = math.lcm(row.rhs.denominator, *(c.denominator for c in row.coeffs.values()))
        scale = -den if flip else den
        line = [0] * (total + 1)
        for j, c in row.coeffs.items():
            plus, minus = col_of[j]
            line[plus] = v = c.numerator * (scale // c.denominator)
            if minus >= 0:
                line[minus] = -v
        line[-1] = row.rhs.numerator * (scale // row.rhs.denominator)
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

    # -- phase 1: maximize minus the artificial mass -----------------------
    if n_art:
        tab.set_objective([0] * art_base + [-1] * n_art, 1)
        status, pivots = tab.run(art_base, max_pivots, pivots, stop_at_zero=True)
        if status != "optimal" or tab.obj[-1] != 0:
            return SimplexSolution(status="infeasible", value=None, assignment={}, pivots=pivots)
        # drive surviving artificials out of the basis (or drop redundant rows)
        drop: list[int] = []
        for i in range(m):
            if basis[i] >= art_base:
                row = tab.rows[i]
                j = next((j for j in range(art_base) if row[j]), None)
                if j is None:
                    drop.append(i)
                else:
                    pivots += 1
                    tab.pivot(i, j)
        for i in reversed(drop):
            del tab.rows[i], tab.dens[i], basis[i]
        # strip artificial columns
        tab.rows = [row[:art_base] + row[-1:] for row in tab.rows]
        total = art_base

    # -- phase 2 ------------------------------------------------------------
    cost_den = math.lcm(*(c.denominator for c in lp.objective.values()))
    cost = [0] * total
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
    for row, den, b in zip(tab.rows, tab.dens, basis):
        values[b] = Fraction(row[-1], den)
    assignment: dict[str, Fraction] = {}
    for j in range(n_orig):
        plus, minus = col_of[j]
        v = values[plus] - (values[minus] if minus >= 0 else ZERO)
        if v:
            assignment[lp.var_names[j]] = v
    value = Fraction(-tab.obj[-1], tab.obj_den)
    if negate:
        value = -value

    bad = lp.violated_rows(assignment)
    if bad:  # pragma: no cover - solver self-check
        raise AssertionError(f"solver returned an infeasible point; violated rows: {bad[:5]}")
    expected = lp.objective_value(assignment)
    if expected != value:  # pragma: no cover - solver self-check
        raise AssertionError(f"objective mismatch: tableau {value}, recomputed {expected}")
    return SimplexSolution(status="optimal", value=value, assignment=assignment, pivots=pivots)
