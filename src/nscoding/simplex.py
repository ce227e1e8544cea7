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
after every update (a row over denominator 1 is reduced already, and
most rows of the assisted-success programs are).  Every tableau
operation walks only stored entries: pricing makes one pass over the
objective's integer numerators, the ratio test cross-multiplies (a row's
denominator cancels in its ratio), and a pivot reads the pivot row's
stored entries once and updates, with them, the rows that store the
pivot column and the objective row; one row update, `_eliminate`, serves
pivots, the objective row and the pricing of a new objective.
`Fraction` appears only at the boundary: the program's coefficients
going in, the optimum and the assignment coming out.

A program's integer standard form (free variables split, right-hand
sides made nonnegative, slack and artificial columns, each row over its
own denominator) is derived once per constraint system.  Programs from
`shared_program`, such as one LP over the channels of one shape, share
one system: its variables, its immutable rows and their standard form,
built once from the builder's arguments; they differ in name and
objective.  A program whose rows were changed, or that was built row by
row, is put in standard form when it is solved or checked.

Phase 1 (the run, the drive-out of artificials, the drop of redundant
rows and the strip of artificial columns) never reads the objective, so
a shared system keeps its outcome once a solve has run it; any other
program runs phase 1 cold and keeps nothing.  Phase 2 runs on a copy,
and the pivot count includes phase 1's, so pivots, vertices and values
are those of a cold solve, and PivotLimitError is raised exactly when a
cold solve would raise it.  The systems live in one least-recently-used
memo keyed by (build, *fields) under one bound, _SYSTEM_CELLS (column,
value) pairs.  A one-shot run builds and solves each system once and
gains nothing from it.

The optimum is read off the final tableau as integers over one common
denominator, reduced, which is the point `violated_rows` makes of the
returned assignment.  Before anything is returned it is checked in those
integers by the row check `violated_rows` uses: every row of the
standard form, every sign constraint, and the objective row's value
against the objective at the point.  `Fraction`s are built only for the
value and the nonzero variables returned.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from operator import mul
from typing import Callable, Hashable, Iterable, Mapping, NamedTuple, Optional

from .rational import as_rational, check_cap

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


@dataclass(slots=True)
class _Row:
    coeffs: dict[int, Fraction]
    relation: str
    rhs: Fraction
    label: str


@dataclass
class LinearProgram:
    """Named variables, sparse rows, and a linear objective.

    A program from `shared_program` also refers to its constraint system
    (`_system`), whose standard form it is solved and checked with while
    its rows and sign constraints are still the system's.
    """

    name: str = "lp"
    sense: str = "max"
    var_names: list[str] = field(default_factory=list)
    objective: dict[int, Fraction] = field(default_factory=dict)
    rows: list[_Row] = field(default_factory=list)
    nonneg: list[bool] = field(default_factory=list)
    _index: dict[str, int] = field(default_factory=dict, repr=False)
    _system: Optional[_System] = field(default=None, repr=False, compare=False)

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

    def _coefficients(self, coeffs: Mapping[int, object], label: Optional[str] = None) -> dict[int, Fraction]:
        """The nonzero coefficients as Fractions; ValueError for an index
        outside the program, naming the row `label` or the objective."""
        clean = {}
        for j, c in coeffs.items():
            c = as_rational(c)
            if not 0 <= j < len(self.var_names):
                what = "objective" if label is None else f"row {label!r}"
                raise ValueError(f"{what} references unknown variable index {j}")
            if c:
                clean[j] = c
        return clean

    def set_objective(self, coeffs: Mapping[int, object]) -> None:
        self.objective = self._coefficients(coeffs)

    def add_row(self, coeffs: Mapping[int, object], relation: str, rhs: object, label: str = "") -> None:
        if relation not in _RELATIONS:
            raise ValueError(f"relation must be one of {_RELATIONS}, got {relation!r}")
        clean = self._coefficients(coeffs, label)
        self.rows.append(_Row(coeffs=clean, relation=relation, rhs=as_rational(rhs), label=label or f"row{len(self.rows)}"))

    def _form(self) -> tuple[_StandardForm, Optional[_System]]:
        """The standard form and the shared system it is from: the
        system's while the program still has the system's rows and sign
        constraints, else one derived from its own, with no system."""
        system = self._system
        if system is not None and self.rows == system.program.rows and self.nonneg == system.program.nonneg:
            return system.form, system
        return _standard_form(self.rows, self.nonneg), None

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

    def objective_value(self, assignment: Mapping[str, object]) -> Fraction:
        nums, d = self._point(assignment)
        lcm = math.lcm(*(c.denominator for c in self.objective.values()))
        total = sum(c.numerator * (lcm // c.denominator) * nums[j] for j, c in self.objective.items())
        return Fraction(total, lcm * d)

    def violated_rows(self, assignment: Mapping[str, object]) -> list[str]:
        """Labels of all rows (and sign constraints) the point violates."""
        return self._violations(self._form()[0], *self._point(assignment))

    def _violations(
        self, form: _StandardForm, nums: list[int], d: int, objective: Optional[tuple[int, ...]] = None
    ) -> list[str]:
        """Labels of the rows and sign constraints that the point nums/d
        (numerators by variable, common denominator d > 0) violates, then
        "objective" if the point is off `objective`, a line over the
        standard-form columns read as an equality.

        Each row is checked in integers, in its standard form `form`: the
        point's numerators in the structural columns, zero in the slack
        and artificial ones, and minus d against the right-hand side give
        the row's residual times a positive factor.
        """
        point = [0] * (form.total + 1)  # point[RHS] is the last entry
        for (plus, _), v in zip(form.col_of, nums):
            point[plus] = v  # a free variable's minus column stays zero
        point[RHS] = -d
        at = point.__getitem__
        bad = []
        for row, line, relation in zip(self.rows, form.lines, form.relations):
            residual = sum(map(mul, line[1::2], map(at, line[::2])))
            if not (residual == 0 if relation == EQ else residual <= 0 if relation == LE else residual >= 0):
                bad.append(row.label)
        for j, is_nonneg in enumerate(self.nonneg):
            if is_nonneg and nums[j] < 0:
                bad.append(f"nonneg({self.var_names[j]})")
        if objective is not None and sum(map(mul, objective[1::2], map(at, objective[::2]))):
            bad.append("objective")
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


def _eliminate(
    row: dict[int, int], den: int, items: Iterable[tuple[int, int]], q: int, col: int
) -> tuple[dict[int, int], int]:
    """row/den minus row[col]/den times the pivot row, whose stored
    (column, numerator) pairs are `items` over its denominator q, the
    numerator of its entry 1 in `col`.

    Only the pivot row's stored columns change, and entries that cancel
    are removed.  Mutates `row` when the denominator stays the same; a
    row over denominator 1 is already reduced.
    """
    m = row[col]
    if q != 1:  # row gets m/g times the pivot row, both scaled by s = q/g
        g = math.gcd(m, q)
        if g != q:
            s = q // g
            row = {j: v * s for j, v in row.items()}
            den *= s
        m //= g
    get = row.get
    for j, p in items:
        v = get(j, 0) - m * p
        if v:
            row[j] = v
        else:
            del row[j]
    return (row, 1) if den == 1 else _reduce(row, den)


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

    def copy(self) -> _Tableau:
        """Its rows, denominators and basis, copied for a phase 2 of its own."""
        return _Tableau([dict(row) for row in self.rows], list(self.dens), list(self.basis))

    def pivot(self, row: int, col: int, hits: Optional[list[int]] = None) -> None:
        """Make `col` basic in `row`, eliminating it from the rows that store
        it (`hits`, as `leaving(col)` returns them, or else a scan) and from
        the objective row."""
        rows, dens = self.rows, self.dens
        if hits is None:
            hits = [i for i, other in enumerate(rows) if col in other]
        prow, q = rows[row], dens[row]
        piv = prow[col]
        if piv != q:  # the pivot element is not 1
            if piv < 0:  # phase-1 drive-out pivots may be negative
                prow, piv = {j: -v for j, v in prow.items()}, -piv
            prow, q = _reduce(prow, piv)
            rows[row], dens[row] = prow, q
        items = list(prow.items())
        for i in hits:
            if i != row:
                rows[i], dens[i] = _eliminate(rows[i], dens[i], items, q, col)
        if col in self.obj:
            self.obj, self.obj_den = _eliminate(self.obj, self.obj_den, items, q, col)
        self.basis[row] = col

    def set_objective(self, cost: dict[int, int], den: int) -> None:
        """Reduced costs of `cost`/`den` (nonzero entries by column) for the basis."""
        obj = dict(cost)
        for prow, q, b in zip(self.rows, self.dens, self.basis):
            if b in obj:
                obj, den = _eliminate(obj, den, prow.items(), q, b)
        self.obj, self.obj_den = obj, den

    def entering(self, ncols: int, bland: bool) -> Optional[int]:
        """The lowest column of largest positive reduced cost (Dantzig), or
        with `bland` the lowest column of positive reduced cost."""
        best_j, best = ncols, 0
        if bland:
            for j, v in self.obj.items():
                if v > 0 and 0 <= j < best_j:
                    best_j = j
        else:
            for j, v in self.obj.items():
                if v > 0 and 0 <= j < ncols and (v > best or v == best and j < best_j):
                    best_j, best = j, v
        return best_j if best_j < ncols else None

    def leaving(self, col: int) -> tuple[Optional[int], list[int]]:
        """(row, hits): the minimum ratio rhs/a over a > 0, ties to the
        lowest basis index, and the rows that store `col`, for the pivot.

        A row's denominator cancels in its ratio, and the ratios compare
        by cross-multiplication.
        """
        rows, basis = self.rows, self.basis
        hits = [i for i, row in enumerate(rows) if col in row]
        best_rhs = best_a = 0
        best_row = None
        for i in hits:
            row = rows[i]
            a = row[col]
            if a > 0:
                rhs = row.get(RHS, 0)
                if best_row is None:
                    best_rhs, best_a, best_row = rhs, a, i
                    continue
                cross, best_cross = rhs * best_a, best_rhs * a  # rhs/a against best_rhs/best_a
                if cross < best_cross or (cross == best_cross and basis[i] < basis[best_row]):
                    best_rhs, best_a, best_row = rhs, a, i
        return best_row, hits

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
            row, hits = self.leaving(col)
            if row is None:
                return "unbounded", pivots_done
            pivots_done += 1
            if pivots_done > max_pivots:
                raise PivotLimitError(f"pivot limit {max_pivots} exceeded")
            before, before_den = self.obj.get(RHS, 0), self.obj_den
            self.pivot(row, col, hits)
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
    tab: Optional[_Tableau] = None


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
    return _PhaseOne(run_pivots, pivots, _Tableau(tab.rows, tab.dens, tab.basis))


class _StandardForm(NamedTuple):
    """A constraint system in integers: free variables split, right-hand
    sides made nonnegative, a slack column for each <= and >= row and an
    artificial column for each == and >= row.
    """

    col_of: tuple[tuple[int, int], ...]  # (plus column, minus column or -1) per variable
    relations: tuple[str, ...]  # per row, after the sign flip
    basis: tuple[int, ...]  # the slack or artificial column of each row
    art_base: int  # the first artificial column
    total: int  # the column count
    dens: tuple[int, ...]  # the positive denominator of each row
    lines: tuple[tuple[int, ...], ...]  # each row as (column, numerator, ...), its right-hand side under RHS

    def tableau(self) -> _Tableau:
        return _Tableau([dict(zip(line[::2], line[1::2])) for line in self.lines], list(self.dens), list(self.basis))

    def cells(self) -> int:
        """The (column, value) pairs of its rows."""
        return sum(map(len, self.lines)) // 2


def _standard_form(rows: list[_Row], nonneg: list[bool]) -> _StandardForm:
    col_of: list[tuple[int, int]] = []
    ncols = 0
    for flag in nonneg:
        if flag:
            col_of.append((ncols, -1))
            ncols += 1
        else:
            col_of.append((ncols, ncols + 1))
            ncols += 2
    n_struct = ncols

    flips = [row.rhs < 0 for row in rows]
    relations = tuple(
        {LE: GE, GE: LE, EQ: EQ}[row.relation] if flip else row.relation
        for row, flip in zip(rows, flips)
    )
    n_slack = sum(1 for r in relations if r in (LE, GE))
    slack_base = n_struct
    art_base = n_struct + n_slack
    total = art_base + sum(1 for r in relations if r in (EQ, GE))

    lines: list[tuple[int, ...]] = []
    dens: list[int] = []
    basis: list[int] = []
    s_idx = a_idx = 0
    for row, flip, rel in zip(rows, flips, relations):
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
        lines.append(tuple(chain.from_iterable(line.items())))
        dens.append(den)
    return _StandardForm(tuple(col_of), relations, tuple(basis), art_base, total, tuple(dens), tuple(lines))


@dataclass(slots=True, eq=False)
class _System:
    """A constraint system shared by programs that differ only in name and
    objective: its memo key (build, *fields), the program it was built as,
    never handed out, its standard form, the (column, value) pairs the
    memo counts for it, and phase 1's outcome once a solve has kept it."""

    key: tuple
    program: LinearProgram
    form: _StandardForm
    cells: int = 0
    phase_one: Optional[_PhaseOne] = None


# (column, value) pairs the memo holds, at 60-85 bytes each: the rows of its
# shared constraint systems, as Fractions and in standard form, and the
# tableaux of their phase-1 outcomes.  The `lp` benchmark's 18 systems take
# 22k and their phase-1 tableaux 17k; LP2 on z0z1 at n = 3 takes 7k + 5k
# (causal) and 4k + 4k (non-causal).
_SYSTEM_CELLS = 100_000


class _SystemMemo:
    """Shared constraint systems by (build, *fields), each with its phase-1
    outcome once kept: least recently used first, evicted beyond
    _SYSTEM_CELLS, and none stored that is above it alone."""

    def __init__(self) -> None:
        self.entries: OrderedDict[tuple, _System] = OrderedDict()
        self.cells = 0

    def get(self, key: tuple) -> Optional[_System]:
        system = self.entries.get(key)
        if system is not None:
            self.entries.move_to_end(key)
        return system

    def put(self, system: _System, cells: int) -> bool:
        """Count `cells` more pairs for `system`, new or stored, and store
        it as the most recently used entry; False, with nothing stored or
        counted, when it would go above the bound."""
        if system.cells + cells > _SYSTEM_CELLS:
            return False
        system.cells += cells
        self.cells += cells
        self.entries[system.key] = system
        self.entries.move_to_end(system.key)
        while self.cells > _SYSTEM_CELLS:
            self.cells -= self.entries.popitem(last=False)[1].cells
        return True


_SYSTEMS = _SystemMemo()


def shared_program(name: str, build: Callable[..., LinearProgram], *fields: Hashable) -> LinearProgram:
    """A program named `name`, without objective, over the constraint
    system of build(*fields), which it shares with every other program of
    the same (build, *fields).

    `build` must depend on its fields alone: the variables and rows of the
    program it returns (not its name or objective) and their standard form
    are made once and kept in the memo.  The program returned gets its own
    variable, sign and row lists over the shared rows, which nothing
    changes in place: add_var, add_row, set_objective or a new `rows`
    change that program alone, and solve_exact and violated_rows use the
    system's standard form and phase 1 only while the program's rows and
    sign constraints are still the system's.
    """
    key = (build, *fields)
    system = _SYSTEMS.get(key)
    if system is None:
        template = build(*fields)
        form = _standard_form(template.rows, template.nonneg)
        system = _System(key, template, form)
        _SYSTEMS.put(system, sum(len(row.coeffs) for row in template.rows) + form.cells())
    template = system.program
    return LinearProgram(
        name=name,
        sense=template.sense,
        var_names=list(template.var_names),
        rows=list(template.rows),
        nonneg=list(template.nonneg),
        _index=dict(template._index),
        _system=system,
    )


def _feasible_tableau(form: _StandardForm, system: Optional[_System], max_pivots: int) -> tuple[int, Optional[_Tableau]]:
    """(pivots so far, tableau in a feasible basis or None if there is
    none) of `form`, the standard form of `system` or of no shared system.

    The phase 1 of a system is kept, and used, only while the memo stores
    the system.  A hit returns a copy, as phase 2 updates rows in place,
    and raises PivotLimitError whenever the cold run would have.
    """
    stored = system is not None and _SYSTEMS.get(system.key) is system
    found = system.phase_one if stored else None
    if found is None:
        found = _phase_one(form.tableau(), form.art_base, form.total, max_pivots)
        cells = sum(map(len, found.tab.rows)) if found.tab else 0
        if not stored or not _SYSTEMS.put(system, cells):
            return found.pivots, found.tab  # phase 2 goes on in phase 1's tableau
        system.phase_one = found
    elif found.run_pivots > max_pivots:
        raise PivotLimitError(f"pivot limit {max_pivots} exceeded")
    return found.pivots, found.tab and found.tab.copy()


def solve_exact(lp: LinearProgram, max_pivots: int = 200_000) -> SimplexSolution:
    """Solve to exact rational optimality (or report infeasible/unbounded).

    Raises ValueError before any work for a negative `max_pivots`, and
    before the first pivot for a tableau past MAX_TABLEAU_CELLS.
    """
    if lp.sense not in ("max", "min"):
        raise ValueError(f"sense must be 'max' or 'min', got {lp.sense!r}")
    if max_pivots < 0:
        raise ValueError(f"max_pivots must be >= 0, got {max_pivots}")
    negate = lp.sense == "min"

    form, system = lp._form()
    art_base, total = form.art_base, form.total
    cells = len(form.lines) * total
    check_cap(MAX_TABLEAU_CELLS, 0, lambda: cells, f"the {len(form.lines)} x {total} tableau of {lp.name!r}", "cells")
    if art_base == total:  # no artificial column: the slack basis is feasible
        pivots, tab = 0, form.tableau()
    else:
        pivots, tab = _feasible_tableau(form, system, max_pivots)
        if tab is None:
            return SimplexSolution(status="infeasible", value=None, assignment={}, pivots=pivots)
        total = art_base
    col_of = form.col_of

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

    # the optimum as integers over one common denominator, reduced so that
    # it is the point `_point` makes of the returned assignment
    rhs = [0] * total
    dens = [1] * total
    for row, den, b in zip(tab.rows, tab.dens, tab.basis):
        rhs[b], dens[b] = row.get(RHS, 0), den
    d = math.lcm(*(den for v, den in zip(rhs, dens) if v))
    nums = [
        rhs[plus] * (d // dens[plus]) - (rhs[minus] * (d // dens[minus]) if minus >= 0 else 0)
        for plus, minus in col_of
    ]
    g = math.gcd(d, *nums)
    if g != 1:
        nums, d = [v // g for v in nums], d // g
    # the objective row stores -z over obj_den, and cost . x / cost_den must be z / obj_den
    z = -tab.obj.get(RHS, 0)
    objective = (*chain.from_iterable((j, c * tab.obj_den) for j, c in cost.items()), RHS, z * cost_den)
    bad = lp._violations(form, nums, d, objective)
    if bad:
        raise AssertionError(f"solver returned an infeasible or mismatched point; violated: {bad[:5]}")
    assignment = {name: Fraction(v, d) for name, v in zip(lp.var_names, nums) if v}
    value = Fraction(-z if negate else z, tab.obj_den)
    return SimplexSolution(status="optimal", value=value, assignment=assignment, pivots=pivots)
