"""Exact linear programming over the rationals.

A small dense-tableau simplex implementation on `fractions.Fraction`
scalars: two phases, slack/artificial initialization, Dantzig pricing
that permanently falls back to Bland's anti-cycling rule after a run of
degenerate pivots, and fully deterministic tie-breaking (lowest column
index, then lowest basis index).  Optima are therefore exact rationals
and reruns are bit-identical.

Solutions are re-checked row by row against the original program
before they are returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .rational import as_rational

__all__ = [
    "LinearProgram",
    "SimplexSolution",
    "solve_exact",
    "PivotLimitError",
]

ZERO = Fraction(0)
ONE = Fraction(1)

EQ, LE, GE = "==", "<=", ">="
_RELATIONS = (EQ, LE, GE)

# pivots without objective progress tolerated before switching to Bland's rule
_DEGENERATE_STREAK = 40


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

    def var_index(self, name: str) -> int:
        return self._index[name]

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


def _pivot(tableau: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
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


def _choose_entering(obj: list[Fraction], ncols: int, allowed, bland: bool) -> Optional[int]:
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


def _choose_leaving(tableau: list[list[Fraction]], basis: list[int], col: int) -> Optional[int]:
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


def _run_simplex(
    tableau: list[list[Fraction]],
    obj: list[Fraction],
    basis: list[int],
    allowed: list[bool],
    max_pivots: int,
    pivots_done: int,
    stop_at_zero: bool = False,
) -> tuple[str, int]:
    """Maximize; `obj` holds reduced costs and obj[-1] the *negated* value.

    Storing -z keeps the objective row consistent under the same row
    operations as the constraint rows.
    """
    ncols = len(obj) - 1
    bland = False
    streak = 0
    while True:
        if stop_at_zero and obj[-1] == 0:
            return "optimal", pivots_done
        col = _choose_entering(obj, ncols, allowed, bland)
        if col is None:
            return "optimal", pivots_done
        row = _choose_leaving(tableau, basis, col)
        if row is None:
            return "unbounded", pivots_done
        pivots_done += 1
        if pivots_done > max_pivots:
            raise PivotLimitError(f"pivot limit {max_pivots} exceeded")
        before = obj[-1]
        _pivot(tableau, basis, row, col)
        m = obj[col]
        if m:
            piv_row = tableau[row]
            for j, b in enumerate(piv_row):
                if b:
                    obj[j] -= m * b
        if obj[-1] == before:
            streak += 1
            if streak >= _DEGENERATE_STREAK:
                bland = True
        else:
            streak = 0


def solve_exact(lp: LinearProgram, max_pivots: int = 200_000) -> SimplexSolution:
    """Solve to exact rational optimality (or report infeasible/unbounded)."""
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

    dense_rows: list[list[Fraction]] = []
    relations: list[str] = []
    rhs_vals: list[Fraction] = []
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
            rel = {LE: GE, GE: LE, EQ: EQ}[rel]
        dense_rows.append(dense)
        relations.append(rel)
        rhs_vals.append(rhs)

    m = len(dense_rows)
    n_slack = sum(1 for r in relations if r in (LE, GE))
    slack_base = n_struct
    art_base = n_struct + n_slack
    n_art = sum(1 for r in relations if r in (EQ, GE))
    total = art_base + n_art

    tableau: list[list[Fraction]] = []
    basis: list[int] = []
    s_idx = a_idx = 0
    art_rows: list[int] = []
    for i in range(m):
        line = dense_rows[i] + [ZERO] * (n_slack + n_art) + [rhs_vals[i]]
        rel = relations[i]
        if rel == LE:
            line[slack_base + s_idx] = ONE
            basis.append(slack_base + s_idx)
            s_idx += 1
        elif rel == GE:
            line[slack_base + s_idx] = -ONE
            s_idx += 1
            line[art_base + a_idx] = ONE
            basis.append(art_base + a_idx)
            art_rows.append(i)
            a_idx += 1
        else:
            line[art_base + a_idx] = ONE
            basis.append(art_base + a_idx)
            art_rows.append(i)
            a_idx += 1
        tableau.append(line)

    pivots = 0

    # -- phase 1: maximize minus the artificial mass -----------------------
    if n_art:
        obj = [ZERO] * (total + 1)
        for i in art_rows:
            row = tableau[i]
            for j in range(total):
                if row[j]:
                    obj[j] += row[j]
            obj[-1] += row[-1]  # obj[-1] stores -z = remaining artificial mass
        for j in range(art_base, total):
            obj[j] = ZERO
        allowed = [True] * art_base + [False] * n_art
        status, pivots = _run_simplex(tableau, obj, basis, allowed, max_pivots, pivots, stop_at_zero=True)
        if status != "optimal" or obj[-1] != 0:
            return SimplexSolution(status="infeasible", value=None, assignment={}, pivots=pivots)
        # drive surviving artificials out of the basis (or drop redundant rows)
        drop: list[int] = []
        for i in range(m):
            if basis[i] >= art_base:
                row = tableau[i]
                for j in range(art_base):
                    if row[j]:
                        pivots += 1
                        _pivot(tableau, basis, i, j)
                        break
                else:
                    drop.append(i)
        for i in reversed(drop):
            del tableau[i], basis[i]
        # strip artificial columns
        tableau = [row[:art_base] + row[-1:] for row in tableau]
        total = art_base

    # -- phase 2 ------------------------------------------------------------
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
            obj[-1] -= cb * row[-1]  # obj[-1] stores -z
    allowed = [True] * total
    status, pivots = _run_simplex(tableau, obj, basis, allowed, max_pivots, pivots)
    if status == "unbounded":
        return SimplexSolution(status="unbounded", value=None, assignment={}, pivots=pivots)

    values = [ZERO] * total
    for i, b in enumerate(basis):
        values[b] = tableau[i][-1]
    assignment: dict[str, Fraction] = {}
    for j in range(n_orig):
        plus, minus = col_of[j]
        v = values[plus] - (values[minus] if minus >= 0 else ZERO)
        if v:
            assignment[lp.var_names[j]] = v
    value = -obj[-1]
    if negate:
        value = -value

    bad = lp.violated_rows(assignment)
    if bad:  # pragma: no cover - solver self-check
        raise AssertionError(f"solver returned an infeasible point; violated rows: {bad[:5]}")
    expected = lp.objective_value(assignment)
    if expected != value:  # pragma: no cover - solver self-check
        raise AssertionError(f"objective mismatch: tableau {value}, recomputed {expected}")
    return SimplexSolution(status="optimal", value=value, assignment=assignment, pivots=pivots)
