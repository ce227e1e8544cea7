"""Exact linear programs for optimal assisted success probabilities.

Two equivalent formulations are provided for the best success
probability of assisted coding over a channel with state at block
length n with M messages:

* the full correlation program over variables z[x,wh,w,s,y]
  (normalization and the non-signaling conditions c1, c2 and, in the
  causal case, c3), and
* the reduced program over r[x,y,s] (diagonal weight) and q[x|s]
  (input marginal), which reaches the same optimum and is much smaller.

Both directions of the optimum-preserving variable mapping are exposed
as array maps over integer numerators, refused past the full program's
variable cap.  The lift from (r, q) to z, `_lift`, also builds every
scheme tensor of `auth_scheme`, so each is the full-program point of a
reduced point by construction.  Also here: a generic LP dual, the
binary-alphabet relaxation whose dual certifies the 13/16 bound, and a
certificate point derived by solving that dual exactly.

The conditions are stated once, in `CONDITIONS`: per family, the axes of
z summed and the axes along which the sums must equal their value at
index 0.  The full program's rows, the reduced program's causality rows
and `auth_scheme.verify_conditions` all read that table; a row against
its own reference cell is a tautology and is not emitted.

Only the objective depends on the channel.  The variables and rows of
each program depend on (form, |X|, |Y|, |S|, M, n, causal) alone, are
built from those fields and nothing else, and are shared, with their
integer standard form and phase 1, by every program of that shape
(`simplex.shared_program`); the simplex memo keeps each such system
under that key and one bound, `_SYSTEM_CELLS`.  A program over the
variable cap is refused before anything is built or kept.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

import numpy as np

from .channels import ChannelWithState, block_law_array, builtin_z0z1
from .rational import check_cap, check_int, int_dtype
from .simplex import LinearProgram, shared_program, solve_exact

__all__ = [
    "MAX_LP_VARIABLES",
    "build_lp1",
    "build_lp2",
    "lp1_to_lp2",
    "lp2_to_lp1",
    "build_lp3_z0z1",
    "build_lp4_z0z1",
    "dual_of",
    "certificate_point_z0z1",
    "CertificateReport",
    "verify_certificate",
]

MAX_LP_VARIABLES = 10_000

# the coefficients of the assisted programs' rows, shared by all of them
ZERO, ONE, MINUS_ONE = Fraction(0), Fraction(1), Fraction(-1)


def _variables(lp: LinearProgram, stem: str, *shape: int) -> np.ndarray:
    """Add stem[i,j,...] for every index of `shape` (row-major); return their indices."""
    first = len(lp.var_names)
    for cell in itertools.product(*map(range, shape)):
        lp.add_var(f"{stem}[{','.join(map(str, cell))}]")
    return np.arange(first, len(lp.var_names)).reshape(shape)


# -- the non-signaling conditions ---------------------------------------------

# The axes of z[x, wh, w, s, y] with the input and state blocks split after
# position i into a prefix and a tail (empty at i = n).
X, X_TAIL, WH, W, S, S_TAIL, Y = range(7)

# family: (summed axes, compared axes, at each 0 < i < n rather than at
# i = n).  The sums of z over the summed axes must equal, in every cell,
# the sum at index 0 along the compared axes.
CONDITIONS = {
    "c1": ((WH,), (Y,), False),  # the guess may not signal the output
    "c2": ((X, X_TAIL), (W, S, S_TAIL), False),  # the input may not signal the message or the state
    "c3": ((X_TAIL,), (S_TAIL,), True),  # the first i inputs may not see later states
}


def condition_views(family: str, a: np.ndarray, n: int, x_size: int, s_size: int):
    """Yield (i, view, reference) for each prefix length i of `family`: `a`,
    shaped like z, viewed over the axes above, and the index that slices
    its reference cells (index 0 along the compared axes) out at size 1."""
    _summed, compared, per_prefix = CONDITIONS[family]
    reference = tuple(slice(0, 1) if axis in compared else slice(None) for axis in range(7))
    nx, m_hat, m, ns, ny = a.shape
    for i in range(1, n) if per_prefix else (n,):
        yield i, a.reshape(x_size**i, nx // x_size**i, m_hat, m, s_size**i, ns // s_size**i, ny), reference


def condition_labels(family: str, i: int, shape: tuple[int, ...], flat, label=None) -> list[str]:
    """`label(fields)` for each cell at a flat index in `flat` of the
    condition view of `family` at prefix length i, of shape `shape`, with
    its summed axes at size 1.  `fields` names the cell: i and the input
    prefix px in a per-prefix family, else the input block x; then wh, w,
    the whole state block s and y, where not summed.  The default label is
    the full program's, `family[k=v,...]`."""
    summed, _compared, per_prefix = CONDITIONS[family]
    dims = [1 if axis in summed else size for axis, size in enumerate(shape)]
    at = [v.tolist() for v in np.unravel_index(np.asarray(flat, dtype=np.intp), dims)]
    at[S] = [s * dims[S_TAIL] + tail for s, tail in zip(at[S], at[S_TAIL])]
    names = {X: "px" if per_prefix else "x", WH: "wh", W: "w", S: "s", Y: "y"}
    keys, columns = zip(*((name, at[axis]) for axis, name in names.items() if axis not in summed))
    head = {"i": i} if per_prefix else {}
    cells = ({**head, **dict(zip(keys, cell))} for cell in zip(*columns))
    return [label(f) if label else f"{family}[{','.join(f'{k}={v}' for k, v in f.items())}]" for f in cells]


def _add_conditions(lp: LinearProgram, family: str, index: np.ndarray, n: int, x_size: int, s_size: int,
                    label=None) -> None:
    """Add `sum(cells) - sum(refs) == 0`, named by `condition_labels` with
    `label`, for each cell of `family` on the index array `index` (shaped
    like z) but the reference cells, by prefix length, then row-major."""
    summed = CONDITIONS[family][0]
    kept = [axis for axis in range(7) if axis not in summed]
    for i, view, reference in condition_views(family, index, n, x_size, s_size):
        cells, refs = (
            v.transpose(*kept, *summed).reshape(-1, math.prod(view.shape[a] for a in summed)).tolist()
            for v in (view, np.broadcast_to(view[reference], view.shape))
        )
        # a cell is its own reference exactly when it has the same variables
        rows = [k for k, (c, r) in enumerate(zip(cells, refs)) if c != r]
        for k, name in zip(rows, condition_labels(family, i, view.shape, rows, label)):
            coeffs = dict.fromkeys(cells[k], ONE)
            for j in refs[k]:
                coeffs[j] = ZERO if j in coeffs else MINUS_ONE
            lp.add_row(coeffs, "==", ZERO, name)


def _checked_shape(ch: ChannelWithState, M: int, n: int, form: str) -> tuple[int, int, int]:
    """(|X|^n, |S|^n, |Y|^n), once M and n are ints >= 1 and the variables of
    `form`, |X|^n M^2 |S|^n |Y|^n in lp1 and |X|^n |S|^n (|Y|^n + 1) in lp2, within MAX_LP_VARIABLES."""
    check_int(M, "M", 1)
    check_int(n, "n", 1)
    x, s, y = ch.x_size, ch.s_size, ch.y_size
    lp1 = form == "lp1"
    check_cap(MAX_LP_VARIABLES, n * math.log2(x * s * y) + 2 * lp1 * math.log2(M),
              lambda: (x * s) ** n * (M * M * y**n if lp1 else y**n + 1), f"{form}(M={M}, n={n})", "variables")
    return x**n, s**n, y**n


def _lp1_variables(x_size: int, y_size: int, s_size: int, M: int, n: int) -> tuple[LinearProgram, np.ndarray]:
    """A program holding only the full program's variables z[x,wh,w,s,y], and their indices."""
    lp = LinearProgram()
    return lp, _variables(lp, "z", x_size**n, M, M, s_size**n, y_size**n)


def _lp1_system(x_size: int, y_size: int, s_size: int, M: int, n: int, causal: bool) -> LinearProgram:
    """The full program's variables and rows (no objective)."""
    lp, z = _lp1_variables(x_size, y_size, s_size, M, n)
    ns, ny = z.shape[3:]

    # normalization: sum over (x, wh) equals one in every conditioning cell
    for w in range(M):
        for si in range(ns):
            for yi in range(ny):
                cells = z[:, :, w, si, yi].ravel().tolist()
                lp.add_row(dict.fromkeys(cells, ONE), "==", ONE, f"norm[w={w},s={si},y={yi}]")

    # the non-signaling conditions; the causal program adds c3
    for family in ("c1", "c2", "c3") if causal else ("c1", "c2"):
        _add_conditions(lp, family, z, n, x_size, s_size)
    return lp


def build_lp1(ch: ChannelWithState, M: int, n: int, causal: bool = True) -> LinearProgram:
    """Full program over z[x,wh,w,s,y] (packed indices, x-major order).

    With causal=False the per-prefix rows are dropped, leaving the
    non-causal program.  Its variables and rows depend on the channel's
    alphabet sizes, M, n and causal alone and are shared by every program
    of that shape (`shared_program`); the objective is the channel's.
    """
    nx, ns, ny = _checked_shape(ch, M, n, "lp1")
    law, den = block_law_array(ch, n)
    x, s, y = np.nonzero(law.transpose(1, 0, 2))  # the nonzero cells, x-major
    lp = shared_program(
        f"lp1[M={M},n={n},causal={causal}]", _lp1_system, ch.x_size, ch.y_size, ch.s_size, M, n, causal
    )
    z = np.arange(len(lp.var_names)).reshape(nx, M, M, ns, ny)
    diagonal = z[x[:, None], range(M), range(M), s[:, None], y[:, None]].tolist()  # [cell][w]
    lp.set_objective({k: Fraction(v, M * den) for keys, v in zip(diagonal, law[s, x, y].tolist()) for k in keys})
    return lp


def _lp2_variables(x_size: int, y_size: int, s_size: int, n: int) -> tuple[LinearProgram, np.ndarray, np.ndarray]:
    """A program holding only the reduced program's variables r[x,y,s] and q[x,s], and their indices."""
    nx, ns, ny = x_size**n, s_size**n, y_size**n
    lp = LinearProgram()
    return lp, _variables(lp, "r", nx, ny, ns), _variables(lp, "q", nx, ns)


def _lp2_system(x_size: int, y_size: int, s_size: int, M: int, n: int, causal: bool) -> LinearProgram:
    """The reduced program's variables and rows (no objective)."""
    lp, r, q = _lp2_variables(x_size, y_size, s_size, n)
    nx, ny, ns = r.shape

    inv_m = Fraction(1, M)
    for si in range(ns):
        for yi in range(ny):
            lp.add_row(dict.fromkeys(r[:, yi, si].tolist(), ONE), "==", inv_m, f"rsum[s={si},y={yi}]")
    for si in range(ns):
        lp.add_row(dict.fromkeys(q[:, si].tolist(), ONE), "==", ONE, f"qsum[s={si}]")
    for xi in range(nx):
        for yi in range(ny):
            for si in range(ns):
                coeffs = {int(r[xi, yi, si]): ONE, int(q[xi, si]): MINUS_ONE}
                lp.add_row(coeffs, "<=", ZERO, f"rq[x={xi},y={yi},s={si}]")

    # causality of the diagonal weight and of the input marginal: c3 on r
    # and q read as z with one guess and one message.  q rides as one more
    # output after r's, so each state's rcausal rows and its qcausal row come
    # together; the non-causal variant drops both families
    if causal:
        rq = np.concatenate([r.transpose(0, 2, 1), q[:, :, None]], axis=2)[:, None, None]
        _add_conditions(lp, "c3", rq, n, x_size, s_size, lambda f: (
            f"rcausal[i={f['i']},px={f['px']},s={f['s']},y={f['y']}]" if f["y"] < ny
            else f"qcausal[i={f['i']},px={f['px']},s={f['s']}]"
        ))
    return lp


def build_lp2(ch: ChannelWithState, M: int, n: int, causal: bool = True) -> LinearProgram:
    """Reduced program over r[x,y,s] and q[x,s]; same optimum as the full
    one.  Like `build_lp1`, it shares its variables and rows with every
    program of its shape and takes its objective from the channel."""
    nx, ns, ny = _checked_shape(ch, M, n, "lp2")
    law, den = block_law_array(ch, n)
    x, s, y = np.nonzero(law.transpose(1, 0, 2))  # the nonzero cells, x-major
    lp = shared_program(
        f"lp2[M={M},n={n},causal={causal}]", _lp2_system, ch.x_size, ch.y_size, ch.s_size, M, n, causal
    )
    r = np.arange(nx * ny * ns).reshape(nx, ny, ns)
    lp.set_objective({k: Fraction(v, den) for k, v in zip(r[x, y, s].tolist(), law[s, x, y].tolist())})
    return lp


def _lift(r: np.ndarray, q: np.ndarray, M: int) -> np.ndarray:
    """The full-program point z[x,wh,w,s,y] of the reduced point (r[x,s,y],
    q[x,s]), integer arrays over one denominator D: r * (M - 1) where wh = w
    and q - r elsewhere, over D * (M - 1); just r, over D, at M = 1.  Its
    dtype is `int_dtype` of the largest sum of |z| over (x, wh), which is
    the denominator at a point of the reduced program."""
    off = q[..., None] - r
    diagonal = r * (M - 1) if M > 1 else r
    bound = int((abs(diagonal) + abs(off) * (M - 1)).sum(axis=0).max())
    z = np.empty((r.shape[0], M, M, *r.shape[1:]), dtype=int_dtype(bound, M * M * r.size))
    z[:] = off[:, None, None]
    z[:, range(M), range(M)] = diagonal[:, None]
    return z


def lp1_to_lp2(ch: ChannelWithState, M: int, n: int, z_point: Mapping[str, object]) -> dict[str, Fraction]:
    """Map a full-program point to the reduced variables: r averages the
    diagonal (wh = w) cells over w, and q also sums over wh, at the reference
    output block (any output gives the same number at a point that satisfies
    the invariance rows).  A name the full program lacks is a ValueError."""
    nx, ns, ny = _checked_shape(ch, M, n, "lp1")
    nums, d = _lp1_variables(ch.x_size, ch.y_size, ch.s_size, M, n)[0]._point(z_point)
    z = np.array(nums, dtype=object).reshape(nx, M, M, ns, ny)
    r, q = np.trace(z, axis1=1, axis2=2).transpose(0, 2, 1), z[..., 0].sum(axis=(1, 2))  # r[x, y, s], q[x, s]
    names = _lp2_variables(ch.x_size, ch.y_size, ch.s_size, n)[0].var_names
    return {name: Fraction(v, d * M) for name, v in zip(names, [*r.flat, *q.flat]) if v}


def lp2_to_lp1(ch: ChannelWithState, M: int, n: int, rq_point: Mapping[str, object]) -> dict[str, Fraction]:
    """Map a reduced-program point back to the full variables by `_lift`:
    diagonal cells carry r, and off-diagonal cells split the leftover q - r
    evenly over the M - 1 wrong guesses.  A name the reduced program lacks
    is a ValueError."""
    nx, ns, ny = _checked_shape(ch, M, n, "lp1")
    nums, d = _lp2_variables(ch.x_size, ch.y_size, ch.s_size, n)[0]._point(rq_point)
    r, q = np.split(np.array(nums, dtype=object), [nx * ny * ns])
    z = _lift(r.reshape(nx, ny, ns).transpose(0, 2, 1), q.reshape(nx, ns), M)
    names = _lp1_variables(ch.x_size, ch.y_size, ch.s_size, M, n)[0].var_names
    return {name: Fraction(int(v), d * max(M - 1, 1)) for name, v in zip(names, z.flat) if v}


# -- binary worked instance: relaxation and dual certificate ---------------


def build_lp3_z0z1() -> LinearProgram:
    """The causal reduced program for the two-state binary channel at
    M=2, n=2 with only the input-marginal (q) causality rows dropped.

    Dropping rows can only enlarge the feasible region, so this
    relaxation upper-bounds the causal optimum; it is the primal whose
    dual the 13/16 certificate lives in.
    """
    lp = build_lp2(builtin_z0z1(), M=2, n=2, causal=True)
    lp.rows = [row for row in lp.rows if not row.label.startswith("qcausal")]
    lp.name = "lp3[z0z1,M=2,n=2]"
    return lp


def dual_of(lp: LinearProgram) -> LinearProgram:
    """The LP dual of `lp`, so that weak duality bounds its optimum.

    One dual variable per primal row, named by the row's label, and one
    dual row per primal variable, labelled dual[<variable>].  A row on
    the wrong side for the sense (>= in a max problem, <= in a min
    problem) enters negated, so its dual variable is nonnegative;
    equality rows get free dual variables, and free primal variables
    give equality dual rows.
    """
    maximize = lp.sense == "max"
    # the relation that enters negated is also the one of the dual rows
    side = ">=" if maximize else "<="
    dual = LinearProgram(name=f"dual[{lp.name}]", sense="min" if maximize else "max")
    columns: list[dict[int, Fraction]] = [{} for _ in lp.var_names]
    for row in lp.rows:
        sign = -1 if row.relation == side else 1
        y = dual.add_var(row.label, nonneg=row.relation != "==", objective=sign * row.rhs)
        for j, c in row.coeffs.items():
            columns[j][y] = sign * c
    for j, name in enumerate(lp.var_names):
        relation = side if lp.nonneg[j] else "=="
        dual.add_row(columns[j], relation, lp.objective.get(j, ZERO), f"dual[{name}]")
    return dual


def build_lp4_z0z1() -> LinearProgram:
    """The dual of the relaxation: any feasible point's objective
    upper-bounds the relaxed primal, hence the causal optimum."""
    return dual_of(build_lp3_z0z1())


def certificate_point_z0z1(lp: Optional[LinearProgram] = None) -> dict[str, Fraction]:
    """A feasible point of the dual with objective exactly 13/16: the
    exact simplex optimum of `build_lp4_z0z1`, its nonzero entries keyed
    by the relaxation's rows.  A caller that already holds that program
    passes it as `lp`, so it is not built twice.

    Feasibility is machine-checkable with verify_certificate; by weak
    duality the point certifies that no causal assisted scheme for this
    instance succeeds with probability above 13/16."""
    return solve_exact(build_lp4_z0z1() if lp is None else lp).assignment


@dataclass
class CertificateReport:
    feasible: bool
    objective: Fraction
    violated: list[str]


def verify_certificate(lp: LinearProgram, point: Mapping[str, object]) -> CertificateReport:
    """Exact feasibility check of a named point against every row of `lp`."""
    violated = lp.violated_rows(point)
    return CertificateReport(
        feasible=not violated,
        objective=lp.objective_value(point),
        violated=violated,
    )
