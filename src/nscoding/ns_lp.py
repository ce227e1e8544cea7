"""Exact linear programs for optimal assisted success probabilities.

Two equivalent formulations are provided for the best success
probability of assisted coding over a channel with state at block
length n with M messages:

* the full correlation program over variables z[x,wh,w,s,y]
  (normalization and the non-signaling conditions c1, c2 and, in the
  causal case, c3), and
* the reduced program over r[x,y,s] (diagonal weight) and q[x|s]
  (input marginal), which reaches the same optimum and is much smaller.

Both directions of the optimum-preserving variable mapping are exposed,
together with a generic LP dual, the binary-alphabet relaxation whose
dual certifies the 13/16 bound, and a certificate point derived by
solving that dual exactly.

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

from .channels import ChannelWithState, block_law, builtin_z0z1
from .rational import as_rational, check_cap
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
    "combined": ((X_TAIL, WH), (S_TAIL, Y), True),  # implied by c1 and c3; no LP row
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


def _add_conditions(lp: LinearProgram, family: str, index: np.ndarray, n: int, x_size: int, s_size: int, label) -> None:
    """Add `sum(cells) - sum(refs) == 0`, labelled `label(fields)`, for each
    cell of `family` on the index array `index` (shaped like z) but the
    reference cells, by prefix length, then row-major.  `fields` names the
    cell: i and the input prefix px below i = n, else the input block x;
    then wh, w, the whole state block s and y, where not summed."""
    summed = CONDITIONS[family][0]
    kept = [axis for axis in range(7) if axis not in summed]
    for i, view, reference in condition_views(family, index, n, x_size, s_size):
        at = dict(zip(kept, np.indices([view.shape[a] for a in kept]).reshape(len(kept), -1).tolist()))
        if S in at:
            at[S] = [s * view.shape[S_TAIL] + tail for s, tail in zip(at[S], at[S_TAIL])]
        names = {X: "px" if i < n else "x", WH: "wh", W: "w", S: "s", Y: "y"}
        columns = [(names[a], at[a]) for a in kept if a in names]
        rows = zip(*(
            v.transpose(*kept, *summed).reshape(len(at[kept[0]]), -1).tolist()
            for v in (view, np.broadcast_to(view[reference], view.shape))
        ))
        for k, (cells, refs) in enumerate(rows):
            if cells == refs:  # a cell is its own reference exactly when it has the same variables
                continue
            coeffs = dict.fromkeys(cells, ONE)
            for j in refs:
                coeffs[j] = ZERO if j in coeffs else MINUS_ONE
            fields = {**({"i": i} if i < n else {}), **{name: v[k] for name, v in columns}}
            lp.add_row(coeffs, "==", ZERO, label(fields))


def _checked_shape(ch: ChannelWithState, M: int, n: int, form: str) -> tuple[int, int, int]:
    """(|X|^n, |S|^n, |Y|^n), once M and n are positive and the variables of
    `form`, |X|^n M^2 |S|^n |Y|^n in lp1 and |X|^n |S|^n (|Y|^n + 1) in lp2, within MAX_LP_VARIABLES."""
    if M < 1 or n < 1:
        raise ValueError(f"M and n must be >= 1, got M={M}, n={n}")
    x, s, y = ch.x_size, ch.s_size, ch.y_size
    lp1 = form == "lp1"
    check_cap(MAX_LP_VARIABLES, n * math.log2(x * s * y) + 2 * lp1 * math.log2(M),
              lambda: (x * s) ** n * (M * M * y**n if lp1 else y**n + 1), f"{form}(M={M}, n={n})", "variables")
    return x**n, s**n, y**n


def _lp1_system(x_size: int, y_size: int, s_size: int, M: int, n: int, causal: bool) -> LinearProgram:
    """The full program's variables and rows (no objective)."""
    nx, ns, ny = x_size**n, s_size**n, y_size**n
    lp = LinearProgram()
    z = _variables(lp, "z", nx, M, M, ns, ny)

    # normalization: sum over (x, wh) equals one in every conditioning cell
    for w in range(M):
        for si in range(ns):
            for yi in range(ny):
                cells = z[:, :, w, si, yi].ravel().tolist()
                lp.add_row(dict.fromkeys(cells, ONE), "==", ONE, f"norm[w={w},s={si},y={yi}]")

    # the non-signaling conditions; the causal program adds c3
    for family in ("c1", "c2", "c3") if causal else ("c1", "c2"):
        _add_conditions(lp, family, z, n, x_size, s_size,
                        lambda f: f"{family}[{','.join(f'{k}={v}' for k, v in f.items())}]")
    return lp


def build_lp1(ch: ChannelWithState, M: int, n: int, causal: bool = True) -> LinearProgram:
    """Full program over z[x,wh,w,s,y] (packed indices, x-major order).

    With causal=False the per-prefix rows are dropped, leaving the
    non-causal program.  Its variables and rows depend on the channel's
    alphabet sizes, M, n and causal alone and are shared by every program
    of that shape (`shared_program`); the objective is the channel's.
    """
    nx, ns, ny = _checked_shape(ch, M, n, "lp1")
    law = block_law(ch, n)
    lp = shared_program(
        f"lp1[M={M},n={n},causal={causal}]", _lp1_system, ch.x_size, ch.y_size, ch.s_size, M, n, causal
    )
    z = np.arange(len(lp.var_names)).reshape(nx, M, M, ns, ny)
    inv_m = Fraction(1, M)
    lp.set_objective({
        int(z[xi, w, w, si, yi]): inv_m * weight for (xi, si, yi), weight in law.items() for w in range(M)
    })
    return lp


def _lp2_system(x_size: int, y_size: int, s_size: int, M: int, n: int, causal: bool) -> LinearProgram:
    """The reduced program's variables and rows (no objective)."""
    nx, ns, ny = x_size**n, s_size**n, y_size**n
    lp = LinearProgram()
    r = _variables(lp, "r", nx, ny, ns)
    q = _variables(lp, "q", nx, ns)

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
    law = block_law(ch, n)
    lp = shared_program(
        f"lp2[M={M},n={n},causal={causal}]", _lp2_system, ch.x_size, ch.y_size, ch.s_size, M, n, causal
    )
    r = np.arange(nx * ny * ns).reshape(nx, ny, ns)
    lp.set_objective({int(r[xi, yi, si]): weight for (xi, si, yi), weight in law.items()})
    return lp


def lp1_to_lp2(
    ch: ChannelWithState, M: int, n: int, z_point: Mapping[str, object]
) -> dict[str, Fraction]:
    """Map a full-program point to the reduced variables.

    r averages the diagonal (wh = w) cells over w; q additionally sums
    over wh, evaluated at the reference output block (any output gives
    the same number for points satisfying the invariance rows).
    """
    nx, ns, ny = ch.x_size**n, ch.s_size**n, ch.y_size**n
    z = {name: as_rational(v) for name, v in z_point.items()}

    def zval(xi, wh, w, si, yi):
        return z.get(f"z[{xi},{wh},{w},{si},{yi}]", ZERO)

    out: dict[str, Fraction] = {}
    inv_m = Fraction(1, M)
    for xi in range(nx):
        for si in range(ns):
            for yi in range(ny):
                val = inv_m * sum((zval(xi, w, w, si, yi) for w in range(M)), ZERO)
                if val:
                    out[f"r[{xi},{yi},{si}]"] = val
            qval = inv_m * sum(
                (zval(xi, wh, w, si, 0) for w in range(M) for wh in range(M)), ZERO
            )
            if qval:
                out[f"q[{xi},{si}]"] = qval
    return out


def lp2_to_lp1(
    ch: ChannelWithState, M: int, n: int, rq_point: Mapping[str, object]
) -> dict[str, Fraction]:
    """Map a reduced-program point back to the full variables.

    Diagonal cells carry r; off-diagonal cells split the leftover
    (q - r) evenly over the M - 1 wrong guesses.
    """
    nx, ns, ny = ch.x_size**n, ch.s_size**n, ch.y_size**n
    point = {name: as_rational(v) for name, v in rq_point.items()}
    out: dict[str, Fraction] = {}
    for xi in range(nx):
        for si in range(ns):
            qv = point.get(f"q[{xi},{si}]", ZERO)
            for yi in range(ny):
                rv = point.get(f"r[{xi},{yi},{si}]", ZERO)
                off = (qv - rv) / (M - 1) if M > 1 else None
                for w in range(M):
                    for wh in range(M):
                        val = rv if wh == w else off
                        if val:
                            out[f"z[{xi},{wh},{w},{si},{yi}]"] = val
    return out


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
