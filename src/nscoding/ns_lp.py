"""Exact linear programs for optimal assisted success probabilities.

Two equivalent formulations are provided for the best success
probability of assisted coding over a channel with state at block
length n with M messages:

* the full correlation program over variables z[x,wh,w,s,y]
  (normalization, two marginal-invariance conditions, and — in the
  causal case — per-prefix invariance of the input marginal under
  future states), and
* the reduced program over r[x,y,s] (diagonal weight) and q[x|s]
  (input marginal), which reaches the same optimum and is much smaller.

Both directions of the optimum-preserving variable mapping are exposed,
together with a generic LP dual, the binary-alphabet relaxation whose
dual certifies the 13/16 bound, and a certificate point derived by
solving that dual exactly.

Reference instances of invariance rows (the cell a row compares
against) are tautologies and are not emitted.

Only the objective depends on the channel.  The variables and rows of
each program depend on (form, |X|, |Y|, |S|, M, n, causal) alone, are
built from those fields and nothing else, and are shared, with their
integer standard form and phase 1, by every program of that shape
(`simplex.shared_program`); the simplex memo keeps each such system
under that key and one bound, `_SYSTEM_CELLS`.  A program over the
variable budget is refused before anything is built or kept.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

import numpy as np

from .channels import ChannelWithState, block_law, builtin_z0z1
from .rational import as_rational
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


def _check_var_budget(count: int, what: str) -> None:
    if count > MAX_LP_VARIABLES:
        raise ValueError(
            f"{what} needs {count} variables, above the exact-solver budget {MAX_LP_VARIABLES}"
        )


def _variables(lp: LinearProgram, stem: str, *shape: int) -> np.ndarray:
    """Add stem[i,j,...] for every index of `shape` (row-major); return their indices."""
    first = len(lp.var_names)
    for cell in itertools.product(*map(range, shape)):
        lp.add_var(f"{stem}[{','.join(map(str, cell))}]")
    return np.arange(first, len(lp.var_names)).reshape(shape)


def _same_sums(lp: LinearProgram, rows) -> None:
    """Add `sum(cells) - sum(refs) == 0` for each (label, cells, refs) of 1-D index arrays."""
    for label, cells, refs in rows:
        coeffs = dict.fromkeys(cells.tolist(), ONE)
        for j in refs.tolist():
            coeffs[j] = ZERO if j in coeffs else MINUS_ONE
        lp.add_row(coeffs, "==", ZERO, label)


def _prefixes(x_size: int, s_size: int, n: int):
    """Yield (i, px, x blocks, state pairs) for each prefix length 0 < i < n.

    The x blocks are the slice of blocks that start with the x-prefix px.
    Each state pair (si, ref) couples a state block with the block that
    shares its first i states and has the all-zero suffix; reference
    blocks themselves are skipped.
    """
    for i in range(1, n):
        sx, ss = x_size ** (n - i), s_size ** (n - i)
        states = [(si, si - si % ss) for si in range(s_size**n) if si % ss]
        for px in range(x_size**i):
            yield i, px, slice(px * sx, (px + 1) * sx), states


def _checked_shape(ch: ChannelWithState, M: int, n: int) -> tuple[int, int, int]:
    """(|X|^n, |S|^n, |Y|^n), once M and n are known to be positive."""
    if M < 1 or n < 1:
        raise ValueError(f"M and n must be >= 1, got M={M}, n={n}")
    return ch.x_size**n, ch.s_size**n, ch.y_size**n


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

    # C1: the (x, w)-marginal over wh may not depend on y
    _same_sums(lp, (
        (f"c1[x={xi},w={w},s={si},y={yi}]", z[xi, :, w, si, yi], z[xi, :, w, si, 0])
        for xi in range(nx) for w in range(M) for si in range(ns) for yi in range(1, ny)
    ))
    # C2: the wh-marginal over x may not depend on (w, s)
    _same_sums(lp, (
        (f"c2[wh={wh},w={w},s={si},y={yi}]", z[:, wh, w, si, yi], z[:, wh, 0, 0, yi])
        for wh in range(M) for w in range(M) for si in range(ns) if (w, si) != (0, 0)
        for yi in range(ny)
    ))
    # C3: for each prefix length i, the x-prefix marginal may not depend on
    # the states after position i
    if causal:
        _same_sums(lp, (
            (f"c3[i={i},px={px},wh={wh},w={w},s={si},y={yi}]",
             z[xs, wh, w, si, yi], z[xs, wh, w, ref, yi])
            for i, px, xs, states in _prefixes(x_size, s_size, n)
            for wh in range(M) for w in range(M) for si, ref in states for yi in range(ny)
        ))
    return lp


def build_lp1(ch: ChannelWithState, M: int, n: int, causal: bool = True) -> LinearProgram:
    """Full program over z[x,wh,w,s,y] (packed indices, x-major order).

    With causal=False the per-prefix rows are dropped, leaving the
    non-causal program.  Its variables and rows depend on the channel's
    alphabet sizes, M, n and causal alone and are shared by every program
    of that shape (`shared_program`); the objective is the channel's.
    """
    nx, ns, ny = _checked_shape(ch, M, n)
    _check_var_budget(nx * M * M * ns * ny, f"lp1(M={M}, n={n})")
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

    # causality of the diagonal weight and of the input marginal; both row
    # families descend from the per-prefix condition of the full program,
    # so the non-causal variant drops both
    if causal:
        _same_sums(lp, (
            row
            for i, px, xs, states in _prefixes(x_size, s_size, n)
            for si, ref in states
            for row in [
                *((f"rcausal[i={i},px={px},s={si},y={yi}]", r[xs, yi, si], r[xs, yi, ref])
                  for yi in range(ny)),
                (f"qcausal[i={i},px={px},s={si}]", q[xs, si], q[xs, ref]),
            ]
        ))
    return lp


def build_lp2(ch: ChannelWithState, M: int, n: int, causal: bool = True) -> LinearProgram:
    """Reduced program over r[x,y,s] and q[x,s]; same optimum as the full
    one.  Like `build_lp1`, it shares its variables and rows with every
    program of its shape and takes its objective from the channel."""
    nx, ns, ny = _checked_shape(ch, M, n)
    _check_var_budget(nx * ny * ns + nx * ns, f"lp2(M={M}, n={n})")
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
