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
13/16 certificate program, which is the causal reduced program's own dual
on the two-state binary channel at M=2, n=2, and a certificate point
derived by solving that dual exactly.

The conditions are stated once, in `CONDITIONS`: per family, the axes of
z summed and the axes along which the sums must equal their value at
index 0.  The full program's rows, the reduced program's causality rows
and `auth_scheme.verify_conditions` all read that table; a row against
its own reference cell is a tautology and is not emitted.

Only the objective depends on the channel, and so does the symmetry
group the program is solved under.  The variables and rows of each
program depend on its builder and its fields (|X|, |Y|, |S|, M, n,
causal) alone, are built from those fields and nothing else, and are
shared, with their integer standard form and phase 1, by every program
of that shape (`simplex.shared_program`); the simplex memo keeps each
such system under that key and one bound, `_SYSTEM_CELLS`.  A program
over the variable cap is refused before anything is built or kept.

A program may carry an exact `simplex.Reduction`, which `solve_exact`
solves it through (see "exact reductions" below): the program over the
orbits of the channel's per-position automorphisms, joined in the
non-causal programs by the permutations of the positions, where the state
blocks of probability 0 are also folded into one.  It is read from the
shared system's rows and shared in turn under (system, classes), the
classes being the tuple the reduction lifts with.  The lifted optimum is
checked against every row of the program itself.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np

from .channels import ChannelWithState, block_law_array, builtin_z0z1
from .rational import check_cap, check_int, int_dtype
from .simplex import RHS, LinearProgram, Reduction, shared_program, solve_exact

__all__ = [
    "MAX_LP_VARIABLES",
    "build_lp1",
    "build_lp2",
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


def _checked_shape(ch: ChannelWithState, M: int, n: int, build) -> tuple[int, int, int]:
    """(|X|^n, |S|^n, |Y|^n), once M and n are ints >= 1 and the variables of
    `build`'s system, |X|^n M^2 |S|^n |Y|^n in LP1 and |X|^n |S|^n (|Y|^n + 1) in LP2, within MAX_LP_VARIABLES."""
    check_int(M, "M", 1)
    check_int(n, "n", 1)
    x, s, y = ch.x_size, ch.s_size, ch.y_size
    lp1 = build is _lp1_system
    check_cap(MAX_LP_VARIABLES, n * math.log2(x * s * y) + 2 * lp1 * math.log2(M),
              lambda: (x * s) ** n * (M * M * y**n if lp1 else y**n + 1),
              f"{'lp1' if lp1 else 'lp2'}(M={M}, n={n})", "variables")
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
    nx, ns, ny = _checked_shape(ch, M, n, _lp1_system)
    law, den = block_law_array(ch, n)
    x, s, y = np.nonzero(law.transpose(1, 0, 2))  # the nonzero cells, x-major
    fields = (ch.x_size, ch.y_size, ch.s_size, M, n, causal)
    lp = shared_program(f"lp1[M={M},n={n},causal={causal}]", _lp1_system, *fields)
    z = np.arange(len(lp.var_names)).reshape(nx, M, M, ns, ny)
    diagonal = z[x[:, None], range(M), range(M), s[:, None], y[:, None]].tolist()  # [cell][w]
    terms = [(k, v) for keys, v in zip(diagonal, law[s, x, y].tolist()) for k in keys]
    lp.set_objective({k: Fraction(v, M * den) for k, v in terms})
    _reduce_by_orbits(lp, ch, _lp1_system, fields, terms, M * den, law)
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
    nx, ns, ny = _checked_shape(ch, M, n, _lp2_system)
    law, den = block_law_array(ch, n)
    x, s, y = np.nonzero(law.transpose(1, 0, 2))  # the nonzero cells, x-major
    fields = (ch.x_size, ch.y_size, ch.s_size, M, n, causal)
    lp = shared_program(f"lp2[M={M},n={n},causal={causal}]", _lp2_system, *fields)
    r = np.arange(nx * ny * ns).reshape(nx, ny, ns)
    terms = list(zip(r[x, y, s].tolist(), law[s, x, y].tolist()))
    lp.set_objective({k: Fraction(v, den) for k, v in terms})
    _reduce_by_orbits(lp, ch, _lp2_system, fields, terms, den, law)
    return lp


# -- exact reductions -----------------------------------------------------------
#
# `solve_exact` solves a program from `build_lp1` or `build_lp2` through the
# `Reduction` attached here, the program over one variable per class of a
# partition of its variables with each row summed per class, and checks the
# lifted optimum against every row of the program itself.  That program is
# the original one restricted to the points constant on every class, so it
# has the same optimum as soon as one optimum is constant on every class.
# The classes are the orbits of a symmetry group (Bödi, Herr, Joswig, Math.
# Program. 137, 2013), and in the non-causal programs also a fold of the
# state blocks of probability 0:
#
# * letters.  A single-letter automorphism (pi_s, pi_x, pi_y) keeps N(y|x,s)
#   and P(s); applied at one position of the blocks it maps every row of
#   either program to a row, or to a difference of two rows of its family (a
#   c1, c2 or c3 row against a reference cell the map moves).
# * positions.  The non-causal programs have no per-prefix family c3, so a
#   permutation of the n positions, applied to the x, y and s blocks at once,
#   maps each of their rows to a row.  With the letters, the classes are the
#   joint types of (x, y, s) up to the letter group.
#
# q's pairs (x, s) are put in orbits through the letter triples: (x, s) and
# (x', s') share one exactly when {orbit(x, y, s)}_y = {orbit(x', y, s')}_y,
# since an element that maps one pair onto the other maps one set onto the
# other, and one that maps (x, 0, s) into the other set maps the pair.
#
# If the objective is constant on every orbit, averaging an optimum, a
# maximum or a minimum, over the group gives one constant on every orbit.
# Non-causal LP2 is a direct sum of one program over r[x, y] and q[x] per
# state block s^n, all with the same rows: so it is enough that the
# objective is constant on each orbit's members in blocks of positive
# probability (a block source the group does not keep), and a block of
# probability 0, whose objective is 0, may take the point of any other such
# block, so that all of them share one variable per (x, y) or x.  Non-causal LP1 has the same optimum, and `_lift` maps an
# optimum of LP2 constant on its classes to one of LP1 constant on the
# matching classes of z, whose guess and message are kept.  If the objective
# is not constant on the orbits, the fold alone applies.


def _letter_orbits(sizes: tuple[int, int, int], generators) -> tuple[int, ...]:
    """Orbit labels 0, 1, ... (by first cell) of the letter triples (x, y, s),
    row-major, under the generators, by union-find."""
    X, Y, S = sizes
    parent = list(range(X * Y * S))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    for g in generators:
        for i, (x, y, s) in enumerate(itertools.product(range(X), range(Y), range(S))):
            a, b = root(i), root((g[1][x] * Y + g[2][y]) * S + g[0][s])
            parent[max(a, b)] = min(a, b)
    first: dict[int, int] = {}
    return tuple(first.setdefault(root(i), len(first)) for i in range(len(parent)))


def _block_codes(letter: np.ndarray, n: int, positions: bool) -> np.ndarray:
    """The code sum_i letter[a_i, b_i, ...] * K^(n-i) of every cell (a, b, ...)
    of block indices, K the number of letter labels: equal exactly when the
    labels agree at every position, or with `positions`, the labels sorted
    first, up to a permutation of the positions."""
    powers = np.arange(n - 1, -1, -1)
    blocks = np.indices([size**n for size in letter.shape]).reshape(letter.ndim, -1)
    labels = letter[tuple(block[:, None] // size**powers % size for block, size in zip(blocks, letter.shape))]
    if positions:
        labels.sort(axis=1)
    return (labels @ (int(letter.max()) + 1) ** powers).reshape([size**n for size in letter.shape])


def _fold(codes: np.ndarray, axis: int, zero: tuple[int, ...]) -> np.ndarray:
    """`codes` with the cells of the state blocks `zero` along `axis` coded
    by their other indices alone, above every other code."""
    codes = np.moveaxis(codes, axis, -1).copy()
    others = np.arange(codes[..., 0].size).reshape(codes.shape[:-1])
    codes[..., list(zero)] = (others + int(codes.max()) + 1)[..., None]
    return np.moveaxis(codes, -1, axis)


@functools.lru_cache(maxsize=64)
def _variable_orbits(build, fields: tuple, triples: tuple, positions: bool,
                     zero: tuple) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The class of each variable of the system build(*fields), numbered in
    order of their codes, and each class's size: `_block_codes` of the labels
    `triples` for r and z (whose guess and message are kept), and for q of
    its pairs' labels, the sets of their triples' labels; `zero` folded."""
    X, Y, S, M, n, _causal = fields
    triple = np.array(triples).reshape(X, Y, S)
    r = _fold(_block_codes(triple, n, positions), 2, zero)
    if build is _lp2_system:
        sets: dict[frozenset, int] = {}
        pair = np.array([sets.setdefault(frozenset(triple[x, :, s].tolist()), len(sets))
                         for x in range(X) for s in range(S)]).reshape(X, S)
        q = _fold(_block_codes(pair, n, positions), 1, zero) + int(r.max()) + 1
        codes = np.concatenate([r.ravel(), q.ravel()])
    else:
        cells = r.transpose(0, 2, 1)  # [x, s, y]
        codes = (np.arange(M * M).reshape(1, M, M, 1, 1) * (int(cells.max()) + 1) + cells[:, None, None]).ravel()
    _, orbit, size = np.unique(codes, return_inverse=True, return_counts=True)
    return tuple(orbit.reshape(-1).tolist()), tuple(size.tolist())


def _orbit_system(build, fields: tuple, orbit: tuple[int, ...]) -> LinearProgram:
    """The system build(*fields), whose variables are all nonnegative, summed
    over the classes `orbit` (each variable's class): a variable per class,
    named after its first member, and each row summed per class in the
    integers of its standard form and built from its key, an equality's first
    coefficient made positive; duplicate keys and rows every point meets go."""
    full = shared_program("", build, *fields)
    first = dict(zip(reversed(orbit), reversed(full.var_names)))  # each class's first member
    lp = LinearProgram()
    for o in range(len(first)):
        lp.add_var(first[o])
    standard = full._system.form  # a variable's column is its index
    seen = set()
    for row, line, den, relation in zip(full.rows, standard.lines, standard.dens, standard.relations):
        sums: dict[int, int] = {}
        rhs = 0
        for col, v in zip(line[::2], line[1::2]):
            if col == RHS:
                rhs = v
            elif col < len(orbit):
                sums[orbit[col]] = sums.get(orbit[col], 0) + v
        items = tuple(sorted((o, v) for o, v in sums.items() if v))
        if not items and (rhs == 0 or relation == "<="):
            continue  # 0 == 0 or 0 <= rhs, with rhs >= 0, holds everywhere
        if relation == "==" and items and items[0][1] < 0:
            items, rhs = tuple((o, -v) for o, v in items), -rhs
        key = (items, relation, rhs, den)
        if key not in seen:
            seen.add(key)
            lp.add_row({o: Fraction(v, den) for o, v in items}, relation, Fraction(rhs, den), row.label)
    return lp


def _reduce_by_orbits(lp: LinearProgram, ch: ChannelWithState, build, fields: tuple, terms: list[tuple[int, int]],
                      den: int, law: np.ndarray) -> None:
    """Attach the reduction to `lp`, over the system build(*fields), with
    objective k: v / den over `terms` and block law `law`: over the orbits of
    the letter group, joined by the positions when non-causal, if that group
    is nontrivial and the objective is constant on every class; else, when
    non-causal, over the fold of the blocks of probability 0 alone, if any.
    With the kernel kept, only a block source can make the objective vary."""
    order, generators = ch.automorphisms
    n, causal = fields[4:]
    zero = () if causal else tuple(np.flatnonzero((law == 0).all(axis=(1, 2))).tolist())
    group = order**n * (1 if causal else math.factorial(n))
    candidates = [(generators, not causal, group)] if group > 1 else []
    if zero:
        candidates.append(((), False, 1))
    for generators, positions, group in candidates:
        orbit, size = _variable_orbits(build, fields, _letter_orbits(fields[:3], generators), positions, zero)
        values: dict[int, int] = {}
        if all(values.setdefault(orbit[k], v) == v for k, v in terms) and (
                len(terms) == sum(size[o] for o in values)):  # no class with a zero and a nonzero
            reduced = shared_program(f"{lp.name}/orbits", _orbit_system, build, fields, orbit)
            reduced.objective = {o: Fraction(v * size[o], den) for o, v in values.items()}
            lp._reduction = Reduction(reduced, orbit, dict(lp.objective), group)
            return


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


# -- binary worked instance: the dual certificate -----------------------------


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
    """The dual of the causal reduced program for the two-state binary
    channel at M=2, n=2: any feasible point's objective upper-bounds the
    causal optimum, 13/16."""
    return dual_of(build_lp2(builtin_z0z1(), M=2, n=2))


def certificate_point_z0z1() -> dict[str, Fraction]:
    """A feasible point of the dual with objective exactly 13/16: the
    exact simplex optimum of `build_lp4_z0z1`, its nonzero entries keyed
    by the causal reduced program's rows.

    Feasibility is machine-checkable with verify_certificate; by weak
    duality the point certifies that no causal assisted scheme for this
    instance succeeds with probability above 13/16."""
    return solve_exact(build_lp4_z0z1()).assignment


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
