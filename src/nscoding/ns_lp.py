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
together with the binary-alphabet relaxation/dual pair used to certify
the 13/16 bound and the published certificate point.

Reference instances of invariance rows (the cell a row compares
against) are tautologies and are not emitted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .channels import ChannelWithState, block_outputs, builtin_z0z1, state_blocks
from .indexing import all_sequences
from .rational import as_rational
from .simplex import LinearProgram

__all__ = [
    "MAX_LP_VARIABLES",
    "build_lp1",
    "build_lp2",
    "lp1_to_lp2",
    "lp2_to_lp1",
    "build_lp3_z0z1",
    "build_lp4_z0z1",
    "certificate_point_z0z1",
    "CertificateReport",
    "verify_certificate",
]

MAX_LP_VARIABLES = 10_000

ZERO = Fraction(0)


def _check_var_budget(count: int, what: str) -> None:
    if count > MAX_LP_VARIABLES:
        raise ValueError(
            f"{what} needs {count} variables, above the exact-solver budget {MAX_LP_VARIABLES}"
        )


def _block_tables(ch: ChannelWithState, n: int) -> dict[tuple[int, int, int], Fraction]:
    """Positive block-law weights P(s^n) * N^n(y^n|x^n,s^n), keyed (x, s, y)."""
    blocks = list(state_blocks(ch, n))
    return {
        (xi, si, yi): p_s * p_y
        for xi, xs in enumerate(all_sequences(ch.x_size, n))
        for si, ss, p_s in blocks
        for yi, p_y in block_outputs(ch, xs, ss)
    }


def build_lp1(ch: ChannelWithState, M: int, n: int, causal: bool = True) -> LinearProgram:
    """Full program over z[x,wh,w,s,y] (packed indices, x-major order).

    With causal=False the per-prefix rows are dropped, leaving the
    non-causal program.
    """
    if M < 1 or n < 1:
        raise ValueError(f"M and n must be >= 1, got M={M}, n={n}")
    nx, ns, ny = ch.x_size**n, ch.s_size**n, ch.y_size**n
    _check_var_budget(nx * M * M * ns * ny, f"lp1(M={M}, n={n})")
    lp = LinearProgram(name=f"lp1[M={M},n={n},causal={causal}]", sense="max")

    var = {}
    for xi in range(nx):
        for wh in range(M):
            for w in range(M):
                for si in range(ns):
                    for yi in range(ny):
                        var[(xi, wh, w, si, yi)] = lp.add_var(f"z[{xi},{wh},{w},{si},{yi}]")

    inv_m = Fraction(1, M)
    lp.set_objective({
        var[(xi, w, w, si, yi)]: inv_m * weight
        for (xi, si, yi), weight in _block_tables(ch, n).items()
        for w in range(M)
    })

    # normalization: sum over (x, wh) equals one in every conditioning cell
    for w in range(M):
        for si in range(ns):
            for yi in range(ny):
                coeffs = {var[(xi, wh, w, si, yi)]: 1 for xi in range(nx) for wh in range(M)}
                lp.add_row(coeffs, "==", 1, f"norm[w={w},s={si},y={yi}]")

    # C1: the (x, w)-marginal over wh may not depend on y
    for xi in range(nx):
        for w in range(M):
            for si in range(ns):
                for yi in range(1, ny):
                    coeffs: dict[int, Fraction] = {}
                    for wh in range(M):
                        coeffs[var[(xi, wh, w, si, yi)]] = Fraction(1)
                        ref = var[(xi, wh, w, si, 0)]
                        coeffs[ref] = coeffs.get(ref, ZERO) - 1
                    lp.add_row(coeffs, "==", 0, f"c1[x={xi},w={w},s={si},y={yi}]")

    # C2: the wh-marginal over x may not depend on (w, s)
    for wh in range(M):
        for w in range(M):
            for si in range(ns):
                if (w, si) == (0, 0):
                    continue
                for yi in range(ny):
                    coeffs = {}
                    for xi in range(nx):
                        coeffs[var[(xi, wh, w, si, yi)]] = Fraction(1)
                        ref = var[(xi, wh, 0, 0, yi)]
                        coeffs[ref] = coeffs.get(ref, ZERO) - 1
                    lp.add_row(coeffs, "==", 0, f"c2[wh={wh},w={w},s={si},y={yi}]")

    # C3: for each prefix length i, the x-prefix marginal may not depend on
    # the states after position i
    if causal:
        for i in range(1, n):
            sx = ch.x_size ** (n - i)  # suffix block sizes
            ss = ch.s_size ** (n - i)
            for px in range(ch.x_size**i):
                for wh in range(M):
                    for w in range(M):
                        for si in range(ns):
                            if si % ss == 0:
                                continue  # reference suffix
                            ref_si = (si // ss) * ss
                            for yi in range(ny):
                                coeffs = {}
                                for tail in range(sx):
                                    xi = px * sx + tail
                                    coeffs[var[(xi, wh, w, si, yi)]] = Fraction(1)
                                    ref = var[(xi, wh, w, ref_si, yi)]
                                    coeffs[ref] = coeffs.get(ref, ZERO) - 1
                                lp.add_row(
                                    coeffs, "==", 0,
                                    f"c3[i={i},px={px},wh={wh},w={w},s={si},y={yi}]",
                                )
    return lp


def build_lp2(ch: ChannelWithState, M: int, n: int, causal: bool = True) -> LinearProgram:
    """Reduced program over r[x,y,s] and q[x,s]; same optimum as the full one."""
    if M < 1 or n < 1:
        raise ValueError(f"M and n must be >= 1, got M={M}, n={n}")
    nx, ns, ny = ch.x_size**n, ch.s_size**n, ch.y_size**n
    _check_var_budget(nx * ny * ns + nx * ns, f"lp2(M={M}, n={n})")
    lp = LinearProgram(name=f"lp2[M={M},n={n},causal={causal}]", sense="max")

    r = {}
    for xi in range(nx):
        for yi in range(ny):
            for si in range(ns):
                r[(xi, yi, si)] = lp.add_var(f"r[{xi},{yi},{si}]")
    q = {}
    for xi in range(nx):
        for si in range(ns):
            q[(xi, si)] = lp.add_var(f"q[{xi},{si}]")

    lp.set_objective({r[(xi, yi, si)]: weight for (xi, si, yi), weight in _block_tables(ch, n).items()})

    inv_m = Fraction(1, M)
    for si in range(ns):
        for yi in range(ny):
            lp.add_row({r[(xi, yi, si)]: 1 for xi in range(nx)}, "==", inv_m, f"rsum[s={si},y={yi}]")
    for si in range(ns):
        lp.add_row({q[(xi, si)]: 1 for xi in range(nx)}, "==", 1, f"qsum[s={si}]")
    for xi in range(nx):
        for yi in range(ny):
            for si in range(ns):
                lp.add_row({r[(xi, yi, si)]: 1, q[(xi, si)]: -1}, "<=", 0, f"rq[x={xi},y={yi},s={si}]")

    # causality of the diagonal weight and of the input marginal; both row
    # families descend from the per-prefix condition of the full program,
    # so the non-causal variant drops both
    if causal:
        for i in range(1, n):
            sx = ch.x_size ** (n - i)
            ss = ch.s_size ** (n - i)
            for px in range(ch.x_size**i):
                for si in range(ns):
                    if si % ss == 0:
                        continue
                    ref_si = (si // ss) * ss
                    for yi in range(ny):
                        coeffs: dict[int, Fraction] = {}
                        for tail in range(sx):
                            xi = px * sx + tail
                            coeffs[r[(xi, yi, si)]] = Fraction(1)
                            ref = r[(xi, yi, ref_si)]
                            coeffs[ref] = coeffs.get(ref, ZERO) - 1
                        lp.add_row(coeffs, "==", 0, f"rcausal[i={i},px={px},s={si},y={yi}]")
                    coeffs = {}
                    for tail in range(sx):
                        xi = px * sx + tail
                        coeffs[q[(xi, si)]] = Fraction(1)
                        ref = q[(xi, ref_si)]
                        coeffs[ref] = coeffs.get(ref, ZERO) - 1
                    lp.add_row(coeffs, "==", 0, f"qcausal[i={i},px={px},s={si}]")
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


def build_lp4_z0z1() -> LinearProgram:
    """Hand-transcribed dual of the relaxation, for the same instance.

    Variables: lam[y1,y2,s1,s2] (output-block normalization rows),
    mu[s1,s2] (input-marginal normalization rows), xi[x1,y1,y2,s1]
    (diagonal-weight causality rows, entering with sign (-1)^s2), and
    eta[x1,x2,y1,y2,s1,s2] >= 0 (r <= q rows).  Any feasible point's
    objective upper-bounds the relaxed primal.
    """
    ch = builtin_z0z1()
    lp = LinearProgram(name="lp4[z0z1,M=2,n=2]", sense="min")
    lam = {}
    for y1 in range(2):
        for y2 in range(2):
            for s1 in range(2):
                for s2 in range(2):
                    lam[(y1, y2, s1, s2)] = lp.add_var(
                        f"lam[{y1},{y2},{s1},{s2}]", nonneg=False, objective=Fraction(1, 2)
                    )
    mu = {}
    for s1 in range(2):
        for s2 in range(2):
            mu[(s1, s2)] = lp.add_var(f"mu[{s1},{s2}]", nonneg=False, objective=1)
    xi = {}
    for x1 in range(2):
        for y1 in range(2):
            for y2 in range(2):
                for s1 in range(2):
                    xi[(x1, y1, y2, s1)] = lp.add_var(f"xi[{x1},{y1},{y2},{s1}]", nonneg=False)
    eta = {}
    for x1 in range(2):
        for x2 in range(2):
            for y1 in range(2):
                for y2 in range(2):
                    for s1 in range(2):
                        for s2 in range(2):
                            eta[(x1, x2, y1, y2, s1, s2)] = lp.add_var(
                                f"eta[{x1},{x2},{y1},{y2},{s1},{s2}]"
                            )

    quarter = Fraction(1, 4)
    for x1 in range(2):
        for x2 in range(2):
            for y1 in range(2):
                for y2 in range(2):
                    for s1 in range(2):
                        for s2 in range(2):
                            rhs = quarter * ch.prob(y1, x1, s1) * ch.prob(y2, x2, s2)
                            sign = 1 if s2 == 0 else -1
                            lp.add_row(
                                {
                                    lam[(y1, y2, s1, s2)]: 1,
                                    xi[(x1, y1, y2, s1)]: sign,
                                    eta[(x1, x2, y1, y2, s1, s2)]: 1,
                                },
                                ">=",
                                rhs,
                                f"dual[x={x1}{x2},y={y1}{y2},s={s1}{s2}]",
                            )
    for x1 in range(2):
        for x2 in range(2):
            for s1 in range(2):
                for s2 in range(2):
                    coeffs = {mu[(s1, s2)]: Fraction(1)}
                    for y1 in range(2):
                        for y2 in range(2):
                            coeffs[eta[(x1, x2, y1, y2, s1, s2)]] = Fraction(-1)
                    lp.add_row(coeffs, ">=", 0, f"mubound[x={x1}{x2},s={s1}{s2}]")
    return lp


def certificate_point_z0z1() -> dict[str, Fraction]:
    """A feasible point of the dual with objective exactly 13/16.

    Every unlisted variable is zero.  Feasibility is machine-checkable
    with verify_certificate; by weak duality the point certifies that
    no causal assisted scheme for this instance succeeds with
    probability above 13/16."""
    lam = {
        (0, 0, 0, 1): "3/16",
        (0, 0, 1, 0): "1/16",
        (0, 1, 0, 1): "3/16",
        (1, 0, 0, 1): "1/16",
        (1, 0, 1, 0): "3/16",
        (1, 1, 1, 0): "3/16",
    }
    mu = {(0, 0): "1/8", (0, 1): "1/16", (1, 0): "1/8", (1, 1): "1/16"}
    xi = {
        (0, 0, 0, 0): "1/8",
        (0, 0, 1, 1): "-1/16",
        (0, 1, 0, 0): "1/16",
        (0, 1, 0, 1): "-1/16",
        (0, 1, 1, 1): "-1/8",
        (1, 0, 0, 0): "1/8",
        (1, 0, 0, 1): "-1/16",
        (1, 0, 1, 0): "1/16",
        (1, 1, 0, 0): "1/16",
        (1, 1, 0, 1): "-1/16",
        (1, 1, 1, 0): "-1/16",
        (1, 1, 1, 1): "-3/16",
    }
    eta = {
        (0, 0, 0, 0, 0, 0): "1/8",
        (0, 0, 0, 0, 0, 1): "1/16",
        (0, 0, 0, 0, 1, 0): "1/16",
        (0, 0, 0, 0, 1, 1): "1/16",
        (0, 0, 0, 1, 1, 0): "1/16",
        (0, 1, 0, 1, 0, 0): "1/8",
        (0, 1, 0, 1, 0, 1): "1/16",
        (0, 1, 0, 1, 1, 0): "1/8",
        (0, 1, 0, 1, 1, 1): "1/16",
        (1, 0, 1, 0, 0, 0): "1/16",
        (1, 0, 1, 0, 0, 1): "1/16",
        (1, 0, 1, 0, 1, 0): "1/8",
        (1, 0, 1, 0, 1, 1): "1/16",
        (1, 0, 1, 1, 0, 0): "1/16",
        (1, 1, 1, 1, 0, 0): "1/8",
        (1, 1, 1, 1, 0, 1): "1/16",
        (1, 1, 1, 1, 1, 0): "1/8",
        (1, 1, 1, 1, 1, 1): "1/16",
    }
    point: dict[str, Fraction] = {}
    for (y1, y2, s1, s2), v in lam.items():
        point[f"lam[{y1},{y2},{s1},{s2}]"] = as_rational(v)
    for (s1, s2), v in mu.items():
        point[f"mu[{s1},{s2}]"] = as_rational(v)
    for (x1, y1, y2, s1), v in xi.items():
        point[f"xi[{x1},{y1},{y2},{s1}]"] = as_rational(v)
    for (x1, x2, y1, y2, s1, s2), v in eta.items():
        point[f"eta[{x1},{x2},{y1},{y2},{s1},{s2}]"] = as_rational(v)
    return point


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
