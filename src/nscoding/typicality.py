"""Strong typicality with exact rational comparisons.

A length-n sequence is strongly typical for P at tolerance eps when
every symbol count satisfies |N(a)/n - P(a)| <= eps * P(a).  All
comparisons are done in Fraction arithmetic, so boundary cases are
decided exactly.  Note the zero-probability clause this definition
implies: a symbol with P(a) = 0 may not appear at all.

`count_window` states the same test on integers: for a fixed length n
the admissible counts of a symbol form one window [lo, hi], so code that
tests many sequences of one length computes the windows once and then
compares plain integer counts.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .rational import as_rational

__all__ = ["symbol_counts", "strongly_typical", "jointly_typical", "count_bounds", "count_window"]


def symbol_counts(seq: Sequence[int], alphabet_size: int) -> tuple[int, ...]:
    counts = [0] * alphabet_size
    for a in seq:
        if not 0 <= a < alphabet_size:
            raise ValueError(f"symbol {a} out of range for alphabet of size {alphabet_size}")
        counts[a] += 1
    return tuple(counts)


def count_bounds(n: int, p: Fraction, eps: Fraction) -> tuple[Fraction, Fraction]:
    """Admissible range [n*p*(1-eps), n*p*(1+eps)] for a symbol count."""
    return n * p * (1 - eps), n * p * (1 + eps)


def count_window(n: int, p: Fraction, eps: Fraction) -> tuple[int, int]:
    """The integer counts inside `count_bounds`: lo <= c <= hi exactly when
    a count c passes; the window is empty when lo > hi."""
    lo, hi = count_bounds(n, p, eps)
    return max(0, math.ceil(lo)), math.floor(hi)


def strongly_typical(seq: Sequence[int], dist: Sequence[object], eps: object) -> bool:
    """Exact membership test; the empty sequence is typical by convention.

    (The n = 0 case never arises asymptotically; treating it as vacuous
    keeps degenerate small-block constructions well defined.)
    """
    eps = as_rational(eps)
    probs = [as_rational(p) for p in dist]
    n = len(seq)
    if n == 0:
        return True
    counts = symbol_counts(seq, len(probs))
    for c, p in zip(counts, probs):
        lo, hi = count_bounds(n, p, eps)
        if not lo <= c <= hi:
            return False
    return True


def jointly_typical(
    xs: Sequence[int],
    ys: Sequence[int],
    dist_xy: Sequence[Sequence[object]],
    eps: object,
) -> bool:
    """Strong typicality of the paired sequence over the product alphabet.

    `dist_xy[x][y]` is the joint distribution; the pair (x_i, y_i) is
    treated as one symbol of the flattened alphabet.
    """
    if len(xs) != len(ys):
        raise ValueError(f"sequence lengths differ: {len(xs)} vs {len(ys)}")
    x_size = len(dist_xy)
    y_size = len(dist_xy[0]) if x_size else 0
    flat_dist = [dist_xy[x][y] for x in range(x_size) for y in range(y_size)]
    pairs = [x * y_size + y for x, y in zip(xs, ys)]
    return strongly_typical(pairs, flat_dist, eps)
