"""Strong typicality as integer count windows.

A length-n sequence is strongly typical for P at tolerance eps when
every symbol count satisfies |N(a)/n - P(a)| <= eps * P(a).  Note the
zero-probability clause this definition implies: a symbol with P(a) = 0
may not appear at all.

`count_window` states that test on integers: for a fixed length n the
admissible counts of a symbol form one window [lo, hi], decided exactly
in Fraction arithmetic, so code that tests many sequences of one length
computes the windows once and then compares plain integer counts.  The
definition itself, for single and paired sequences, is kept in
`tests/test_typicality.py` as the oracle the windows are checked against.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

__all__ = ["symbol_counts", "count_window"]


def symbol_counts(seq: Sequence[int], alphabet_size: int) -> tuple[int, ...]:
    counts = [0] * alphabet_size
    for a in seq:
        if not 0 <= a < alphabet_size:
            raise ValueError(f"symbol {a} out of range for alphabet of size {alphabet_size}")
        counts[a] += 1
    return tuple(counts)


def count_window(n: int, p: Fraction, eps: Fraction) -> tuple[int, int]:
    """The integer counts c with n*p*(1-eps) <= c <= n*p*(1+eps): lo <= c <= hi
    exactly when a count c passes; the window is empty when lo > hi."""
    return max(0, math.ceil(n * p * (1 - eps))), math.floor(n * p * (1 + eps))
