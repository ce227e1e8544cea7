"""Tests for the integer count windows of strong typicality.

`strongly_typical` and `jointly_typical` here are the definitions,
restated literally in Fraction arithmetic: the oracles that
`typicality.count_window` (and, through it, the scheme's typicality
test in `tests/test_auth_scheme.py`) is checked against.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from nscoding.typicality import count_window, symbol_counts

H = Fraction(1, 2)


def strongly_typical(seq, dist, eps):
    """Every symbol a of the length-n block has |N(a)/n - P(a)| <= eps * P(a);
    the empty block is typical by convention."""
    n = len(seq)
    return n == 0 or all(abs(Fraction(seq.count(a), n) - p) <= eps * p for a, p in enumerate(dist))


def jointly_typical(xs, ys, dist_xy, eps):
    """Strong typicality of the paired block over the product alphabet:
    the pair (x_i, y_i) is one symbol x_i * |Y| + y_i of the flattened
    joint distribution `dist_xy[x][y]`.  Blocks of unequal lengths are
    refused, not paired up to the shorter one."""
    if len(xs) != len(ys):
        raise ValueError(f"sequence lengths differ: {len(xs)} vs {len(ys)}")
    y_size = len(dist_xy[0])
    return strongly_typical([x * y_size + y for x, y in zip(xs, ys)], [p for row in dist_xy for p in row], eps)


def typical_by_windows(seq, dist, eps):
    """Strong typicality decided the library's way: the symbol counts
    against each symbol's `count_window`."""
    windows = [count_window(len(seq), p, eps) for p in dist]
    return all(lo <= c <= hi for (lo, hi), c in zip(windows, symbol_counts(seq, len(dist))))


def test_counts():
    assert symbol_counts((0, 1, 1, 2), 3) == (1, 2, 1)
    with pytest.raises(ValueError, match="^symbol 3 out of range for alphabet of size 3$"):
        symbol_counts((0, 3), 3)


def test_joint_typicality_refuses_sequences_of_unequal_lengths():
    with pytest.raises(ValueError, match="^sequence lengths differ: 2 vs 1$"):
        jointly_typical((0, 1), (0,), ((H, 0), (0, H)), H)


def test_exact_boundary_membership():
    # n=4, p=(1/2,1/2), eps=1/2: counts must lie in [1, 3] inclusive.
    dist = (H, H)
    eps = H
    assert count_window(4, H, eps) == (1, 3)
    assert strongly_typical((0, 0, 0, 1), dist, eps)  # count 3: on the boundary
    assert not strongly_typical((0, 0, 0, 0), dist, eps)  # count 4


def test_zero_probability_symbols_forbidden():
    dist = (Fraction(1), Fraction(0))
    assert count_window(3, Fraction(0), H) == (0, 0)
    assert strongly_typical((0, 0, 0), dist, H)
    assert not strongly_typical((0, 1, 0), dist, H)


def test_empty_sequence_is_typical():
    assert strongly_typical((), (H, H), H)
    assert typical_by_windows((), (H, H), H)


def test_matches_oracle_on_random_sequences():
    rng = random.Random(7)
    dists = [
        (H, H),
        (Fraction(3, 4), Fraction(1, 4)),
        (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),
        (Fraction(9, 10), Fraction(1, 10), Fraction(0)),
    ]
    for dist in dists:
        k = len(dist)
        for _ in range(200):
            n = rng.randrange(0, 12)
            seq = tuple(rng.randrange(k) for _ in range(n))
            eps = Fraction(rng.randrange(1, 8), 8)
            assert typical_by_windows(seq, dist, eps) == strongly_typical(seq, dist, eps)


def test_joint_typicality_flattens_pairs():
    # deterministic identity channel with uniform input: diagonal joint
    joint = ((H, Fraction(0)), (Fraction(0), H))
    assert jointly_typical((0, 1), (0, 1), joint, H)
    assert jointly_typical((1, 0), (1, 0), joint, H)
    assert not jointly_typical((0, 0), (0, 0), joint, H)  # count 2 > upper bound 3/2
    assert not jointly_typical((0, 1), (0, 0), joint, H)  # hits a zero-probability cell


@st.composite
def small_fractions(draw, positive_below_one=False):
    den = draw(st.integers(2 if positive_below_one else 1, 8))
    lo, hi = (1, den - 1) if positive_below_one else (0, den)
    return Fraction(draw(st.integers(lo, hi)), den)


# Each example puts n * p * (1 - eps) and n * p * (1 + eps) on integers.
@example(n=8, p=Fraction(1, 4), eps=Fraction(1, 2))
@example(n=12, p=Fraction(1, 3), eps=Fraction(1, 4))
@example(n=4, p=Fraction(1, 2), eps=Fraction(1, 2))
@example(n=6, p=Fraction(0), eps=Fraction(1, 3))
@given(st.integers(0, 12), small_fractions(), small_fractions(positive_below_one=True))
def test_count_windows_decide_strong_typicality(n, p, eps):
    # A binary block with c zeros is typical exactly when both symbol
    # counts lie in their integer windows, for every c in 0..n.
    windows = [count_window(n, p, eps), count_window(n, 1 - p, eps)]
    for c in range(n + 1):
        seq = (0,) * c + (1,) * (n - c)
        in_windows = all(lo <= k <= hi for (lo, hi), k in zip(windows, (c, n - c)))
        assert strongly_typical(seq, (p, 1 - p), eps) == in_windows
