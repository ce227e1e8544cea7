"""Causal mapping of a sequence onto a fixed output type.

The mapper walks the input once and copies each symbol while that
symbol's budget lasts, emits the placeholder once the budget is gone
(while placeholder slots last), and after both run out degrades to
filling the remaining budgeted slots in alphabet order.  The output
composition is therefore always exactly (t_0, ..., t_{k-1}, t_extra)
regardless of the input — only the *positions* depend on the data — and
the decision at step i uses nothing beyond the first i input symbols.

The placeholder symbol is encoded as index ``alphabet_size``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .rational import as_distribution, as_rational, check_int

__all__ = [
    "Budgets",
    "MappedSequence",
    "budgets",
    "map_sequence",
    "map_with_budgets",
    "flag_predicate",
    "placeholder",
]


def placeholder(alphabet_size: int) -> int:
    """The placeholder ("blank") symbol index for a given alphabet."""
    return alphabet_size


@dataclass(frozen=True)
class Budgets:
    """Output composition: per-symbol slot counts plus placeholder slots.

    The slots are the whole budget: the block length n and the alphabet
    size are read off them.  Checked once, at construction.
    """

    per_symbol: tuple[int, ...]
    extra: int

    def __post_init__(self) -> None:
        self.validate()

    @property
    def n(self) -> int:
        return sum(self.per_symbol) + self.extra

    @property
    def alphabet_size(self) -> int:
        return len(self.per_symbol)

    def validate(self) -> None:
        if not self.per_symbol:
            raise ValueError("budgets for an alphabet with no symbol")
        if any(t < 0 for t in self.per_symbol) or self.extra < 0:
            raise ValueError(f"negative budget in {self}")


@dataclass(frozen=True)
class MappedSequence:
    output: tuple[int, ...]
    flag: int


def budgets(n: int, dist: Sequence[object], eps: object) -> Budgets:
    """Per-symbol budgets floor(n*(1-eps)*P(a)); the remainder is placeholder slots.

    `dist` and `eps` are exact rationals (or parseable); eps must lie
    strictly inside (0, 1).  The alphabet has one symbol per entry of
    `dist`, and n = 0 gives the empty budget.
    """
    check_int(n, "n", 0)
    eps = as_rational(eps)
    if not Fraction(0) < eps < Fraction(1):
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    probs = as_distribution(dist, "dist")
    per = tuple(math.floor(n * (1 - eps) * p) for p in probs)
    return Budgets(per_symbol=per, extra=n - sum(per))


def map_with_budgets(seq: Sequence[int], b: Budgets) -> MappedSequence:
    """Run the mapper on `seq` (a full input or any prefix of one).

    Causality makes prefix runs meaningful: the first i outputs depend
    only on the first i inputs, so mapping a prefix reproduces the
    prefix of the full run.
    """
    if len(seq) > b.n:
        raise ValueError(f"input of length {len(seq)} exceeds block length n = {b.n}")
    size = b.alphabet_size
    phi = placeholder(size)
    counts = [0] * size
    used_extra = 0
    flag = 1
    out = []
    for a in seq:
        if not 0 <= a < size:
            raise ValueError(f"symbol {a} out of range for alphabet of size {size}")
        if flag == 1 and counts[a] < b.per_symbol[a]:
            out.append(a)
            counts[a] += 1
        elif flag == 1 and used_extra < b.extra:
            out.append(phi)
            used_extra += 1
        else:
            flag = 0
            for alt in range(size):
                if counts[alt] < b.per_symbol[alt]:
                    out.append(alt)
                    counts[alt] += 1
                    break
            else:
                raise RuntimeError("no budgeted symbol left; budgets are inconsistent")
    return MappedSequence(output=tuple(out), flag=flag)


def map_sequence(n: int, dist: Sequence[object], seq: Sequence[int], eps: object) -> MappedSequence:
    """Map a full length-n sequence using budgets derived from (dist, eps)."""
    check_int(n, "n", 1)
    b = budgets(n, dist, eps)
    if len(seq) != n:
        raise ValueError(f"expected a length-{n} sequence, got length {len(seq)}")
    return map_with_budgets(seq, b)


def flag_predicate(seq: Sequence[int], b: Budgets) -> bool:
    """Whether the final flag is 1, read off the input composition.

    The mapper keeps its flag iff the input contains at least t_a copies
    of every symbol a: the total placeholder overflow then exactly fills
    the extra slots and the fallback branch is never reached.
    """
    if len(seq) != b.n:
        raise ValueError(f"expected a length-{b.n} sequence, got length {len(seq)}")
    counts = [0] * b.alphabet_size
    for a in seq:
        counts[a] += 1
    return all(c >= t for c, t in zip(counts, b.per_symbol))
