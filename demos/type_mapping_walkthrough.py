"""
Forcing every sequence onto one output type
===========================================

A causal, deterministic pass over a sequence that copies symbols while
their per-symbol budgets last, emits a placeholder once a symbol's
budget is exhausted, and — when the input can no longer fill its
budgets — falls back to filling the remaining slots in alphabet order.
The output composition is therefore the same for *every* input, and a
flag records whether any fallback was needed.
"""

from fractions import Fraction

from nscoding import budgets, flag_predicate, map_sequence, placeholder
from nscoding.type_mapping import map_with_budgets

n = 10
dist = (Fraction(3, 5), Fraction(2, 5))
eps = Fraction(1, 10)

b = budgets(n, dist, eps)
print(f"budgets for n={n}, P=(3/5, 2/5), eps=1/10:")
print(f"  copies of 0: {b.per_symbol[0]}   copies of 1: {b.per_symbol[1]}   placeholder slots: {b.extra}")
print(f"  placeholder symbol prints as {placeholder(2)}")

# A sequence with enough of both symbols: budgets fill from the input
# alone and the flag stays up.
good = (0, 1, 0, 0, 1, 1, 1, 0, 1, 0)
mapped = map_with_budgets(good, b)
print(f"\ninput  {good}")
print(f"output {mapped.output}   flag={mapped.flag}")

# One extra 1 starves the 0-budget: position 9 would need a 0-slot that
# the input cannot fill in time, so the tail is budget-filled and the
# flag drops.
bad = (0, 1, 0, 0, 1, 1, 1, 1, 1, 0)
mapped = map_with_budgets(bad, b)
print(f"\ninput  {bad}")
print(f"output {mapped.output}   flag={mapped.flag}")

# The flag is a pure function of the input's composition — check it
# against the returned flag on a few inputs without re-running the map.
for seq in (good, bad, (0,) * 10, (1,) * 10):
    assert int(flag_predicate(seq, b)) == map_with_budgets(seq, b).flag
print("\nflag == composition predicate on all four sample inputs")

# Convenience entry point: budgets derived on the fly.
print(map_sequence(10, dist, good, eps))
