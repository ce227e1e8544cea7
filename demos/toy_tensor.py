"""
A hand-built four-message scheme that never errs
================================================

The smallest fully worked instance: the product channel y = x*s over
three uses, with states drawn uniformly from the three blocks that
contain exactly one zero.  The channel erases exactly the position the
acceptance test ignores, so the receiver recovers the message with
probability one — and the scheme tensor still satisfies every
non-signaling and causality condition cell by cell.
"""

from dataclasses import replace
from fractions import Fraction

from nscoding import (
    builtin_product_xs,
    tensor_success,
    toy_product_scheme,
    verify_conditions,
)

tensor = toy_product_scheme()
tensor.validate()
print(f"tensor: {tensor.message_count} messages, {tensor.n} uses, "
      f"{tensor.entries.size} cells")

# All conditions checked exhaustively in exact arithmetic: the guess
# marginal ignores the outputs, the input marginal ignores message and
# states, and inputs up to any split ignore the states after it.
report = verify_conditions(tensor)
print(f"invariance conditions: {'pass' if report.all_pass() else 'FAIL'}")

# Before conditioning on acceptance, every guess is uniform.
marginal_ok = bool((tensor.message_marginals() == Fraction(1, 4)).all())
print(f"guess marginal uniform at 1/4: {marginal_ok}")

# On the matching channel and correlated state source, the decoder's
# guess equals the sent message with probability exactly one.
ch = builtin_product_xs()
print(f"success probability = {tensor_success(tensor, ch)}")

# The guarantee leans on the source: a block outside the supported set,
# like (0,0,1), wipes a position the test checks, halving acceptance on
# that block and dragging success down to 3/4.
from nscoding import BlockStateSource

skew = BlockStateSource(
    n=3,
    atoms=(((0, 1, 1), Fraction(1, 2)), ((0, 0, 1), Fraction(1, 2))),
)
print(f"success under a mismatched source = {tensor_success(tensor, replace(ch, block_state=skew))}")
