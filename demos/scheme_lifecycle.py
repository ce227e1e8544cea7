"""
Building and checking an authentication-style scheme
====================================================

Pipeline on a noiseless binary channel: derive the calibration numbers
(reciprocal typicality probability mu, message count M, coin bias
lambda), materialize the scheme as a conditional-probability tensor,
check the four condition families of `ns_lp.CONDITIONS` exhaustively
in exact rationals, and evaluate the success probability both exactly
and by simulation.
"""

from fractions import Fraction

from nscoding import (
    build_auth_scheme,
    compute_mu,
    make_channel,
    materialize_tensor,
    success_probability,
    verify_conditions,
)
from nscoding.auth_scheme import success_decomposition

identity = make_channel(kernel=[[[1, 0], [0, 1]]], state_dist=[1])
uniform = [[Fraction(1, 2), Fraction(1, 2)]]
eps = Fraction(1, 2)

# mu is exact: the typicality test keeps a 2-position block at n=8, and
# a uniform pair sequence of length 2 passes with probability 1/4.
mu = compute_mu(identity, uniform, 8, eps)
print(f"mu = {mu}  ->  M = ceil(mu) = 4, lambda = mu/M = {mu / 4}")

scheme = build_auth_scheme(identity, uniform, 8, eps)
print(f"kept block lengths: {scheme.kept_block_lengths()}  rate = {scheme.rate():.4f} bits/use")

# The n=8 tensor has 2^8 * 4 * 4 * 1 * 2^8 cells, integer numerators over
# one denominator; every condition is checked on every cell.
tensor = materialize_tensor(scheme)
tensor.validate()
report = verify_conditions(tensor)
print(f"n=8 tensor: {tensor.numerators.size} cells over denominator {tensor.denominator},"
      f" conditions pass = {report.all_pass()}")
print(f"n=8 guess-marginal uniform at 1/4: {bool((tensor.message_marginals() == Fraction(1, 4)).all())}")

# Exact success at n=8 (one pass of the sigma-block DP) ...
exact = success_probability(scheme, mode="exact")
print(f"n=8 exact success = {exact}")

# ... matches the seeded forward simulation within its 95% interval.
estimate, (lo, hi) = success_probability(scheme, mode="monte_carlo", samples=50_000, seed=7)
print(f"n=8 simulated    = {estimate:.4f}  CI95 [{lo:.4f}, {hi:.4f}]  contains exact: {lo <= float(exact) <= hi}")

# The three-factor lower bound (coin bias x flag probability x accept
# rate inside the flagged event) sits below the exact success.
decomp = success_decomposition(scheme)
print(f"lower bound {decomp.lower_bound()} <= success {decomp.success}: {decomp.lower_bound() <= decomp.success}")

# Longer blocks close the gap to certainty for the same message count.
for n in (4, 8, 12):
    member = build_auth_scheme(identity, uniform, n, eps, message_count=4)
    print(f"n={n:2d}  success = {success_probability(member, mode='exact')}")
