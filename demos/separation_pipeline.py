"""
Assisted causal coding loses to an informed receiver
====================================================

The headline separation on the two-state builtin at two channel uses
with two messages, reproduced end to end in exact arithmetic:

* assisted (non-signaling) coding with causal state access at the
  encoder tops out at 13/16 — certified twice, by solving the exact
  linear program and by a point of its dual, the dual's exact optimum,
  checked row by row;
* a plain deterministic code whose receiver also sees the states
  reaches 7/8, found both by exhaustive search and as an explicit
  two-line strategy.
"""

from nscoding import (
    build_lp2,
    build_lp4_z0z1,
    builtin_z0z1,
    classical_opt_success,
    explicit_z0z1_strategy,
    lift_csir,
    solve_exact,
    verify_certificate,
)
from nscoding.classical import encoder_table_lines

ch = builtin_z0z1()

# Upper bound, route 1: solve the reduced program exactly.
sol = solve_exact(build_lp2(ch, M=2, n=2))
print(f"assisted causal optimum (exact simplex): {sol.value}")

# Upper bound, route 2: a feasible dual point with the same objective.
# It is found by solving the dual exactly; weak duality then needs only
# its feasibility, which is checked row by row in integers.
lp4 = build_lp4_z0z1()
verdict = verify_certificate(lp4, solve_exact(lp4).assignment)
print(f"dual point feasible: {verdict.feasible}, objective {verdict.objective}")

# Lower bound, route 1: brute force over all deterministic causal
# encoders with maximum-a-posteriori decoding, receiver state-informed.
value, witness = classical_opt_success(ch, 2, 2, csir=True)
print(f"best classical code with informed receiver: {value}")
print("witness encoder (first channel use):")
for line in encoder_table_lines(witness)[:4]:
    print(f"  {line}")

# Lower bound, route 2: the explicit strategy — send the state under
# message 0 and its complement under message 1, decode by de-rotating.
strat = explicit_z0z1_strategy()
print(f"explicit strategy: success {strat.success}, per message {strat.per_message}")

# The same search run on the lifted channel (state appended to the
# output) must agree with the informed-receiver flag.
lifted_value, _ = classical_opt_success(lift_csir(ch), 2, 2)
assert lifted_value == value

gap = value - sol.value
print(f"\nseparation: {sol.value} < {value}  (gap {gap})")
