"""
Capacity cells with and without assistance
==========================================

Builds the four-cell capacity table (causal/non-causal state knowledge
at the encoder, with/without non-signaling assistance) for the built-in
two-state channel, then for its receiver-informed lift, where the four
cells collapse to a single value.
"""

import numpy as np

from nscoding import builtin_z0z1, capacity_table, lift_csir, ns_capacity

ch = builtin_z0z1()

# Assistance removes the causality penalty: both assisted cells equal
# max_{P_{X|S}} I(X;Y|S), computed per state by Blahut-Arimoto.
table = capacity_table(ch)
print("two-state builtin:")
for cell, value in table.cells().items():
    print(f"  {cell:22s} {value:.6f} bits")

# Each state of this channel is a Z-channel whose noisy input passes
# with probability 1/2; the assisted value is log2(5/4).
print(f"  assisted target       {np.log2(5 / 4):.6f} bits")

# The per-state maximizing input distributions are part of the result.
strategy = ns_capacity(ch).p_x_given_s
print("  maximizing inputs per state:")
for s, row in enumerate(strategy):
    print(f"    s={s}: P(X=1) = {row[1]:.4f}")

# Revealing the state at the receiver flattens the table: every cell
# lands on the same value, up to the solvers' tolerances.
lifted = capacity_table(lift_csir(ch))
cells = lifted.cells()
print("receiver-informed lift:")
for cell, value in cells.items():
    print(f"  {cell:22s} {value:.6f} bits")
spread = max(cells.values()) - min(cells.values())
print(f"  spread = {spread:.2e}  (flat within 1e-3: {spread < 1e-3})")
