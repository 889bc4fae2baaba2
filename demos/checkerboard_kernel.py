#!/usr/bin/env python3
"""The checkerboard amplitude calculus: derived propagators, reversal weights,
and the kernel computed two independent ways."""

import math

from causetkit import (
    CheckerboardField,
    DerivedWeighting,
    FeynmanWeighting,
    InfluenceSequence,
    Spinor,
    born,
    kernel_discrepancy,
    kernel_matrix,
    kernel_pathsum,
    path_weight,
    propagators_from_mass,
    reversal_count,
    sequence_amplitude,
    step_field,
    verify_propagator_constraints,
    zero_momentum_propagators,
)

pp = zero_momentum_propagators()
d, r, o = pp.diagonal_entry, pp.reversal_entry, 0j
for name, matrix in (("P", ((d, r), (o, o))), ("Q", ((o, o), (r, d)))):
    print(f"{name} =", *(" ".join(f"{z:.4f}" for z in row) for row in matrix), sep="\n  ")

# The matrices are fixed by requiring every one-step transition to happen
# with total probability one.
report = verify_propagator_constraints(pp)
print("constraints satisfied:", report.ok)
for name, residual in report.residuals.items():
    print(f"  {name:<22} residual {residual:.2e}")

# Every reversal of direction multiplies the amplitude by i.
seq = InfluenceSequence.from_string("PQQP", "P")
weight = path_weight(seq, DerivedWeighting(pp))
print(f"\npath PQQP (initial P): {weight.reversals} reversals,",
      f"weight {weight.weight:.4f}")
corner = path_weight(seq, FeynmanWeighting(mass=1.0, epsilon=0.1))
print(f"corner-counting weight at eps=0.1: {corner.weight:.4f}")

# Propagating a spinor through an ordered sequence is a matrix product.
out = sequence_amplitude(seq, pp, Spinor(1, 0))
print(f"spinor after PQQP: ({out.phi_p:.4f}, {out.phi_q:.4f})")

# Kernel after T steps: brute-force sum over all 2^T move strings versus
# T applications of the transfer matrix.
T = 12
left = kernel_pathsum(T, pp, "P")
right = kernel_matrix(T, pp, "P")
print(f"\nkernel depth {T}: {len(left)} endpoint cells,",
      f"max method discrepancy {kernel_discrepancy(left, right):.2e}")
# added left to right: sum() compensates float rounding from Python 3.12 on
total = 0.0
for amp in right.values():
    total += born(amp)
print("total probability:", total)

print("\nprobability by position (helicities summed), t =", T)
probs: dict[int, float] = {}
for (pos, _), amp in right.items():
    probs[pos] = probs.get(pos, 0.0) + born(amp)
peak = max(probs.values())
for pos in sorted(probs):
    bar = "#" * max(1, round(40 * probs[pos] / peak))
    print(f"  x={pos:+3d} {probs[pos]:.4f} {bar}")

# A massive particle on a fine lattice: b = sin(m*eps) makes the reversal
# amplitude i*sin(m*eps) ~ i*m*eps, and probability stays pinned to 1.
fine = propagators_from_mass(mass=1.0, epsilon=0.05)
field = CheckerboardField.point_source("P", 400)
for _ in range(400):
    field = step_field(field, fine)
print(f"\nmass bridge: reversal amplitude {fine.reversal_entry:.5f} ~ i*m*eps = 0.05j")
print(f"after 400 fine steps total probability = {field.total_probability():.12f}")
spread = [pos for pos, s in field.sites.items() if born(s.phi_p) + born(s.phi_q) > 1e-4]
print(f"support within |x| <= {max(abs(p) for p in spread)} sites "
      f"({math.ceil(400 * 0.05)} light-cone units would be {400})")
