"""The expansion identities F K_s(phi) = -K_{-s}(F phi), critical and
sub-critical.

The left side applies the nonlinearity along the free flow of phi, the
right side along the backward flow of F phi; their agreement under
independent quadratures is the check.  The weighted
sub-critical variant carries a |t|^(n sigma - 2) endpoint singularity,
removed exactly by the t = u^(1/(1+a)) substitution; beyond t = 1 the
panels are uniform in a power of s = 1/t.
"""

import numpy as np

from nlslab import (
    GridDescriptor,
    QuadratureSpec,
    corollary2_sides,
    field_from_function,
    l2_difference,
    l2_norm,
    subcritical_sides,
)
from nlslab.born import scalar_weighted_integral

grid = GridDescriptor.centered((1024,), (0.039,))
phi = field_from_function(grid, lambda x: np.exp(-0.5 * x**2))

print("critical identity, both half lines:")
q = QuadratureSpec(t_max=25600.0, panels=16)
for sign, (lhs, rhs) in zip((+1, -1), corollary2_sides(phi, q)):
    rel = l2_difference(lhs.field, rhs.field) / l2_norm(lhs.field)
    print(f"  sign {sign:+d}: relative side difference {rel:.2e} "
          f"(refinement {max(lhs.refinement_delta, rhs.refinement_delta):.0e}, "
          f"tail bound {lhs.tail_bound:.0e})")

print("\nsub-critical weighted identities (sigma = 1.5, weight |t|^(-1/2)):")
qs = QuadratureSpec(t_max=1e9, panels=16)
# n = 1 is phi's grid dimension: sigma = 1.5 lies in the window (1/n, 2/n)
# both signs come back; the + identities are the first pair
((i1l, i1r), (i2l, i2r)), _ = subcritical_sides(phi, 1.5, qs)
print(f"  identity 1: {l2_difference(i1l.field, i1r.field) / l2_norm(i1l.field):.2e}")
print(f"  identity 2: {l2_difference(i2l.field, i2r.field) / l2_norm(i2l.field):.2e}")

print("\nsubstitution scalar oracles:")
v = scalar_weighted_integral(lambda t: 1.0, -0.5, 1.0, 16)
print(f"  integral of t^(-1/2) over [0, 1] = {v.real:.12f}  (exact 2)")
v = scalar_weighted_integral(lambda t: 1.0 / (1.0 + t * t), 0.0, 1e9, 16)
print(f"  integral of 1/(1+t^2) over [0, 1e9] = {v.real:.12f}  "
      f"(exact arctan(1e9) = {np.arctan(1e9):.12f})")
