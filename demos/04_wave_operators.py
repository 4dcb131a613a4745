"""Numerical wave operators and the transform-exchange identity.

Computes forward and inverse wave operators for small data truncated at a
horizon T, measures how far doubling T moves them, measures the truncation
bias against the exact lens route (it falls like 1/T), and verifies that the
transform exchanges the inverse operator with the opposite-sign forward
operator (a light configuration of the full verification; the acceptance
suite runs the pinned one).  Each exchange residual is printed beside the
size of the effect it measures, || F W^{-1} phi - F phi || / || phi ||; it
passes when it is within the tolerance and below a tenth of that effect, so
that a wave operator equal to the identity would fail.  A failure exits 1.
"""

import sys

import numpy as np

from nlslab import (
    GridDescriptor,
    NLSParams,
    field_from_function,
    forward_fourier,
    inverse_wave_operator,
    l2_difference,
    lens_wave_operator,
    l2_norm,
    theorem1_sides,
    wave_operator,
)

grid = GridDescriptor.centered((2048,), (0.25,))
phi = field_from_function(
    grid, lambda x: 0.2 * np.pi**-0.25 * np.exp(-0.5 * x**2)
)
# sigma = 2/n with n = 1 from the grid: the lens route below needs it
p = NLSParams(sigma=2.0, mu=1.0)
dt = 0.02

w = wave_operator(phi, -1, p, 20.0, dt)
change = l2_difference(w, wave_operator(phi, -1, p, 10.0, dt))
print(f"forward operator at T = 20: change from T = 10 {change:.2e}")
print(f"interaction strength || W(a) - a || = {l2_difference(w, phi):.3e}")

back = inverse_wave_operator(w, -1, p, 20.0, dt)
print(f"round trip relative error: {l2_difference(back, phi) / l2_norm(phi):.2e}")

lens = lens_wave_operator(phi, -1, p, dt)
print("\nhorizon bias against the lens route (T, bias, T * bias):")
for horizon in (5.0, 10.0, 20.0):
    bias = l2_difference(wave_operator(phi, -1, p, horizon, dt), lens)
    print(f"  {horizon:5.1f}  {bias:.2e}  {horizon * bias:.2e}")

print("\ntransform-exchange identity (light config):")
tol = 1e-3
phi_hat, scale = forward_fourier(phi), l2_norm(phi)
ok = True
for name, lhs, rhs in theorem1_sides(phi, p, 30.0, dt):
    residual = l2_difference(lhs, rhs) / scale
    effect = l2_difference(lhs, phi_hat) / scale
    ok = ok and residual <= tol and residual <= 0.1 * effect
    print(f"  {name}: {residual:.2e}  (tol {tol:.0e}), effect {effect:.2e}")
print("verdict:", "pass" if ok else "fail")
sys.exit(0 if ok else 1)
