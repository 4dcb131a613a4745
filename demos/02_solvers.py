"""Time integration: Strang splitting for the power equation, interaction-
picture RK4 for the derivative equation, and the strong-form residual.

Shows mass conservation at roundoff, the measured convergence orders, and a
residual check that flags a trajectory paired with the wrong coupling.
"""

import numpy as np

from nlslab import (
    GridDescriptor,
    DNLSParams,
    NLSParams,
    SnapshotAtTime,
    dnls_evolve,
    field_from_function,
    l2_difference,
    l2_norm,
    nls_evolve,
    residual,
)

grid = GridDescriptor.centered((1024,), (0.05,))
u0 = field_from_function(grid, lambda x: 0.5 * np.exp(-0.5 * x**2))
# the quintic; n = 1 comes from the grid, which makes sigma = 2 critical
p = NLSParams(sigma=2.0, mu=1.0)

u1 = nls_evolve(u0, 0.0, 1.0, p, 1e-3)
drift = abs(l2_norm(u1) ** 2 - l2_norm(u0) ** 2) / l2_norm(u0) ** 2
print(f"split-step mass drift over 1000 steps: {drift:.2e}")

back = nls_evolve(u1, 1.0, 0.0, p, 1e-3)
print(f"time-reversal defect: {l2_difference(back, u0):.2e}")

ref = nls_evolve(u0, 0.0, 1.0, p, 0.005)
errs = [l2_difference(nls_evolve(u0, 0.0, 1.0, p, dt), ref)
        for dt in (0.04, 0.02)]
print(f"strang dt-halving error ratio: {errs[0] / errs[1]:.2f} (order 2 -> ~4)")

psi0 = field_from_function(grid, lambda x: 0.3 / np.cosh(x))
pd = DNLSParams(1.0)
ref = dnls_evolve(psi0, 0.0, 0.5, pd, 0.0025 / 8)
errs = [l2_difference(dnls_evolve(psi0, 0.0, 0.5, pd, dt), ref)
        for dt in (0.005, 0.0025)]
print(f"derivative-equation RK4 halving ratio: {errs[0] / errs[1]:.2f} (order 4 -> ~16)")

snaps = []
dnls_evolve(psi0, 0.0, 0.004, pd, 2e-3,
            observer=lambda t, f: snaps.append(SnapshotAtTime(f, t)))
print(f"strong-form residual of the solved trajectory: {residual(snaps, pd):.2e}")
print(f"same trajectory against a wrong coupling:      "
      f"{residual(snaps, DNLSParams(-1.0)):.2e}")
