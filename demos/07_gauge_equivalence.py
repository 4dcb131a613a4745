"""Gauge equivalence between the quintic and derivative equations (1d).

A phase twist by the cumulative mass maps solutions of the quintic equation
with coupling lambda^2/2 onto solutions of the derivative equation, and the
opposite twist maps back.  The two solvers are entirely independent (Strang
splitting vs interaction-picture RK4), so the residual is a genuine
cross-check of both.
"""

import numpy as np

from nlslab import (
    DNLSParams,
    GaugeParams,
    GridDescriptor,
    NLSParams,
    dnls_evolve,
    field_from_function,
    gauge,
    l2_difference,
    l2_norm,
    nls_evolve,
)

lam = 1.0
grid = GridDescriptor.centered((2048,), (0.0195,))
u0 = field_from_function(grid, lambda x: 0.3 / np.cosh(x))
p_quintic = NLSParams(sigma=2.0, mu=0.5 * lam**2)  # critical on the 1D grid
p_derivative = DNLSParams(lam)
dt = 2e-4

twisted = gauge(gauge(u0, GaugeParams(lam, +1)), GaugeParams(lam, -1))
print(f"twist pair identity defect: {np.max(np.abs(twisted.values - u0.values)):.2e}")

u, psi = u0, gauge(u0, GaugeParams(lam, +1))
t_now = 0.0
print(f"\n{'t':>6} {'quintic->derivative':>20} {'derivative->quintic':>20}")
for t in (0.25, 0.5, 0.75, 1.0):
    u = nls_evolve(u, t_now, t, p_quintic, dt)
    psi = dnls_evolve(psi, t_now, t, p_derivative, dt)
    t_now = t
    fwd = l2_difference(gauge(u, GaugeParams(lam, +1)), psi) / l2_norm(psi)
    bwd = l2_difference(gauge(psi, GaugeParams(lam, -1)), u) / l2_norm(u)
    print(f"{t:6.2f} {fwd:20.2e} {bwd:20.2e}")
