"""Gauge equivalence between the quintic and derivative equations (1d).

A phase twist by the cumulative mass maps solutions of the quintic equation
with coupling lambda^2/2 onto solutions of the derivative equation, and the
opposite twist maps back.  The two solvers are entirely independent (Strang
splitting vs interaction-picture RK4), so the residual is a genuine
cross-check of both.  The step, checkpoints and tolerance are those of the
``dnls_gauge`` experiment.  Each residual is printed beside a control, the
same comparison with the free flow U0(t) u0 in place of the quintic
solution, which measures the size of the nonlinear effect; a residual passes
when it is within the tolerance and below a tenth of its control.  A failure
exits 1.
"""

import sys

import numpy as np

from nlslab import (
    DEFAULTS,
    DNLSParams,
    GaugeParams,
    GridDescriptor,
    NLSParams,
    dnls_evolve,
    field_from_function,
    free_propagate,
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
dt = DEFAULTS["dnls_gauge"]["evolve"]["dt"]
checkpoints = DEFAULTS["dnls_gauge"]["evolve"]["checkpoints"]
tol = DEFAULTS["dnls_gauge"]["verify"]["tolerance"]


def directions(u, psi):
    """How far u and psi are from being each other's gauge image, each way."""
    fwd = l2_difference(gauge(u, GaugeParams(lam, +1)), psi) / l2_norm(psi)
    bwd = l2_difference(gauge(psi, GaugeParams(lam, -1)), u) / l2_norm(u)
    return fwd, bwd


twisted = gauge(gauge(u0, GaugeParams(lam, +1)), GaugeParams(lam, -1))
print(f"twist pair identity defect: {np.max(np.abs(twisted.values - u0.values)):.2e}")

u, psi = u0, gauge(u0, GaugeParams(lam, +1))
t_now = 0.0
ok = True
print(f"\ndt = {dt:g}, tolerance {tol:.0e}; residual (control) per direction")
print(f"{'t':>6} {'quintic->derivative':>22} {'derivative->quintic':>22}")
for t in checkpoints:
    u = nls_evolve(u, t_now, t, p_quintic, dt)
    psi = dnls_evolve(psi, t_now, t, p_derivative, dt)
    t_now = t
    residuals = directions(u, psi)
    controls = directions(free_propagate(u0, t), psi)
    ok = ok and all(r <= tol and r <= 0.1 * c for r, c in zip(residuals, controls))
    print(f"{t:6.2f}" + "".join(f" {r:11.2e} ({c:.2e})" for r, c in zip(residuals, controls)))
print("verdict:", "pass" if ok else "fail")
sys.exit(0 if ok else 1)
