"""Numerical wave operators and the transform-exchange identity.

Computes forward and inverse wave operators for small data on a horizon
ladder, measures the ladder's finite-horizon bias against the exact lens
route (it falls like 1/T), and verifies that the transform exchanges the inverse operator with
the opposite-sign forward operator (a light configuration of the full
verification; the acceptance suite runs the pinned one).
"""

import numpy as np

from nlslab import (
    GridDescriptor,
    NLSParams,
    ScatteringConfig,
    StepControl,
    field_from_function,
    inverse_wave_operator,
    l2_difference,
    lens_wave_operator,
    l2_norm,
    verify_theorem1,
    wave_operator,
)

grid = GridDescriptor.centered((2048,), (0.25,))
phi = field_from_function(
    grid, lambda x: 0.2 * np.pi**-0.25 * np.exp(-0.5 * x**2)
)
p = NLSParams(dim=1, sigma=2.0, mu=1.0)
cfg = ScatteringConfig(horizon=10.0, tol=1e-4, max_rungs=3,
                       control=StepControl(dt=0.02))

w = wave_operator(phi, -1, p, cfg)
print("forward operator ladder (horizon, change):",
      [(T, f"{c:.2e}") for T, c in w.horizon_ladder],
      "converged:", w.converged)
print(f"interaction strength || W(a) - a || = {l2_difference(w.field, phi):.3e}")

back = inverse_wave_operator(w.field, -1, p, cfg)
print(f"round trip relative error: "
      f"{l2_difference(back.field, phi) / l2_norm(phi):.2e} "
      f"(tail estimate {back.tail_estimate:.1e})")

lens = lens_wave_operator(phi, -1, p, StepControl(dt=0.02))
print("\nhorizon bias against the lens route (T, bias, T * bias):")
for horizon in (5.0, 10.0, 20.0):
    ladder = wave_operator(phi, -1, p, ScatteringConfig(
        horizon=horizon, max_rungs=1, control=StepControl(dt=0.02))).field
    bias = l2_difference(ladder, lens)
    print(f"  {horizon:5.1f}  {bias:.2e}  {horizon * bias:.2e}")

print("\ntransform-exchange identity (light config):")
rep = verify_theorem1(phi, p, ScatteringConfig(
    horizon=30.0, tol=1e-4, max_rungs=1, control=StepControl(dt=0.02)),
    tolerance=1e-3)
for r in rep.residuals:
    print(f"  {r.name}: {r.value:.2e}  (tol {r.tolerance:.0e})")
print("verdict:", rep.verdict)
