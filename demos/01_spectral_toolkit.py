"""Tour of the spectral toolkit.

Builds a centered grid, checks that the continuum-convention transform is
unitary to roundoff, propagates a Gaussian under the free flow against its
closed form, and reassembles the free propagator from its chirp/dilation
factorization.
"""

import numpy as np

from nlslab import (
    GridDescriptor,
    field_from_function,
    forward_fourier,
    free_propagate,
    inverse_fourier,
    dilate,
    quadratic_phase,
    resample,
    l2_difference,
    l2_norm,
    norms,
    diagnostics,
)

grid = GridDescriptor.centered((2048,), (0.08,))
print(f"grid: N={grid.counts[0]}, h={grid.spacings[0]}, "
      f"domain half-width {grid.extents[0]:.1f}, "
      f"nyquist {np.pi / grid.spacings[0]:.1f}")

f = field_from_function(grid, lambda x: np.exp(-0.5 * x**2))
fhat = forward_fourier(f)
print(f"self-dual Gaussian: max |F f - f-profile| = "
      f"{np.max(np.abs(fhat.values - np.exp(-0.5 * fhat.grid.axis_coords(0)**2))):.2e}")
print(f"plancherel defect: {abs(l2_norm(fhat) - l2_norm(f)):.2e}")
print(f"round trip defect: {l2_difference(inverse_fourier(fhat), f):.2e}")

print("\nfree propagation vs closed-form Gaussian:")
for t in (1.0, 5.0, 10.0):
    out = free_propagate(f, t)
    x = grid.axis_coords(0)
    exact = (1 + 1j * t) ** -0.5 * np.exp(-x**2 / (2 * (1 + 1j * t)))
    err = np.sqrt(grid.cell_volume * np.sum(np.abs(out.values - exact) ** 2))
    print(f"  t={t:5.1f}: L2 error {err:.2e}")

print("\nfactorization of the free group (chirp, dilate, transform, chirp):")
for t in (0.5, 2.0):
    direct = free_propagate(f, t)
    factored = quadratic_phase(dilate(forward_fourier(quadratic_phase(f, t)), t), t)
    err = l2_difference(resample(factored, grid), direct)
    print(f"  t={t}: reassembled vs direct {err:.2e}")

d = diagnostics(f)
print(f"\ndatum health: spectral tail {d.spectral_tail_fraction:.1e}, "
      f"boundary mass {d.boundary_mass_fraction:.1e}")
print("norms:", {k: round(v, 6) for k, v in norms(f).items()})
