"""The pseudo-conformal map and its algebra.

Applying the map twice returns the spatial reflection of the input (exactly,
up to roundoff, with the principal complex-power branch), and the conformal
image of a static spectral profile tracks the free flow of its inverse
transform at the smooth-data rate 1/t.
"""

import numpy as np

from nlslab import (
    GridDescriptor,
    SnapshotAtTime,
    field_from_function,
    pseudo_conformal,
    reflect,
    spectral_profile_decay_ladder,
)

grid = GridDescriptor.centered((1024,), (0.05,))
f = field_from_function(grid, lambda x: np.exp(-0.5 * (x - 1.2) ** 2))

for tau in (2.3, -2.3):
    twice = pseudo_conformal(pseudo_conformal(SnapshotAtTime(f, tau)))
    err = np.max(np.abs(twice.field.values - reflect(f).values))
    print(f"double application at tau={tau:+.1f}: "
          f"time restored to {twice.time:+.6f}, reflection defect {err:.2e}")

profile_grid = GridDescriptor.centered((4096,), (0.2,))
# the profile is read as a function of frequency: it is sampled on the dual grid
phi = field_from_function(profile_grid.dual(), lambda xi: np.exp(-0.5 * xi**2))
print("\nstatic-profile ladder || U0(t) F^(-1) phi - (conformal phi)(t) ||:")
ladder = spectral_profile_decay_ladder(phi, [10.0, 20.0, 40.0, 80.0])
for t, e in ladder:
    print(f"  t={t:5.0f}: {e:.4e}   (t * e = {t * e:.4f})")
slope = np.polyfit(np.log([t for t, _ in ladder]),
                   np.log([e for _, e in ladder]), 1)[0]
print(f"fitted log-log slope: {slope:.3f}")
