"""Operator algebra on fields: pseudo-conformal map, reflection, conjugation,
and the one-dimensional gauge maps between the quintic and derivative
equations.

The pseudo-conformal map acts on snapshots carrying explicit time metadata,
so the time relabeling t -> -1/t can never be misaligned by a call site.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ComplexField,
    _reflect_values,
    _shell_fraction,
    dilate,
    free_propagate,
    inverse_fourier,
    l2_difference,
    quadratic_phase,
    resample,
    spectral_plan,
)
from .errors import NlslabError


@dataclass(frozen=True)
class GaugeParams:
    """Coupling and sign of the phase twist exp(+-i lambda * cumulative mass)."""

    lam: float
    sign: int = +1

    def __post_init__(self):
        if not np.isfinite(self.lam):
            raise ValueError("gauge coupling must be finite")
        if self.sign not in (+1, -1):
            raise ValueError("gauge sign must be +1 or -1")


@dataclass(frozen=True)
class SnapshotAtTime:
    """A field together with the time it was taken at."""

    field: ComplexField
    time: float

    def __post_init__(self):
        if not np.isfinite(self.time):
            raise ValueError("snapshot time must be finite")


def pseudo_conformal(s: SnapshotAtTime) -> SnapshotAtTime:
    """Apply the space-time map (t, x) -> (-1/t, x/t) with its chirp factor.

    The input snapshot is read as u(-1/t, .); the output is the transformed
    solution at time t = -1/s.time, living on the grid rescaled by |t|.
    Unitary in L2.
    """
    if s.time == 0.0:
        raise ValueError("pseudo_conformal requires a nonzero snapshot time")
    t = -1.0 / s.time
    out = quadratic_phase(dilate(s.field, t), t)
    return SnapshotAtTime(out, t)


def reflect(f: ComplexField) -> ComplexField:
    """Spatial reflection about the origin via the periodic index map."""
    return f.with_values(_reflect_values(f.values))


def conjugate(f: ComplexField) -> ComplexField:
    """Pointwise complex conjugation."""
    return f.with_values(np.conj(f.values))


def _antiderivative(w, h):
    """The integral of the real samples ``w`` (spacing h, an even count, as
    every grid has) from the first sample to each sample, exact for a
    band-limited w: the mean m of w integrates to m (x - x0), and the rest
    to p(x) - p(x0), where p is the spectral antiderivative
    ifft(fft(w) / (i xi)) with its xi = 0 and Nyquist modes set to zero."""
    n = w.size
    spec = np.fft.rfft(w)
    spec[0] = spec[-1] = 0.0
    spec[1:-1] /= 2j * np.pi * np.fft.rfftfreq(n, h)[1:-1]
    p = np.fft.irfft(spec, n)
    return w.mean() * h * np.arange(n) + (p - p[0])


def gauge(f: ComplexField, g: GaugeParams) -> ComplexField:
    """Multiply by exp(sign * i * lambda * P(x)), P the cumulative |f|^2 mass.

    One-dimensional only.  P is the integral from the left grid edge, which
    stands in for the left-infinite integral, so the field must carry
    negligible boundary mass; it is taken spectrally, exact for a
    band-limited |f|^2 (see ``_antiderivative``).
    """
    if f.grid.dim != 1:
        raise NlslabError("gauge transform is defined in one dimension only")
    # the boundary fraction of ``diagnostics``, without its spectral tail
    boundary = _shell_fraction(f.values, spectral_plan(f.grid).shell)
    if boundary > 1e-6:
        raise NlslabError(
            f"boundary mass fraction {boundary:.2e} too large "
            "for the left-edge cumulative integral (limit 1e-6)"
        )
    return f.with_values(f.values * np.exp(1j * gauge_phase_profile(f, g)))


def gauge_phase_profile(f: ComplexField, g: GaugeParams) -> np.ndarray:
    """The accumulated phase sign*lambda*P(x) used by :func:`gauge`."""
    w = np.abs(f.values) ** 2
    return g.sign * g.lam * _antiderivative(w, f.grid.spacings[0])


def spectral_profile_decay_ladder(phi: ComplexField, times) -> list:
    """|| U0(t) F^{-1} phi - (Psi phi)(t, .) ||_L2 over a ladder of times.

    ``phi`` is the static profile the pseudo-conformal map is applied to,
    read as a function of frequency on its own grid.  Both routes are
    evaluated with the actual operators and compared on the free route's
    grid.
    """
    base = inverse_fourier(phi)
    out = []
    for t in times:
        route_free = free_propagate(base, t)
        snap = SnapshotAtTime(phi, -1.0 / t)
        route_psi = pseudo_conformal(snap).field
        moved = resample(route_psi, route_free.grid)
        out.append((float(t), l2_difference(route_free, moved)))
    return out
