"""Grids, complex fields, and the continuum-convention spectral operators.

All grids are uniform, periodic and centered: the left endpoint of every
axis is -N*h/2, so the sample coordinates straddle the origin and the dual
(frequency) grid of a centered grid is again centered.  With the explicit
(2pi)^{-n/2} h^n scaling the discrete transform matches the continuum
Fourier transform on resolved fields and Plancherel holds to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import GridCompatibilityError, MassLossError, SpaceTagError

POSITION = "position"
FREQUENCY = "frequency"

# Fraction of the per-axis range counted as the "outer" shell by diagnostics.
OUTER_SHELL = 0.125

# 2pi to long-double precision, for reducing chirp phases.
_TWO_PI = 8 * np.arctan(np.longdouble(1))


@dataclass(frozen=True)
class GridDescriptor:
    """Uniform periodic grid, centered about the origin.

    counts    per-axis sample count N (power of two, >= 8)
    spacings  per-axis spacing h > 0
    offsets   per-axis left endpoint, always -N*h/2
    """

    counts: tuple
    spacings: tuple
    offsets: tuple

    def __post_init__(self):
        counts = tuple(int(n) for n in self.counts)
        spacings = tuple(float(h) for h in self.spacings)
        offsets = tuple(float(x) for x in self.offsets)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "spacings", spacings)
        object.__setattr__(self, "offsets", offsets)
        if not (1 <= len(counts) <= 2):
            raise ValueError(f"dimension must be 1 or 2, got {len(counts)}")
        if not (len(counts) == len(spacings) == len(offsets)):
            raise ValueError("counts, spacings, offsets must have equal length")
        for n, h, x0 in zip(counts, spacings, offsets):
            if n < 8 or (n & (n - 1)) != 0:
                raise ValueError(f"axis count {n} is not a power of two >= 8")
            if not (h > 0) or not np.isfinite(h):
                raise ValueError(f"axis spacing {h} must be positive and finite")
            centered = -0.5 * n * h
            if abs(x0 - centered) > 1e-12 * max(1.0, abs(centered)):
                raise ValueError(f"grid is not centered: x0={x0}, expected {centered}")

    @classmethod
    def centered(cls, counts, spacings):
        counts = tuple(int(n) for n in np.atleast_1d(counts))
        spacings = tuple(float(h) for h in np.atleast_1d(spacings))
        offsets = tuple(-0.5 * n * h for n, h in zip(counts, spacings))
        return cls(counts, spacings, offsets)

    @property
    def dim(self):
        return len(self.counts)

    @property
    def size(self):
        return int(np.prod(self.counts))

    @property
    def cell_volume(self):
        return float(np.prod(self.spacings))

    @property
    def extents(self):
        """Per-axis half-width N*h/2 of the domain."""
        return tuple(0.5 * n * h for n, h in zip(self.counts, self.spacings))

    def axis_coords(self, axis):
        n, h, x0 = self.counts[axis], self.spacings[axis], self.offsets[axis]
        return x0 + h * np.arange(n)

    def coordinate_arrays(self):
        """Sparse meshgrid of the sample coordinates."""
        axes = [self.axis_coords(a) for a in range(self.dim)]
        return np.meshgrid(*axes, indexing="ij", sparse=True)

    def radius_squared(self):
        """|x|^2 evaluated on the grid, shaped like a field."""
        coords = self.coordinate_arrays()
        r2 = np.zeros(self.counts)
        for c in coords:
            r2 = r2 + c**2
        return r2

    def dual(self):
        """The implied frequency grid: spacing 2*pi/(N*h), again centered."""
        spacings = tuple(2.0 * np.pi / (n * h) for n, h in zip(self.counts, self.spacings))
        return GridDescriptor.centered(self.counts, spacings)


def grids_close(a: GridDescriptor, b: GridDescriptor, rtol=1e-12):
    if a.counts != b.counts:
        return False
    for ha, hb in zip(a.spacings, b.spacings):
        if abs(ha - hb) > rtol * max(abs(ha), abs(hb)):
            return False
    return True


def require_same_grid(a, b, what="fields"):
    if not grids_close(a.grid, b.grid):
        raise GridCompatibilityError(f"{what} live on incompatible grids: {a.grid} vs {b.grid}")


@dataclass(frozen=True)
class ComplexField:
    """Complex samples on a grid, tagged position- or frequency-space.

    ``values`` is flat, row-major over the axes, and immutable.
    """

    grid: GridDescriptor
    values: np.ndarray
    space: str

    def __post_init__(self):
        arr = np.ascontiguousarray(self.values, dtype=np.complex128).reshape(-1)
        if arr.size != self.grid.size:
            raise ValueError(f"values length {arr.size} != grid size {self.grid.size}")
        if not np.isfinite(arr.view(np.float64)).all():
            raise ValueError("field contains non-finite entries")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        if self.space not in (POSITION, FREQUENCY):
            raise ValueError(f"unknown space tag {self.space!r}")

    @property
    def shaped(self):
        return self.values.reshape(self.grid.counts)

    def with_values(self, values):
        return ComplexField(self.grid, np.asarray(values).reshape(-1), self.space)

    def retagged(self, space):
        """Reinterpret the same samples in the other space (no transform)."""
        return ComplexField(self.grid, self.values, space)


def field_from_function(grid, fn, space=POSITION):
    """Sample ``fn(*coords)`` on the grid."""
    coords = grid.coordinate_arrays()
    vals = np.asarray(fn(*coords), dtype=np.complex128)
    vals = np.broadcast_to(vals, grid.counts)
    return ComplexField(grid, vals.reshape(-1), space)


def _require_space(f, space, op):
    if f.space != space:
        raise SpaceTagError(f"{op} expects a {space}-space field, got {f.space}")


def _frozen(arr):
    arr.flags.writeable = False
    return arr


def _unit_phase(w):
    """exp(i w) for a real array w, written as cos + i sin."""
    out = np.empty(np.shape(w), dtype=np.complex128)
    np.cos(w, out=out.real)
    np.sin(w, out=out.imag)
    return out


def _outer_shell(grid):
    """Boolean mask of the outer 1/8 of each axis range, centered order."""
    outer = np.zeros(grid.counts, dtype=bool)
    for axis in range(grid.dim):
        x = np.abs(grid.axis_coords(axis))
        cut = (1.0 - OUTER_SHELL) * grid.extents[axis]
        shape = [1] * grid.dim
        shape[axis] = len(x)
        outer |= (x >= cut).reshape(shape)
    return outer


class SpectralPlan:
    """The continuum-convention transform of one grid and the symbols the
    spectral operators multiply by.

    This is the one place that knows the convention: the prefactor
    (2pi)^{-n/2} h^n, the alternating signs exp(-i x0 xi_k) = (-1)^k of a
    centered grid, and the shift between centered and FFT order.  Both
    transforms map samples on ``grid`` onto ``dual``.  Inner loops skip them
    and stay in FFT order, where the free flow is ``ifftn(fftn(a) * m)``
    with ``m = free_multiplier(t)`` and the prefactors cancel.

    Arrays are built on first use and are read-only, so one plan per grid
    (:func:`spectral_plan`) is shared by every caller and thread.
    Multipliers for a time t are built per call and never cached.
    """

    def __init__(self, grid: GridDescriptor):
        self.grid = grid
        self.dual = grid.dual()
        self.prefactor = (2.0 * np.pi) ** (-0.5 * grid.dim) * grid.cell_volume

    @cached_property
    def signs(self):
        """(-1)^k along every axis, in centered order."""
        out = np.ones(self.grid.counts)
        for axis, n in enumerate(self.grid.counts):
            k = np.arange(n) - n // 2
            shape = [1] * self.grid.dim
            shape[axis] = n
            out = out * np.where(k % 2 == 0, 1.0, -1.0).reshape(shape)
        return _frozen(out)

    @cached_property
    def r2(self):
        """|x|^2 on the grid, centered order."""
        return _frozen(self.grid.radius_squared())

    @cached_property
    def xi2(self):
        """|xi|^2 on the dual grid, FFT order."""
        return _frozen(np.fft.ifftshift(self.dual.radius_squared()))

    @cached_property
    def derivative_symbol(self):
        """i xi in FFT order (one-dimensional grids)."""
        if self.grid.dim != 1:
            raise ValueError("the derivative symbol is one-dimensional")
        return _frozen(1j * np.fft.ifftshift(self.dual.axis_coords(0)))

    @cached_property
    def shell(self):
        """Outer-shell mask of the grid, centered order."""
        return _frozen(_outer_shell(self.grid))

    @cached_property
    def dual_shell(self):
        """Outer-shell mask of the dual grid, FFT order."""
        return _frozen(np.fft.ifftshift(_outer_shell(self.dual)))

    def forward(self, a):
        """Continuum forward transform of samples on ``grid``: the centered
        spectrum on ``dual``."""
        spec = np.fft.fftshift(np.fft.fftn(a))
        spec *= self.signs
        spec *= self.prefactor
        return spec

    def inverse(self, a):
        """Continuum inverse transform of spectral samples on ``grid``,
        landing on ``dual`` (the inverse of the dual grid's forward)."""
        vals = np.fft.ifftn(np.fft.ifftshift(a * self.signs))
        vals *= self.prefactor * self.grid.size
        return vals

    def free_multiplier(self, t):
        """exp(-i t |xi|^2 / 2) in FFT order."""
        return _unit_phase((-0.5 * t) * self.xi2)

    def propagate(self, a, t):
        """The free flow U0(t) of samples read as a function of position."""
        spec = np.fft.fftn(a)
        spec *= self.free_multiplier(t)
        return np.fft.ifftn(spec)

    def derivative(self, a):
        """d/dx of samples on a one-dimensional grid, spectrally."""
        spec = np.fft.fftn(a)
        spec *= self.derivative_symbol
        return np.fft.ifftn(spec)


@lru_cache(maxsize=16)
def spectral_plan(grid: GridDescriptor) -> SpectralPlan:
    """The shared plan of ``grid`` (grids are frozen, so equal grids share)."""
    return SpectralPlan(grid)


def forward_fourier(f: ComplexField) -> ComplexField:
    """F f(xi) = (2pi)^{-n/2} integral f(x) exp(-i x.xi) dx, discretized."""
    _require_space(f, POSITION, "forward_fourier")
    plan = spectral_plan(f.grid)
    return ComplexField(plan.dual, plan.forward(f.shaped).reshape(-1), FREQUENCY)


def inverse_fourier(f: ComplexField) -> ComplexField:
    """Inverse transform; round-trips with forward_fourier to roundoff."""
    _require_space(f, FREQUENCY, "inverse_fourier")
    plan = spectral_plan(f.grid)
    return ComplexField(plan.dual, plan.inverse(f.shaped).reshape(-1), POSITION)


def free_propagate(f: ComplexField, t: float) -> ComplexField:
    """Multiply the spectrum by exp(-i t |xi|^2 / 2); exact for all t.

    Position fields are conjugated through the transform; frequency fields
    get the multiplier on their own coordinates.
    """
    t = float(t)
    plan = spectral_plan(f.grid)
    if f.space == FREQUENCY:
        return f.with_values(f.shaped * _unit_phase((-0.5 * t) * plan.r2))
    return f.with_values(plan.propagate(f.shaped, t))


def quadratic_phase(f: ComplexField, t: float) -> ComplexField:
    """The operator M_t: pointwise multiplication by exp(i |x|^2 / (2t))."""
    t = float(t)
    if t == 0.0:
        raise ValueError("quadratic_phase requires t != 0")
    return f.with_values(f.shaped * _unit_phase(0.5 * spectral_plan(f.grid).r2 / t))


def _reflect_values(shaped):
    out = shaped
    for axis in range(shaped.ndim):
        out = np.roll(np.flip(out, axis=axis), 1, axis=axis)
    return out


def dilate(f: ComplexField, t: float) -> ComplexField:
    """The operator D_t: (it)^{-n/2} f(x/t) on the grid rescaled by |t|.

    Principal branch of (it)^{n/2}; L2-unitary for every t != 0.  Negative t
    reflects the samples through the periodic index map.
    """
    t = float(t)
    if t == 0.0:
        raise ValueError("dilate requires t != 0")
    g = f.grid
    scale = (1j * t) ** (-0.5 * g.dim)
    vals = f.shaped
    if t < 0:
        vals = _reflect_values(vals)
    new_grid = GridDescriptor.centered(g.counts, tuple(h * abs(t) for h in g.spacings))
    return ComplexField(new_grid, (scale * vals).reshape(-1), f.space)


def resample(f: ComplexField, target: GridDescriptor) -> ComplexField:
    """Band-limited (trigonometric) interpolation of ``f`` onto ``target``.

    Evaluated exactly, one axis at a time, as a chirp-z transform of the
    spectrum (three FFTs per axis).  Target points outside the source's
    fundamental domain get zeros (the periodic extension is never
    unrolled).  Raises MassLossError when the target box fails to cover the
    mass of ``f``.
    """
    _require_space(f, POSITION, "resample")
    src = f.grid
    if target.dim != src.dim:
        raise ValueError("resample cannot change dimensionality")
    if grids_close(src, target):
        return ComplexField(target, f.values, f.space)

    _check_mass_on_target(f, target)

    plan = spectral_plan(src)
    dual = plan.dual
    pref = (2.0 * np.pi) ** (-0.5 * src.dim) * dual.cell_volume
    vals = plan.forward(f.shaped)
    # Sum exp(i x xi) against the spectrum one axis at a time; rows for
    # out-of-domain target points are zeroed.
    for axis in range(src.dim):
        xt = target.axis_coords(axis)
        lo = src.offsets[axis]
        hi = lo + src.counts[axis] * src.spacings[axis]
        pad = 1e-9 * src.spacings[axis]
        inside = (xt >= lo - pad) & (xt < hi - pad)
        a = np.longdouble(target.spacings[axis]) * dual.spacings[axis]
        out = _chirp_z(np.moveaxis(vals, axis, -1), a, len(xt))
        out[..., ~inside] = 0.0
        vals = np.moveaxis(out, -1, axis)
    return ComplexField(target, (pref * vals).reshape(-1), POSITION)


def _chirp(a, m):
    """exp(i a m^2 / 2) for integers m.

    The phase is reduced mod 2pi in long double before it is rounded to
    float64: it reaches ~2.5e6 rad between 4096-point exchange grids, where
    float64 rounding alone would be ~1e-10 rad.
    """
    m = np.asarray(m, dtype=np.longdouble)
    return _unit_phase(np.remainder(a * m * m / 2, _TWO_PI).astype(np.float64))


def _chirp_z(vals, a, count):
    """sum_k vals[..., k] exp(i a j' k') for j < count, along the last axis.

    On centered grids x_j xi_k = a j' k' with j' = j - count/2, k' = k - N/2
    and a = h_x h_xi.  Writing j'k' = (j'^2 + k'^2 - (j'-k')^2) / 2 turns the
    sum into a linear convolution with the chirp exp(-i a m^2 / 2), done as
    a zero-padded FFT product of length >= N + count - 1 (Bluestein).
    """
    n = vals.shape[-1]
    size = 1 << (n + count - 2).bit_length()
    # the chirp at j - k = d, stored at index d mod size
    d = np.concatenate((np.arange(count), np.arange(1 - n, 0)))
    kernel = np.zeros(size, dtype=np.complex128)
    kernel[d] = np.conj(_chirp(a, d - (count - n) // 2))
    spec = np.fft.fft(vals * _chirp(a, np.arange(n) - n // 2), n=size, axis=-1)
    spec *= np.fft.fft(kernel)
    out = np.fft.ifft(spec, axis=-1)[..., :count]
    out *= _chirp(a, np.arange(count) - count // 2)
    return out


def _check_mass_on_target(f, target):
    g = f.grid
    density = np.abs(f.shaped) ** 2
    total = density.sum()
    if total == 0.0:
        return
    outside = np.zeros(g.counts, dtype=bool)
    for axis in range(g.dim):
        x = g.axis_coords(axis)
        lo = target.offsets[axis]
        hi = lo + target.counts[axis] * target.spacings[axis]
        ax_out = (x < lo) | (x >= hi)
        shape = [1] * g.dim
        shape[axis] = len(x)
        outside |= ax_out.reshape(shape)
    lost = density[outside].sum() / total
    if lost > 1e-6:
        raise MassLossError(
            f"target grid drops {lost:.3e} of the field's mass (limit 1e-6)"
        )


def norms(f: ComplexField) -> dict:
    """L2 norm, |xi|-weighted spectral seminorm, |x|-weighted norm, sup norm."""
    plan = spectral_plan(f.grid)
    vol = f.grid.cell_volume
    shaped = f.shaped
    l2 = float(np.sqrt(vol * np.sum(np.abs(shaped) ** 2)))
    if f.space == POSITION:
        spec, spec_vol = plan.forward(shaped), plan.dual.cell_volume
        w = np.sqrt(np.fft.fftshift(plan.xi2))
    else:
        spec, spec_vol = shaped, vol
        w = np.sqrt(plan.r2)
    h1 = float(np.sqrt(spec_vol * np.sum((w * np.abs(spec)) ** 2)))
    r = np.sqrt(plan.r2)
    weighted_x = float(np.sqrt(vol * np.sum((r * np.abs(shaped)) ** 2)))
    linf = float(np.max(np.abs(shaped))) if shaped.size else 0.0
    return {"l2": l2, "h1_seminorm": h1, "weighted_x": weighted_x, "linf": linf}


def l2_norm(f: ComplexField) -> float:
    return float(np.sqrt(f.grid.cell_volume * np.sum(np.abs(f.values) ** 2)))


def l2_difference(a: ComplexField, b: ComplexField) -> float:
    require_same_grid(a, b)
    return float(np.sqrt(a.grid.cell_volume * np.sum(np.abs(a.values - b.values) ** 2)))


@dataclass(frozen=True)
class FieldDiagnostics:
    """Mass fractions in the outer 1/8 of the frequency and position ranges."""

    l2: float
    spectral_tail_fraction: float
    boundary_mass_fraction: float


def _shell_fraction(values, shell) -> float:
    """Share of the mass of ``values`` that lies on the mask ``shell``."""
    density = np.abs(values) ** 2
    total = density.sum()
    if total == 0.0:
        return 0.0
    return float(density[shell].sum() / total)


def diagnostics(f: ComplexField) -> FieldDiagnostics:
    plan = spectral_plan(f.grid)
    if f.space == POSITION:
        boundary = _shell_fraction(f.shaped, plan.shell)
        # the fraction is blind to the transform's prefactor and signs, so
        # the raw spectrum in FFT order will do
        tail = _shell_fraction(np.fft.fftn(f.shaped), plan.dual_shell)
    else:
        tail = _shell_fraction(f.shaped, plan.shell)
        boundary = _shell_fraction(
            plan.inverse(f.shaped), np.fft.fftshift(plan.dual_shell)
        )
    return FieldDiagnostics(
        l2=l2_norm(f),
        spectral_tail_fraction=tail,
        boundary_mass_fraction=boundary,
    )
