"""Grids, complex fields, and the continuum-convention spectral operators.

All grids are uniform, periodic and centered: the left endpoint of every
axis is -N*h/2, so the sample coordinates straddle the origin and the dual
(frequency) grid of a centered grid is again centered.  With the explicit
(2pi)^{-n/2} h^n scaling the discrete transform matches the continuum
Fourier transform on resolved fields and Plancherel holds to roundoff.

A field is its samples on a grid and nothing more: whether they are read as
a function of position or of frequency is up to the operator applied, and
the transform F maps samples on a grid onto samples on its dual grid.  A
snapshot file (see ``io``) therefore always writes space byte 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np

from .errors import GridCompatibilityError, MassLossError

# Fraction of the per-axis range counted as the "outer" shell by diagnostics.
OUTER_SHELL = 0.125

# 2pi to long-double precision, for reducing chirp phases.
_TWO_PI = 8 * np.arctan(np.longdouble(1))


@dataclass(frozen=True)
class GridDescriptor:
    """Uniform periodic grid, centered about the origin.

    counts    per-axis sample count N (power of two, >= 8)
    spacings  per-axis spacing h > 0
    offsets   derived, not stored: per-axis left endpoint, always -N*h/2
    """

    counts: tuple
    spacings: tuple

    def __post_init__(self):
        if not all(float(n).is_integer() for n in np.atleast_1d(self.counts)):
            raise ValueError(f"axis counts {self.counts} are not all integers")
        counts = tuple(int(n) for n in np.atleast_1d(self.counts))
        spacings = tuple(float(h) for h in np.atleast_1d(self.spacings))
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "spacings", spacings)
        if not (1 <= len(counts) <= 2):
            raise ValueError(f"dimension must be 1 or 2, got {len(counts)}")
        if len(counts) != len(spacings):
            raise ValueError("counts and spacings must have equal length")
        for n, h in zip(counts, spacings):
            if n < 8 or (n & (n - 1)) != 0:
                raise ValueError(f"axis count {n} is not a power of two >= 8")
            if not (h > 0) or not np.isfinite(h):
                raise ValueError(f"axis spacing {h} must be positive and finite")

    @classmethod
    def centered(cls, counts, spacings):
        """The constructor, under the name that says where the grid sits."""
        return cls(counts, spacings)

    @property
    def dim(self):
        return len(self.counts)

    @property
    def size(self):
        return math.prod(self.counts)

    @property
    def cell_volume(self):
        return float(np.prod(self.spacings))

    @property
    def extents(self):
        """Per-axis half-width N*h/2 of the domain."""
        return tuple(0.5 * n * h for n, h in zip(self.counts, self.spacings))

    @property
    def offsets(self):
        """Per-axis left endpoint -N*h/2."""
        return tuple(-e for e in self.extents)

    def axis_coords(self, axis):
        n, h = self.counts[axis], self.spacings[axis]
        return self.offsets[axis] + h * np.arange(n)

    def coordinate_arrays(self):
        """Sparse meshgrid of the sample coordinates."""
        axes = [self.axis_coords(a) for a in range(self.dim)]
        return np.meshgrid(*axes, indexing="ij", sparse=True)

    def radius_squared(self):
        """|x|^2 evaluated on the grid, shaped like a field."""
        return sum(c**2 for c in self.coordinate_arrays())

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


@dataclass(frozen=True)
class ComplexField:
    """Complex samples on a grid.

    ``values`` has the grid's shape (``grid.counts``) and is immutable; it
    may be given in any shape that holds ``grid.size`` samples in row-major
    order.
    """

    grid: GridDescriptor
    values: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.values, dtype=np.complex128)
        if arr.size != self.grid.size:
            raise ValueError(f"values length {arr.size} != grid size {self.grid.size}")
        arr = arr.reshape(self.grid.counts)
        if not np.isfinite(arr.view(np.float64)).all():
            raise ValueError("field contains non-finite entries")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def with_values(self, values):
        return ComplexField(self.grid, values)


def field_from_function(grid, fn):
    """Sample ``fn(*coords)`` on the grid."""
    vals = np.asarray(fn(*grid.coordinate_arrays()), dtype=np.complex128)
    return ComplexField(grid, np.broadcast_to(vals, grid.counts))


def _frozen(arr):
    arr.flags.writeable = False
    return arr


def _unit_phase(w, out=None):
    """exp(i w) for a real array w, written as cos + i sin, into ``out``
    (a new complex array by default)."""
    if out is None:
        out = np.empty(np.shape(w), dtype=np.complex128)
    np.cos(w, out=out.real)
    np.sin(w, out=out.imag)
    return out


def _density_power(values, sigma):
    """|v|^(2 sigma) as (re^2 + im^2)^sigma: no square root, and no power at
    all when sigma = 1."""
    w = values.real**2
    w += values.imag**2
    if sigma != 1.0:
        w **= sigma
    return w


def _outer_shell(grid):
    """Boolean mask of the outer 1/8 of each axis range, centered order."""
    return reduce(np.logical_or, (np.abs(x) >= (1.0 - OUTER_SHELL) * e for x, e
                                  in zip(grid.coordinate_arrays(), grid.extents)))


class SpectralPlan:
    """The continuum-convention transform of one grid and the symbols the
    spectral operators multiply by.

    This is the one place that knows the convention: the prefactor
    (2pi)^{-n/2} h^n, the alternating signs exp(-i x0 xi_k) = (-1)^k of a
    centered grid, and the shift between centered and FFT order.  Both
    transforms map samples on ``grid`` onto ``dual``.  Inner loops skip them
    and stay in FFT order on the plan's ``fft``/``ifft``; the prefactors
    cancel in the free flow ``apply_multiplier(a, free_multiplier(t))``.

    Arrays are built on first use and are read-only, so one plan per grid
    (:func:`spectral_plan`) is shared by every caller.
    Multipliers for a time t are built per call and never cached.
    """

    def __init__(self, grid: GridDescriptor):
        self.grid = grid
        self.dual = grid.dual()
        self.prefactor = (2.0 * np.pi) ** (-0.5 * grid.dim) * grid.cell_volume

    @cached_property
    def signs(self):
        """(-1)^k along every axis, in centered order: k = x / h."""
        g = self.grid
        return _frozen(reduce(np.multiply, ((-1.0) ** np.rint(x / h) for x, h in
                                            zip(g.coordinate_arrays(), g.spacings))))

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

    def _along_grid(self, transform, a, out):
        # the last grid.dim axes, the last first as np.fft.fftn takes them;
        # the first writes into out (a new array when None), the rest in place
        for axis in range(-1, -1 - self.grid.dim, -1):
            a = out = transform(a, axis=axis, out=out)
        return out

    def fft(self, a, out=None):
        """np.fft.fftn of the field or stack ``a`` over its last grid.dim
        axes, bit for bit, into ``out`` (new by default; may be ``a``)."""
        return self._along_grid(np.fft.fft, a, out)

    def ifft(self, a, out=None):
        """np.fft.ifftn over the grid axes, as ``fft``."""
        return self._along_grid(np.fft.ifft, a, out)

    def apply_multiplier(self, a, m, spec=None, out=None):
        """ifftn(fftn(a) * m) over the grid axes, bit for bit, for a field or
        stack ``a`` and an FFT-order ``m`` of one row per field or for all:
        ``spec`` takes fftn(a), ``out`` the result (``spec`` if None)."""
        spec = self.fft(a, spec)
        spec *= m
        return self.ifft(spec, spec if out is None else out)

    def forward(self, a):
        """Continuum forward transform of samples on ``grid``: the centered
        spectrum on ``dual``."""
        spec = self.fft(a)
        # shifted back into fft's array: a held shifted copy grew exchange_2d's peak RSS 2 MiB
        np.multiply(np.fft.fftshift(spec), self.signs, out=spec)
        spec *= self.prefactor
        return spec

    def inverse(self, a):
        """Continuum inverse transform of spectral samples on ``grid``,
        landing on ``dual`` (the inverse of the dual grid's forward)."""
        vals = self.ifft(np.fft.ifftshift(a * self.signs))
        vals *= self.prefactor * self.grid.size
        return vals

    def free_multiplier(self, t):
        """exp(-i t |xi|^2 / 2) in FFT order."""
        return _unit_phase((-0.5 * t) * self.xi2)

    def derivative(self, a):
        """d/dx of samples on a one-dimensional grid, spectrally."""
        return self.apply_multiplier(a, self.derivative_symbol)


@lru_cache(maxsize=16)
def spectral_plan(grid: GridDescriptor) -> SpectralPlan:
    """The shared plan of ``grid`` (grids are frozen, so equal grids share)."""
    return SpectralPlan(grid)


def forward_fourier(f: ComplexField) -> ComplexField:
    """F f(xi) = (2pi)^{-n/2} integral f(x) exp(-i x.xi) dx, discretized:
    samples on a grid onto its dual grid."""
    plan = spectral_plan(f.grid)
    return ComplexField(plan.dual, plan.forward(f.values))


def inverse_fourier(f: ComplexField) -> ComplexField:
    """F^{-1}, samples on a grid onto its dual grid; round-trips with
    forward_fourier to roundoff."""
    plan = spectral_plan(f.grid)
    return ComplexField(plan.dual, plan.inverse(f.values))


def free_propagate(f: ComplexField, t: float) -> ComplexField:
    """U0(t): multiply the spectrum by exp(-i t |xi|^2 / 2); exact for all t."""
    plan = spectral_plan(f.grid)
    return f.with_values(plan.apply_multiplier(f.values, plan.free_multiplier(float(t))))


def quadratic_phase(f: ComplexField, t: float) -> ComplexField:
    """The operator M_t: pointwise multiplication by exp(i |x|^2 / (2t))."""
    t = float(t)
    if t == 0.0:
        raise ValueError("quadratic_phase requires t != 0")
    return f.with_values(f.values * _unit_phase(0.5 * spectral_plan(f.grid).r2 / t))


def _reflect_values(values):
    out = values
    for axis in range(values.ndim):
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
    vals = f.values
    if t < 0:
        vals = _reflect_values(vals)
    new_grid = GridDescriptor.centered(g.counts, tuple(h * abs(t) for h in g.spacings))
    return ComplexField(new_grid, scale * vals)


def resample(f: ComplexField, target: GridDescriptor) -> ComplexField:
    """Band-limited (trigonometric) interpolation of ``f`` onto ``target``.

    Evaluated exactly, one axis at a time, as a chirp-z transform of the
    spectrum (three FFTs per axis).  Target points outside the source's
    fundamental domain get zeros (the periodic extension is never
    unrolled).  Raises MassLossError when the target box fails to cover the
    mass of ``f``.
    """
    src = f.grid
    if target.dim != src.dim:
        raise ValueError("resample cannot change dimensionality")
    if grids_close(src, target):
        return ComplexField(target, f.values)

    _check_mass_on_target(f, target)

    plan = spectral_plan(src)
    dual = plan.dual
    vals = plan.forward(f.values)
    # Sum exp(i x xi) against the spectrum one axis at a time; rows for
    # out-of-domain target points are zeroed.
    for axis in range(src.dim):
        xt = target.axis_coords(axis)
        e, pad = src.extents[axis], 1e-9 * src.spacings[axis]
        inside = (xt >= -e - pad) & (xt < e - pad)
        a = np.longdouble(target.spacings[axis]) * dual.spacings[axis]
        out = _chirp_z(np.moveaxis(vals, axis, -1), a, len(xt))
        out[..., ~inside] = 0.0
        vals = np.moveaxis(out, -1, axis)
    return ComplexField(target, spectral_plan(dual).prefactor * vals)


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
    outside = reduce(np.logical_or, ((x < -e) | (x >= e) for x, e in
                                     zip(f.grid.coordinate_arrays(), target.extents)))
    lost = _shell_fraction(f.values, outside)
    if lost > 1e-6:
        raise MassLossError(
            f"target grid drops {lost:.3e} of the field's mass (limit 1e-6)"
        )


def norms(f: ComplexField) -> dict:
    """L2 norm, |xi|-weighted spectral seminorm, |x|-weighted norm, sup norm."""
    plan = spectral_plan(f.grid)
    vals = f.values
    spec = plan.forward(vals)
    w = np.sqrt(np.fft.fftshift(plan.xi2))
    h1 = float(np.sqrt(plan.dual.cell_volume * np.sum((w * np.abs(spec)) ** 2)))
    r = np.sqrt(plan.r2)
    weighted_x = float(np.sqrt(f.grid.cell_volume * np.sum((r * np.abs(vals)) ** 2)))
    linf = float(np.max(np.abs(vals)))
    return {"l2": l2_norm(f), "h1_seminorm": h1, "weighted_x": weighted_x, "linf": linf}


def l2_norm(f: ComplexField) -> float:
    return float(np.sqrt(f.grid.cell_volume * np.sum(np.abs(f.values) ** 2)))


def l2_difference(a: ComplexField, b: ComplexField) -> float:
    if not grids_close(a.grid, b.grid):
        raise GridCompatibilityError(f"fields live on incompatible grids: {a.grid} vs {b.grid}")
    return float(np.sqrt(a.grid.cell_volume * np.sum(np.abs(a.values - b.values) ** 2)))


@dataclass(frozen=True)
class FieldDiagnostics:
    """Mass fractions in the outer 1/8 of the frequency and position ranges."""

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
    boundary = _shell_fraction(f.values, plan.shell)
    # the fraction is blind to the transform's prefactor and signs, so the
    # raw spectrum in FFT order will do
    tail = _shell_fraction(plan.fft(f.values), plan.dual_shell)
    return FieldDiagnostics(spectral_tail_fraction=tail, boundary_mass_fraction=boundary)
