"""Spectral core: transforms, propagator, M/D factors, resampling, norms."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlslab.core import (
    ComplexField,
    GridDescriptor,
    _density_power,
    diagnostics,
    dilate,
    field_from_function,
    forward_fourier,
    free_propagate,
    inverse_fourier,
    l2_difference,
    l2_norm,
    norms,
    quadratic_phase,
    resample,
    spectral_plan,
)
from nlslab.errors import MassLossError
from nlslab.io import read_snapshot, write_snapshot

from oracles import (
    PI_QUARTER,
    direct_transform_1d,
    gaussian_free_solution,
    trapezoid_l2,
)


def grid1d(n=1024, h=0.05):
    return GridDescriptor.centered((n,), (h,))


def gaussian_field(grid, width=1.0, amplitude=1.0, center=0.0, wavenumber=0.0):
    return field_from_function(
        grid,
        lambda x: amplitude
        * np.exp(-((x - center) ** 2) / (2.0 * width**2))
        * np.exp(1j * wavenumber * x),
    )


def random_band_limited(grid, seed=0, band=0.25):
    """Random smooth field: random low modes, zero elsewhere."""
    rng = np.random.default_rng(seed)
    dual = grid.dual()
    spec = np.zeros(grid.counts, dtype=np.complex128)
    mask = np.ones(grid.counts, dtype=bool)
    for axis in range(grid.dim):
        xi = np.abs(dual.axis_coords(axis))
        cut = band * xi.max()
        shape = [1] * grid.dim
        shape[axis] = len(xi)
        mask &= (xi <= cut).reshape(shape)
    spec[mask] = rng.standard_normal(mask.sum()) + 1j * rng.standard_normal(mask.sum())
    return inverse_fourier(ComplexField(dual, spec.reshape(-1)))


class TestGridDescriptor:
    def test_centered_construction(self):
        g = GridDescriptor.centered((64,), (0.1,))
        assert g.offsets == (-3.2,)
        assert g.dim == 1

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            GridDescriptor.centered((100,), (0.1,))

    @pytest.mark.parametrize("counts", [(1024.7,), (16.9, 8.2), (float("inf"),)])
    def test_rejects_non_integral_counts(self, counts):
        # a fraction is refused, not truncated to a power of two, and an
        # infinite count is a ValueError too
        with pytest.raises(ValueError, match="not all integers"):
            GridDescriptor.centered(counts, (0.1,) * len(counts))

    def test_accepts_integral_float_counts(self):
        assert GridDescriptor.centered((1024.0, 8.0), (0.1, 0.2)).counts == (1024, 8)

    def test_dual_round_trip(self):
        g = GridDescriptor.centered((256, 64), (0.05, 0.2))
        gd = g.dual().dual()
        assert gd.counts == g.counts
        np.testing.assert_allclose(gd.spacings, g.spacings, rtol=1e-14)


class TestForwardFourier:
    def test_gaussian_self_dual(self):
        g = grid1d()
        f = gaussian_field(g)
        fhat = forward_fourier(f)
        expected = np.exp(-0.5 * fhat.grid.axis_coords(0) ** 2)
        assert np.max(np.abs(fhat.values - expected)) < 1e-12

    def test_zero_maps_to_zero(self):
        g = grid1d(256)
        f = field_from_function(g, lambda x: 0.0 * x)
        assert np.all(forward_fourier(f).values == 0)

    def test_modulated_gaussian_shift(self):
        # oracle: dense summation of the same integrand at 8x resolution
        g = grid1d(512, 0.08)
        k0 = 3.0
        fn = lambda x: np.exp(-0.5 * x**2) * np.exp(1j * k0 * x)
        f = field_from_function(g, fn)
        fhat = forward_fourier(f)
        xi = fhat.grid.axis_coords(0)
        oracle = direct_transform_1d(g.axis_coords(0), None, xi, oversample_from=(fn, 8))
        assert np.max(np.abs(fhat.values - oracle)) < 1e-12
        shifted = np.exp(-0.5 * (xi - k0) ** 2)
        assert np.max(np.abs(fhat.values - shifted)) < 1e-10

    def test_plancherel(self):
        f = random_band_limited(grid1d(512, 0.07), seed=3)
        fhat = forward_fourier(f)
        assert abs(l2_norm(fhat) - l2_norm(f)) < 1e-12 * l2_norm(f)

    @given(
        st.integers(min_value=0, max_value=50),
        st.sampled_from([16, 64, 256, 1024]),
        st.floats(min_value=0.02, max_value=0.5),
    )
    @settings(max_examples=16, deadline=None)
    def test_round_trip_property(self, seed, n, h):
        f = random_band_limited(grid1d(n, h), seed=seed)
        back = inverse_fourier(forward_fourier(f))
        assert l2_difference(back, f) < 1e-12 * max(l2_norm(f), 1e-30)


class TestInverseFourier:
    def test_gaussian(self):
        g = grid1d()
        fhat = gaussian_field(g.dual(), width=1.0)
        f = inverse_fourier(fhat)
        expected = np.exp(-0.5 * f.grid.axis_coords(0) ** 2)
        assert np.max(np.abs(f.values - expected)) < 1e-12

    def test_shifted_spectrum_gives_modulation(self):
        g = grid1d(512, 0.08)
        dual = g.dual()
        xi = dual.axis_coords(0)
        fhat = ComplexField(dual, np.exp(-0.5 * (xi - 3.0) ** 2))
        f = inverse_fourier(fhat)
        x = f.grid.axis_coords(0)
        expected = np.exp(-0.5 * x**2) * np.exp(1j * 3.0 * x)
        assert np.max(np.abs(f.values - expected)) < 1e-10


class TestFreePropagate:
    def test_t_zero_identity(self):
        f = random_band_limited(grid1d(256, 0.1), seed=1)
        out = free_propagate(f, 0.0)
        assert l2_difference(out, f) < 1e-13

    @pytest.mark.parametrize("t", [0.5, 2.0, 10.0])
    def test_gaussian_closed_form(self, t):
        g = grid1d(2048, 0.08)
        f = gaussian_field(g)
        out = free_propagate(f, t)
        expected = gaussian_free_solution(g.axis_coords(0), t)
        err = np.sqrt(g.cell_volume * np.sum(np.abs(out.values - expected) ** 2))
        assert err < 1e-8

    def test_group_law(self):
        f = random_band_limited(grid1d(512, 0.07), seed=5)
        a = free_propagate(free_propagate(f, 0.3), 0.7)
        b = free_propagate(f, 1.0)
        assert l2_difference(a, b) < 1e-13 * l2_norm(f)

    def test_unitarity(self):
        f = random_band_limited(grid1d(512, 0.07), seed=6)
        assert abs(l2_norm(free_propagate(f, 3.7)) - l2_norm(f)) < 1e-13

    def test_frequency_space_multiplier(self):
        # F U0(t) f = exp(-i t |xi|^2 / 2) F f
        t = 1.3
        f = random_band_limited(grid1d(256, 0.1), seed=7)
        a = forward_fourier(free_propagate(f, t))
        fhat = forward_fourier(f)
        b = fhat.with_values(fhat.values * np.exp(-0.5j * t * fhat.grid.axis_coords(0) ** 2))
        assert l2_difference(a, b) < 1e-12 * l2_norm(f)


class TestSpectralPlan:
    def test_one_read_only_plan_per_grid(self):
        # the plan is shared by every caller, so equal grids get the same
        # plan and no array can be written
        g = GridDescriptor.centered((32, 16), (0.3, 0.2))
        plan = spectral_plan(g)
        assert spectral_plan(GridDescriptor.centered((32, 16), (0.3, 0.2))) is plan
        for arr in (plan.signs, plan.r2, plan.xi2, plan.shell, plan.dual_shell):
            assert arr.shape == g.counts
            with pytest.raises(ValueError):
                arr[0, 0] = 1
        assert not spectral_plan(grid1d(64, 0.1)).derivative_symbol.flags.writeable

    def test_fft_order_symbols_match_centered_grids(self):
        g = GridDescriptor.centered((16, 8), (0.3, 0.2))
        plan = spectral_plan(g)
        assert np.array_equal(np.fft.fftshift(plan.xi2), g.dual().radius_squared())
        assert np.array_equal(plan.r2, g.radius_squared())

    @pytest.mark.parametrize("counts, spacings", [
        ((1024,), (0.039,)), ((4096,), (0.34,)), ((64, 32), (0.3, 0.45)),
        ((256, 256), (0.64, 0.64)),
    ])
    def test_dual_of_dual_symbols_are_reordered(self, counts, spacings):
        # the quadrature rows share one chirp between a grid and its dual
        plan = spectral_plan(GridDescriptor.centered(counts, spacings))
        back = spectral_plan(plan.dual)
        assert np.array_equal(back.xi2, np.fft.ifftshift(plan.r2))
        assert np.array_equal(back.r2, np.fft.fftshift(plan.xi2))

    def test_density_power(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        assert np.array_equal(_density_power(v, 1.0), v.real**2 + v.imag**2)
        for sigma in (1.5, 2.0):
            exact = np.abs(v) ** (2.0 * sigma)
            assert np.max(np.abs(_density_power(v, sigma) / exact - 1.0)) < 1e-14

    def test_derivative_of_gaussian(self):
        g = grid1d(512, 0.05)
        x = g.axis_coords(0)
        out = spectral_plan(g).derivative(np.exp(-0.5 * x**2))
        assert np.max(np.abs(out - (-x * np.exp(-0.5 * x**2)))) < 1e-12


def bits(x):
    """The bits of the float64 parts of ``x``, so that equal bits mean equal
    values with -0.0 and 0.0 told apart."""
    return np.ascontiguousarray(x).view(np.uint64)


class TestGridTransformPins:
    """The field-level operators run on the plan's per-axis transform; each
    is bit for bit its formula on np.fft.fftn and ifftn."""

    @pytest.fixture(params=[((256,), (0.1,)), ((64, 32), (0.3, 0.45))], ids=["1d", "2d"])
    def field(self, request):
        return random_band_limited(GridDescriptor.centered(*request.param), seed=11)

    def test_forward_and_inverse(self, field):
        plan = spectral_plan(field.grid)
        spec = np.fft.fftshift(np.fft.fftn(field.values))
        spec *= plan.signs
        spec *= plan.prefactor
        assert np.array_equal(bits(forward_fourier(field).values), bits(spec))
        vals = np.fft.ifftn(np.fft.ifftshift(field.values * plan.signs))
        vals *= plan.prefactor * field.grid.size
        assert np.array_equal(bits(inverse_fourier(field).values), bits(vals))

    def test_free_propagate(self, field):
        plan = spectral_plan(field.grid)
        for t in (0.37, -2.5):
            spec = np.fft.fftn(field.values)
            spec *= plan.free_multiplier(t)
            assert np.array_equal(bits(free_propagate(field, t).values),
                                  bits(np.fft.ifftn(spec)))

    def test_diagnostics(self, field):
        plan = spectral_plan(field.grid)
        for f in (field, free_propagate(field, 40.0)):
            spec = np.fft.fftn(f.values)
            density = np.abs(spec) ** 2
            tail = float(density[plan.dual_shell].sum() / density.sum())
            d = diagnostics(f)
            assert d.spectral_tail_fraction == tail and tail > 0.0
            density = np.abs(f.values) ** 2
            assert d.boundary_mass_fraction == float(density[plan.shell].sum()
                                                     / density.sum())

    def test_derivative(self):
        f = random_band_limited(grid1d(256, 0.1), seed=12)
        plan = spectral_plan(f.grid)
        # a complex field, and a real density as ``residual`` differentiates
        for a in (f.values, np.abs(f.values) ** 2):
            spec = np.fft.fftn(a)
            spec *= plan.derivative_symbol
            assert np.array_equal(bits(plan.derivative(a)), bits(np.fft.ifftn(spec)))


class TestQuadraticPhase:
    def test_modulus_preserved(self):
        f = random_band_limited(grid1d(256, 0.1), seed=2)
        out = quadratic_phase(f, 1.7)
        np.testing.assert_allclose(np.abs(out.values), np.abs(f.values), rtol=1e-14)

    def test_inverse_pair(self):
        f = random_band_limited(grid1d(256, 0.1), seed=3)
        out = quadratic_phase(quadratic_phase(f, 2.2), -2.2)
        assert l2_difference(out, f) < 1e-13 * l2_norm(f)

    def test_t_zero_rejected(self):
        with pytest.raises(ValueError):
            quadratic_phase(gaussian_field(grid1d(256)), 0.0)

    def test_small_angle_bound(self):
        # || (M_t - 1) f || ~ || x^2 f || / (2 t) for large t, by quadrature
        g = grid1d(1024, 0.02)
        f = gaussian_field(g)
        t = 100.0
        x = g.axis_coords(0)
        lhs = l2_difference(quadratic_phase(f, t), f)
        oracle = np.sqrt(
            np.trapezoid(4.0 * np.sin(x**2 / (4 * t)) ** 2 * np.abs(f.values) ** 2, x)
        )
        assert abs(lhs - oracle) < 1e-10
        approx = trapezoid_l2(x, x**2 * f.values) / (2 * t)
        assert abs(lhs - approx) / approx < 1e-3


class TestDilate:
    def test_unit_dilation_phase(self):
        f = gaussian_field(grid1d(256))
        out = dilate(f, 1.0)
        np.testing.assert_allclose(
            out.values, np.exp(-0.25j * np.pi) * f.values, rtol=1e-14
        )

    def test_unitarity(self):
        f = random_band_limited(grid1d(512, 0.07), seed=9)
        for t in (3.0, -2.5, 0.4):
            assert abs(l2_norm(dilate(f, t)) - l2_norm(f)) < 1e-13

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 5.0])
    def test_factorization_matches_free_propagate(self, t):
        # U0(t) = M_t D_t F M_t, compared after resampling back
        g = grid1d(1024, 0.08)
        f = gaussian_field(g)
        direct = free_propagate(f, t)
        m1 = quadratic_phase(f, t)
        fm = forward_fourier(m1)
        dm = dilate(fm, t)
        factored = quadratic_phase(dm, t)
        back = resample(factored, g)
        assert l2_difference(back, direct) < 1e-8


# 2pi to long-double precision
TWO_PI_LD = np.longdouble("6.28318530717958647692528676655900577")


def dense_resample(f, target, chunk=512):
    """The band-limited interpolant of ``f`` at the ``target`` points, summed
    directly as exp(i x xi) @ spectrum, one axis at a time, in row chunks.

    Each phase x xi is formed in long double and reduced mod 2pi before the
    float64 exp: rounded to float64 as it is, a phase of a few thousand rad
    is off by ~1e-12, which on a broadband spectrum puts the plain float64
    sum ~1e-11 away from the exact one.  Points outside the source box are
    zero and are not summed.
    """
    spec = forward_fourier(f)
    vals = spec.values
    for axis in range(f.grid.dim):
        n, m = f.grid.counts[axis], target.counts[axis]
        x = (np.arange(m) - m // 2) * np.longdouble(target.spacings[axis])
        xi = (np.arange(n) - n // 2) * np.longdouble(spec.grid.spacings[axis])
        rows = np.flatnonzero(np.abs(x) <= f.grid.extents[axis])
        vals = np.moveaxis(vals, axis, 0)
        out = np.zeros((m,) + vals.shape[1:], dtype=np.complex128)
        for start in range(0, len(rows), chunk):
            block = rows[start : start + chunk]
            phase = np.remainder(np.outer(x[block], xi), TWO_PI_LD).astype(np.float64)
            out[block] = np.tensordot(np.exp(1j * phase), vals, axes=(1, 0))
        vals = np.moveaxis(out, 0, axis)
    pref = (2 * np.pi) ** (-0.5 * f.grid.dim) * spec.grid.cell_volume
    return pref * vals


def outside_box(source, target):
    """Mask of the target points outside the source box, shaped like a field."""
    out = np.zeros(target.counts, dtype=bool)
    for axis in range(target.dim):
        shape = [1] * target.dim
        shape[axis] = target.counts[axis]
        far = np.abs(target.axis_coords(axis)) > source.extents[axis]
        out |= far.reshape(shape)
    return out


class TestResample:
    def test_same_grid_identity(self):
        f = gaussian_field(grid1d(256))
        out = resample(f, f.grid)
        assert np.array_equal(out.values, f.values)

    def test_refinement_matches_analytic(self):
        g = grid1d(1024, 0.05)
        f = gaussian_field(g)
        fine = GridDescriptor.centered((2048,), (0.025,))
        out = resample(f, fine)
        expected = np.exp(-0.5 * fine.axis_coords(0) ** 2)
        assert np.max(np.abs(out.values - expected)) < 1e-10

    def test_half_cell_offsets_match_direct_evaluation(self):
        # doubling the count halves the spacing; the new odd-index samples sit
        # at the old midpoints, compared against dense trig evaluation
        g = grid1d(256, 0.1)
        f = random_band_limited(g, seed=11)
        fine = GridDescriptor.centered((512,), (0.05,))
        out = resample(f, fine)
        mid = fine.axis_coords(0)[1::2]
        spec = forward_fourier(f)
        xi = spec.grid.axis_coords(0)
        kernel = np.exp(1j * np.outer(mid, xi))
        direct = (
            (2 * np.pi) ** -0.5 * spec.grid.cell_volume * kernel.dot(spec.values)
        )
        assert np.max(np.abs(out.values[1::2] - direct)) < 1e-10

    def test_mass_loss_rejected(self):
        g = grid1d(512, 0.1)
        f = gaussian_field(g, center=20.0)
        small = GridDescriptor.centered((64,), (0.1,))
        with pytest.raises(MassLossError):
            resample(f, small)

    def test_embedding_zero_fills(self):
        g = grid1d(64, 0.1)
        f = gaussian_field(g, width=0.5)
        wide = GridDescriptor.centered((512,), (0.2,))
        out = resample(f, wide)
        x = wide.axis_coords(0)
        assert np.all(out.values[np.abs(x) > 3.3] == 0)
        inside = np.abs(x) < 2.0
        np.testing.assert_allclose(
            out.values[inside], np.exp(-2.0 * x[inside] ** 2), atol=1e-9
        )

    def check_against_dense(self, f, target):
        out = resample(f, target).values
        ref = dense_resample(f, target)
        assert np.all(out[outside_box(f.grid, target)] == 0)
        assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)

    # The grid pair of the Fourier exchange: h = 0.55 and its dual.  Going
    # from the dual, the chirp phases reach ~2.5e6 rad at 4096 points and
    # are only accurate enough when reduced mod 2pi in long double.  Going
    # to the dual they stay below ~35 rad at any count.
    def test_exchange_grid_to_dual(self):
        g = grid1d(4096, 0.55)
        f = gaussian_field(g, width=0.8, center=0.4, wavenumber=2.5)
        self.check_against_dense(f, g.dual())

    @pytest.mark.parametrize("n", [4096, 8192])
    def test_exchange_grid_from_dual(self, n):
        # a spectrum filling most of the band weights the large phases; most
        # target points lie outside the dual's box and must come out as 0
        g = grid1d(n, 0.55)
        f = random_band_limited(g.dual(), seed=5, band=0.9)
        self.check_against_dense(f, g)

    def test_two_dim_unequal_counts(self):
        # one axis gains points and the other loses them; both reach past
        # the source box
        src = GridDescriptor.centered((64, 32), (0.25, 0.4))
        f = field_from_function(
            src, lambda x, y: np.exp(-(x**2) / 2 - (y - 0.5) ** 2 + 1.5j * x - 0.7j * y)
        )
        target = GridDescriptor.centered((128, 16), (0.3, 0.9))
        assert outside_box(src, target).any()
        self.check_against_dense(f, target)


class TestNorms:
    def test_zero_field(self):
        f = field_from_function(grid1d(256), lambda x: 0.0 * x)
        n = norms(f)
        assert all(v == 0.0 for v in n.values())

    def test_gaussian_l2(self):
        f = gaussian_field(grid1d(2048, 0.02))
        assert abs(norms(f)["l2"] - PI_QUARTER) < 1e-10

    def test_gaussian_h1_and_weighted(self):
        f = gaussian_field(grid1d(2048, 0.02))
        n = norms(f)
        # ||xi exp(-xi^2/2)|| = (sqrt(pi)/2)^(1/2), same for ||x f|| by symmetry
        expected = float(np.sqrt(np.sqrt(np.pi) / 2.0))
        assert abs(n["h1_seminorm"] - expected) < 1e-10
        assert abs(n["weighted_x"] - expected) < 1e-10
        assert abs(n["linf"] - 1.0) < 1e-12

    def test_plancherel_consistency(self):
        f = random_band_limited(grid1d(512, 0.07), seed=13)
        assert abs(norms(f)["l2"] - norms(forward_fourier(f))["l2"]) < 1e-12


class TestDiagnostics:
    def test_resolved_gaussian(self):
        d = diagnostics(gaussian_field(grid1d(1024, 0.05)))
        assert d.spectral_tail_fraction < 1e-12
        assert d.boundary_mass_fraction < 1e-12

    def test_near_nyquist_modulation(self):
        g = grid1d(1024, 0.05)
        k0 = 0.95 * np.pi / 0.05
        d = diagnostics(gaussian_field(g, wavenumber=k0))
        assert d.spectral_tail_fraction > 0.1

    def test_edge_translation(self):
        g = grid1d(1024, 0.05)
        d_edge = diagnostics(gaussian_field(g, center=0.97 * g.extents[0]))
        assert d_edge.boundary_mass_fraction > 0.1


class TestSnapshotIO:
    def test_round_trip_bitwise(self, tmp_path):
        f = random_band_limited(grid1d(256, 0.1), seed=17)
        p = tmp_path / "field.nlsf"
        write_snapshot(p, f)
        back = read_snapshot(p)
        assert back.grid.counts == f.grid.counts
        assert back.grid.spacings == f.grid.spacings
        assert np.array_equal(back.values, f.values)

    def test_round_trip_2d_frequency(self, tmp_path):
        g = GridDescriptor.centered((16, 32), (0.3, 0.2))
        rng = np.random.default_rng(0)
        vals = rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size)
        # samples on a dual (frequency) grid are written like any others
        f = ComplexField(g.dual(), vals)
        p = tmp_path / "field2d.nlsf"
        write_snapshot(p, f)
        back = read_snapshot(p)
        assert back.grid == f.grid
        assert np.array_equal(back.values, f.values)

    def test_flat_samples_take_the_grid_shape(self, tmp_path):
        g = GridDescriptor.centered((16, 32), (0.3, 0.2))
        rng = np.random.default_rng(1)
        flat = rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size)
        f = ComplexField(g, flat)
        assert f.values.shape == g.counts
        assert np.array_equal(f.values, flat.reshape(g.counts))
        p = tmp_path / "flat.nlsf"
        write_snapshot(p, f)
        # the payload holds the samples in row-major order
        head = struct.pack("<4sII", b"NLSF", 1, 2) + b"".join(
            struct.pack("<Qdd", n, h, x0)
            for n, h, x0 in zip(g.counts, g.spacings, g.offsets))
        assert p.read_bytes() == head + b"\x00" + flat.astype("<c16").tobytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.nlsf"
        p.write_bytes(b"XXXX" + b"\0" * 64)
        with pytest.raises(ValueError):
            read_snapshot(p)
