"""Pseudo-conformal map, reflection, conjugation, gauge maps."""

import numpy as np
import pytest

from nlslab.core import (
    GridDescriptor,
    field_from_function,
    forward_fourier,
    grids_close,
    l2_difference,
    l2_norm,
)
from nlslab.errors import NlslabError
from nlslab.transforms import (
    GaugeParams,
    SnapshotAtTime,
    conjugate,
    gauge,
    gauge_phase_profile,
    pseudo_conformal,
    reflect,
    spectral_profile_decay_ladder,
)
from nlslab.util import fit_loglog_slope

from test_spectral import gaussian_field, grid1d, random_band_limited


class TestPseudoConformal:
    @pytest.mark.parametrize("tau", [2.3, -2.3, 0.4, -0.4])
    def test_double_application_is_reflection(self, tau):
        f = gaussian_field(grid1d(512, 0.05), width=0.8, center=1.5)
        once = pseudo_conformal(SnapshotAtTime(f, tau))
        twice = pseudo_conformal(once)
        assert abs(twice.time - tau) < 1e-12
        assert grids_close(twice.field.grid, f.grid, rtol=1e-12)
        expected = reflect(f)
        diff = np.max(np.abs(twice.field.values - expected.values))
        assert diff < 1e-6
        assert diff < 1e-12  # exact cancellation up to roundoff

    def test_norm_preserved(self):
        f = random_band_limited(grid1d(256, 0.1), seed=21)
        out = pseudo_conformal(SnapshotAtTime(f, 1.7))
        assert abs(l2_norm(out.field) - l2_norm(f)) < 1e-13

    def test_time_zero_rejected(self):
        f = gaussian_field(grid1d(256))
        with pytest.raises(ValueError):
            pseudo_conformal(SnapshotAtTime(f, 0.0))

    def test_gaussian_decay_ladder(self):
        # the free flow of F^{-1} phi and the conformal image of the static
        # profile agree up to O(1/t) for Gaussian data
        g = GridDescriptor.centered((4096,), (0.2,))
        phi = gaussian_field(g.dual())
        ladder = spectral_profile_decay_ladder(phi, [10.0, 20.0, 40.0, 80.0])
        errs = [e for _, e in ladder]
        assert all(b < a for a, b in zip(errs, errs[1:]))
        slope, _ = fit_loglog_slope([t for t, _ in ladder], errs)
        assert slope <= -0.4
        # Gaussian data is smooth: expect the t^{-1} rate, and the t=10 value
        # matches ||x^2 f||/(2t) = 0.5765/t to a few percent
        assert -1.2 < slope < -0.9
        assert abs(errs[0] - 0.05765) / 0.05765 < 0.05


class TestReflect:
    def test_involution(self):
        f = random_band_limited(grid1d(256, 0.1), seed=23)
        assert np.array_equal(reflect(reflect(f)).values, f.values)

    def test_even_fixed_point(self):
        f = gaussian_field(grid1d(512, 0.05))
        assert np.max(np.abs(reflect(f).values - f.values)) < 1e-15

    def test_odd_function_negates(self):
        g = grid1d(512, 0.05)
        f = field_from_function(g, lambda x: x * np.exp(-0.5 * x**2))
        assert np.max(np.abs(reflect(f).values + f.values)) < 1e-14

    def test_2d(self):
        g = GridDescriptor.centered((32, 32), (0.5, 0.5))
        f = field_from_function(g, lambda x, y: (x + 2 * y) * np.exp(-(x**2 + y**2)))
        assert np.max(np.abs(reflect(f).values + f.values)) < 1e-14


class TestConjugate:
    def test_real_fixed_point(self):
        f = gaussian_field(grid1d(256))
        assert np.array_equal(conjugate(f).values, f.values)

    def test_involution(self):
        f = random_band_limited(grid1d(256, 0.1), seed=29)
        assert np.array_equal(conjugate(conjugate(f)).values, f.values)

    def test_fourier_conjugation_symmetry(self):
        # F C = C F R, the classical symmetry, on a random smooth field
        f = random_band_limited(grid1d(512, 0.07), seed=31)
        lhs = forward_fourier(conjugate(f))
        rhs = conjugate(forward_fourier(reflect(f)))
        assert l2_difference(lhs, rhs) < 1e-12 * l2_norm(f)


class TestGauge:
    def test_lambda_zero_identity(self):
        f = gaussian_field(grid1d(512, 0.05))
        out = gauge(f, GaugeParams(0.0, +1))
        assert np.array_equal(out.values, f.values)

    def test_plus_minus_cancel(self):
        f = gaussian_field(grid1d(512, 0.05), amplitude=0.7)
        out = gauge(gauge(f, GaugeParams(1.3, +1)), GaugeParams(1.3, -1))
        assert np.max(np.abs(out.values - f.values)) < 1e-12

    def test_modulus_and_norm_preserved(self):
        f = gaussian_field(grid1d(512, 0.05), amplitude=0.5, wavenumber=2.0)
        out = gauge(f, GaugeParams(0.9, +1))
        np.testing.assert_allclose(np.abs(out.values), np.abs(f.values), rtol=1e-14)
        assert abs(l2_norm(out) - l2_norm(f)) < 1e-13

    def test_sech_total_phase(self):
        # f = sech(x)/2: integral of |f|^2 is 0.5, so the right-edge phase
        # equals lambda * 0.5
        g = grid1d(2048, 0.02)
        f = field_from_function(g, lambda x: 0.5 / np.cosh(x))
        phase = gauge_phase_profile(f, GaugeParams(1.0, +1))
        assert abs(phase[-1] - 0.5) < 1e-6

    def test_dimension_two_rejected(self):
        g = GridDescriptor.centered((32, 32), (0.3, 0.3))
        f = field_from_function(g, lambda x, y: np.exp(-(x**2 + y**2)))
        with pytest.raises(NlslabError):
            gauge(f, GaugeParams(1.0, +1))

    def test_boundary_mass_rejected(self):
        g = grid1d(256, 0.05)
        f = gaussian_field(g, center=0.95 * g.extents[0])
        with pytest.raises(NlslabError):
            gauge(f, GaugeParams(1.0, +1))

    @pytest.mark.parametrize("n, h", [(1024, 0.04), (2048, 0.02)])
    def test_phase_spectrally_exact(self, n, h):
        # |f|^2 = sech^2(x)/4 is band-limited to roundoff on these grids, so
        # the spectral antiderivative meets the analytic P(x) = (tanh(x)+1)/4
        # at every sample, not only to O(h^2) as a trapezoid would
        g = grid1d(n, h)
        f = field_from_function(g, lambda x: 0.5 / np.cosh(x))
        phase = gauge_phase_profile(f, GaugeParams(1.0, +1))
        exact = 0.25 * (np.tanh(g.axis_coords(0)) + 1.0)
        assert np.max(np.abs(phase - exact)) <= 1e-14
