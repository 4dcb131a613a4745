"""Wave operators, their inverses, and the operator-identity verifications."""

import numpy as np
import pytest

from nlslab.born import QuadratureSpec, born_integral
from nlslab.core import (
    GridDescriptor,
    field_from_function,
    l2_difference,
    l2_norm,
)
from nlslab.errors import ConvergenceError, NlslabError
from nlslab.scattering import (
    ScatteringConfig,
    inverse_wave_operator,
    verify_conjugation,
    verify_lemma23,
    verify_theorem1,
    wave_operator,
)
from nlslab.solvers import NLSParams, StepControl

from test_spectral import gaussian_field, grid1d


def normalized_gaussian(grid, delta):
    amp = delta * np.pi ** (-0.25 * grid.dim)
    return field_from_function(
        grid, lambda *cs: amp * np.exp(-0.5 * sum(c**2 for c in cs))
    )


@pytest.fixture
def wide_grid():
    return grid1d(1024, 0.25)  # L = 128


@pytest.fixture
def params():
    return NLSParams(dim=1, sigma=2.0, mu=1.0)


def light_cfg(horizon=12.0, **kw):
    defaults = dict(
        horizon=horizon, tol=1e-4, max_rungs=3, control=StepControl(dt=0.04),
        corrector=QuadratureSpec(t_max=4000.0, panels=32),
    )
    defaults.update(kw)
    return ScatteringConfig(**defaults)


class TestWaveOperator:
    def test_zero_datum(self, wide_grid, params):
        z = field_from_function(wide_grid, lambda x: 0.0 * x)
        r = wave_operator(z, +1, params, light_cfg(max_rungs=2))
        assert l2_norm(r.field) == 0.0

    def test_free_equation_identity(self, wide_grid):
        f = normalized_gaussian(wide_grid, 0.2)
        p0 = NLSParams(dim=1, sigma=2.0, mu=0.0)
        r = wave_operator(f, +1, p0, light_cfg(max_rungs=2))
        assert l2_difference(r.field, f) < 1e-12
        assert r.converged

    def test_small_data_guard(self, wide_grid, params):
        f = gaussian_field(wide_grid, amplitude=1.0)
        with pytest.raises(NlslabError):
            wave_operator(f, +1, params, light_cfg())

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_first_order_term_against_corrector(self, wide_grid, params, sign):
        # || W(a) - a || ~ delta^5 ||K||, and the +i orientation is the one
        # that cancels: this pins the sign convention of the expansion
        delta = 0.2
        phi = normalized_gaussian(wide_grid, 1.0)
        a = phi.with_values(delta * phi.values)
        cfg = light_cfg(horizon=20.0, max_rungs=1, control=StepControl(dt=0.02))
        w = wave_operator(a, sign, params, cfg).field
        k = born_integral(phi, sign, 2.0, QuadratureSpec(t_max=4000.0, panels=48)).field
        first = delta**5 * k.values
        linear = w.values - a.values
        vol = wide_grid.cell_volume
        with_plus = np.sqrt(vol * np.sum(np.abs(linear - 1j * first) ** 2))
        with_minus = np.sqrt(vol * np.sum(np.abs(linear + 1j * first) ** 2))
        scale = delta**5 * l2_norm(k)
        assert abs(l2_difference(w, a) - scale) / scale < 0.05
        assert with_plus < 0.1 * scale
        assert with_minus > 1.5 * scale

    def test_born_initializer_shrinks_horizon_bias(self, params):
        g = grid1d(2048, 0.25)  # L = 256: holds the 4x-horizon reference
        a = normalized_gaussian(g, 0.25)
        ref = wave_operator(
            a, +1, params, light_cfg(horizon=40.0, max_rungs=1, initializer="born")
        ).field
        free_run = wave_operator(a, +1, params, light_cfg(horizon=10.0, max_rungs=1))
        born_run = wave_operator(
            a, +1, params, light_cfg(horizon=10.0, max_rungs=1, initializer="born")
        )
        bias_free = l2_difference(free_run.field, ref)
        bias_born = l2_difference(born_run.field, ref)
        assert bias_born < 0.05 * bias_free

    def test_ladder_exhaustion_raises(self, wide_grid, params):
        a = normalized_gaussian(wide_grid, 0.3)
        with pytest.raises(ConvergenceError):
            wave_operator(a, +1, params, light_cfg(horizon=2.0, tol=1e-14))


class TestInverseWaveOperator:
    def test_free_equation_identity(self, wide_grid):
        f = normalized_gaussian(wide_grid, 0.2)
        p0 = NLSParams(dim=1, sigma=2.0, mu=0.0)
        r = inverse_wave_operator(f, -1, p0, light_cfg(max_rungs=2))
        assert l2_difference(r.field, f) < 1e-12

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_round_trip(self, wide_grid, params, sign):
        battery = [
            normalized_gaussian(wide_grid, 0.2),
            gaussian_field(wide_grid, amplitude=0.15, width=1.3, wavenumber=0.8),
            field_from_function(wide_grid, lambda x: 0.15 / np.cosh(x)),
            gaussian_field(wide_grid, amplitude=0.1, center=1.0),
            field_from_function(
                wide_grid,
                lambda x: 0.1 * (np.exp(-0.5 * (x - 2) ** 2) + np.exp(-((x + 2) ** 2))),
            ),
        ]
        cfg = light_cfg(horizon=6.0, max_rungs=3, tol=2e-4)
        for f in battery:
            w = wave_operator(f, sign, params, cfg)
            back = inverse_wave_operator(w.field, sign, params, cfg)
            rel = l2_difference(back.field, f) / l2_norm(f)
            assert rel < 2 * cfg.tol

    def test_inverse_first_order_sign_flipped(self, wide_grid, params):
        delta = 0.2
        phi = normalized_gaussian(wide_grid, 1.0)
        a = phi.with_values(delta * phi.values)
        cfg = light_cfg(horizon=20.0, max_rungs=1, control=StepControl(dt=0.02))
        w_inv = inverse_wave_operator(a, +1, params, cfg).field
        k = born_integral(phi, +1, 2.0, QuadratureSpec(t_max=4000.0, panels=48)).field
        linear = w_inv.values - a.values
        vol = wide_grid.cell_volume
        with_minus = np.sqrt(vol * np.sum(np.abs(linear + 1j * delta**5 * k.values) ** 2))
        scale = delta**5 * l2_norm(k)
        assert with_minus < 0.1 * scale

    def test_ladder_exhaustion_raises(self, wide_grid, params):
        a = normalized_gaussian(wide_grid, 0.3)
        with pytest.raises(ConvergenceError):
            inverse_wave_operator(a, +1, params, light_cfg(horizon=2.0, tol=1e-14))

    def test_tail_estimate_reported_not_applied(self, wide_grid, params):
        a = normalized_gaussian(wide_grid, 0.25)
        r = inverse_wave_operator(a, +1, params, light_cfg(horizon=10.0, tol=5e-5))
        assert r.converged
        assert np.isfinite(r.tail_estimate)


class TestVerifyTheorem1:
    def test_free_equation_exact(self, wide_grid):
        u0 = normalized_gaussian(wide_grid, 0.2)
        p0 = NLSParams(dim=1, sigma=2.0, mu=0.0)
        rep = verify_theorem1(u0, p0, light_cfg(max_rungs=1), tolerance=1e-9)
        assert rep.verdict == "pass"

    @pytest.mark.parametrize("mu", [1.0, -1.0])
    def test_small_data_both_couplings(self, mu):
        g = grid1d(2048, 0.35)
        u0 = normalized_gaussian(g, 0.3)
        p = NLSParams(dim=1, sigma=2.0, mu=mu)
        cfg = ScatteringConfig(horizon=60.0, tol=1e-4, max_rungs=1,
                               control=StepControl(dt=0.02))
        rep = verify_theorem1(u0, p, cfg, tolerance=1e-3)
        assert rep.verdict == "pass"
        for r in rep.residuals:
            assert r.value < 2e-4


class TestVerifyConjugation:
    def test_light_run(self):
        g = grid1d(2048, 0.35)
        u0 = normalized_gaussian(g, 0.3)
        p = NLSParams(dim=1, sigma=2.0, mu=1.0)
        cfg = ScatteringConfig(horizon=60.0, tol=1e-4, max_rungs=1,
                               control=StepControl(dt=0.02))
        rep = verify_conjugation(u0, p, cfg, tolerance=1e-3)
        assert rep.verdict == "pass"


class TestVerifyLemma23:
    def test_ladder_and_asymptotic_match(self):
        fine = GridDescriptor.centered((2048,), (0.008,))
        u0 = normalized_gaussian(fine, 0.3)
        p = NLSParams(dim=1, sigma=2.0, mu=1.0)
        scat = grid1d(2048, 0.35)
        cfg = ScatteringConfig(horizon=80.0, tol=1e-4, max_rungs=1,
                               control=StepControl(dt=0.02))
        rep = verify_lemma23(
            u0, p, cfg, ladder_times=(10.0, 20.0, 40.0), scattering_grid=scat
        )
        assert rep.verdict == "pass"
        slope = rep.fitted_rates[0]["value"]
        assert slope < -0.4

    def test_free_flow_cancels_exactly(self):
        # mu=0: the conformal return is exactly the transform of the datum:
        # M_{-t} F^{-1} U0(-1/t) u0 = F^{-1} u0, so the two error terms of
        # the triangle bound cancel and only roundoff/resampling remains,
        # far below the small-angle scale sqrt(3)/2/(2t)
        fine = GridDescriptor.centered((2048,), (0.008,))
        u0 = normalized_gaussian(fine, 0.3)
        p0 = NLSParams(dim=1, sigma=2.0, mu=0.0)
        cfg = ScatteringConfig(horizon=40.0, tol=1e-4, max_rungs=1,
                               control=StepControl(dt=0.02))
        rep = verify_lemma23(u0, p0, cfg, ladder_times=(10.0, 20.0, 40.0))
        ladder = rep.ladders["free_return_to_transform"]
        for t, e in ladder:
            small_angle = np.sqrt(3.0) / 2.0 / (2.0 * t)
            assert e < 1e-3 * small_angle


class TestN2Smoke:
    def test_free_identity_and_small_roundtrip(self):
        g = GridDescriptor.centered((64, 64), (0.65, 0.65))
        u0 = normalized_gaussian(g, 0.1)
        p = NLSParams(dim=2, mu=1.0)
        cfg = ScatteringConfig(horizon=1.5, tol=2e-4, max_rungs=2,
                               control=StepControl(dt=0.02))
        p0 = NLSParams(dim=2, mu=0.0)
        r0 = wave_operator(u0, +1, p0, cfg)
        assert l2_difference(r0.field, u0) < 1e-12
        w = wave_operator(u0, -1, p, cfg)
        back = inverse_wave_operator(w.field, -1, p, cfg)
        assert l2_difference(back.field, u0) / l2_norm(u0) < 2 * cfg.tol
