"""Field-valued quadrature: flow integrands, corrector integrals, the
critical expansion identity, and the weighted sub-critical identities."""

import numpy as np
import pytest
from scipy.special import gammainc, gamma

import nlslab.born as born_module
from nlslab.born import (
    QuadratureSpec,
    born_integral,
    corollary2_sides,
    expansion_lhs_integrand,
    flow_integrand,
    nonlinear_flow,
    scalar_weighted_integral,
    subcritical_sides,
)
from nlslab.core import (
    GridDescriptor,
    field_from_function,
    forward_fourier,
    l2_difference,
    l2_norm,
)
from nlslab.errors import ConvergenceError

from test_spectral import gaussian_field, grid1d


@pytest.fixture
def phi():
    return gaussian_field(grid1d(1024, 0.039))


@pytest.fixture
def compact_grid():
    return grid1d(1024, 0.039)


class TestNonlinearFlow:
    def test_t_zero_pointwise(self, phi):
        out = nonlinear_flow(phi, 0.0, 2.0)
        expected = np.abs(phi.values) ** 4 * phi.values
        assert np.max(np.abs(out.values - expected)) < 1e-13

    def test_norm_bound(self, phi):
        out = nonlinear_flow(phi, 2.0, 2.0)
        u = np.abs(phi.values)
        bound = 1.0 * l2_norm(phi)  # sup |U0(t)phi| <= 1 for this datum
        assert l2_norm(out) <= bound

    @pytest.mark.parametrize("t", [0.0, 1.0, 5.0])
    def test_gaussian_dispersive_decay(self, phi, t):
        # closed form: ||G(U0(t) phi)|| = (pi/5)^(1/4) / (1 + t^2)
        out = nonlinear_flow(phi, t, 2.0)
        predicted = (np.pi / 5.0) ** 0.25 / (1.0 + t * t)
        assert abs(l2_norm(out) - predicted) / predicted < 1e-6


class TestIntegrandFactorization:
    """The |t| > T_SWITCH factorized route must agree with the literal
    operator route in an overlap window."""

    @pytest.mark.parametrize("t", [0.6, 1.5, -0.9, -1.5, 3.0])
    def test_flow_integrand_overlap(self, phi, t):
        saved = born_module.T_SWITCH
        try:
            born_module.T_SWITCH = 1e9
            direct = flow_integrand(phi, t, 2.0)
            born_module.T_SWITCH = 1e-9
            factored = flow_integrand(phi, t, 2.0)
        finally:
            born_module.T_SWITCH = saved
        assert l2_difference(direct, factored) / l2_norm(direct) < 1e-9

    @pytest.mark.parametrize("t", [0.6, 1.5, -0.9, -1.5, 3.0])
    def test_lhs_integrand_overlap(self, phi, t):
        saved = born_module.T_SWITCH
        try:
            born_module.T_SWITCH = 1e9
            direct = expansion_lhs_integrand(phi, t, 2.0)
            born_module.T_SWITCH = 1e-9
            factored = expansion_lhs_integrand(phi, t, 2.0)
        finally:
            born_module.T_SWITCH = saved
        assert l2_difference(direct, factored) / l2_norm(direct) < 1e-9

    def test_frequency_hosted_flow_overlap(self, phi):
        phihat = forward_fourier(phi)
        saved = born_module.T_SWITCH
        try:
            born_module.T_SWITCH = 1e9
            direct = flow_integrand(phihat, -1.4, 2.0)
            born_module.T_SWITCH = 1e-9
            factored = flow_integrand(phihat, -1.4, 2.0)
        finally:
            born_module.T_SWITCH = saved
        assert l2_difference(direct, factored) / l2_norm(direct) < 1e-9


class TestBornIntegral:
    def test_zero_datum(self, compact_grid):
        z = field_from_function(compact_grid, lambda x: 0.0 * x)
        out = born_integral(z, +1, 2.0, QuadratureSpec(t_max=50.0, panels=8))
        assert l2_norm(out.field) == 0.0

    def test_panel_doubling_stability(self, phi):
        out = born_integral(phi, +1, 2.0, QuadratureSpec(t_max=400.0, panels=48))
        assert out.refinement_delta < 1e-6 * l2_norm(out.field)

    def test_tail_bound_certified(self, phi):
        spec = QuadratureSpec(t_max=400.0, panels=48)
        out = born_integral(phi, +1, 2.0, spec)
        out2 = born_integral(
            phi, +1, 2.0, QuadratureSpec(t_max=800.0, panels=64)
        )
        change = l2_difference(out.field, out2.field)
        assert change < out.tail_bound

    def test_sign_symmetry_for_real_even_datum(self, phi):
        # oriented integrals for a real even datum: the past ray is the
        # conjugate of the future ray, so K_- = -conj(K_+)
        spec = QuadratureSpec(t_max=400.0, panels=48)
        kp = born_integral(phi, +1, 2.0, spec).field
        km = born_integral(phi, -1, 2.0, spec).field
        diff = np.max(np.abs(km.values + np.conj(kp.values)))
        assert diff < 1e-10 * np.max(np.abs(kp.values))

    def test_divergent_tail_rejected(self, phi):
        with pytest.raises(ConvergenceError):
            born_integral(phi, +1, 0.4, QuadratureSpec(t_max=100.0, panels=8))


class TestScalarSubstitutionOracles:
    def test_inverse_sqrt_weight(self):
        v = scalar_weighted_integral(lambda t: 1.0, -0.5, 1.0, 16)
        assert abs(v - 2.0) < 1e-12

    @pytest.mark.parametrize("a", [-0.5, -0.25])
    @pytest.mark.parametrize("k", [0.0, 1.0, 2.0, 3.5])
    def test_monomials(self, a, k):
        t_max = 3.0
        v = scalar_weighted_integral(lambda t: t**k, a, t_max, 24)
        exact = t_max ** (a + k + 1.0) / (a + k + 1.0)
        assert abs(v - exact) < 1e-10 * exact

    @pytest.mark.parametrize("a", [-0.5, -0.25])
    def test_exponential_incomplete_gamma(self, a):
        t_max = 6.0
        v = scalar_weighted_integral(lambda t: np.exp(-t), a, t_max, 32)
        exact = gamma(a + 1.0) * gammainc(a + 1.0, t_max)
        assert abs(v - exact) < 1e-10


class TestCorollary2:
    def test_zero_datum(self, compact_grid):
        z = field_from_function(compact_grid, lambda x: 0.0 * x)
        lhs, rhs = corollary2_sides(z, +1, QuadratureSpec(t_max=50.0, panels=8))
        assert l2_norm(lhs.field) == 0.0 and l2_norm(rhs.field) == 0.0

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_sides_agree_light(self, phi, sign):
        spec = QuadratureSpec(t_max=3200.0, panels=64)
        lhs, rhs = corollary2_sides(phi, sign, spec)
        rel = l2_difference(lhs.field, rhs.field) / l2_norm(lhs.field)
        assert rel < 1e-3

    def test_modulated_datum(self, compact_grid):
        # non-even data exercises the reflection bookkeeping in both routes
        f = field_from_function(
            compact_grid,
            lambda x: np.exp(-0.5 * (x - 0.7) ** 2) * np.exp(0.9j * x),
        )
        lhs, rhs = corollary2_sides(f, +1, QuadratureSpec(t_max=3200.0, panels=64))
        rel = l2_difference(lhs.field, rhs.field) / l2_norm(lhs.field)
        assert rel < 2e-3

    def test_first_order_consistency_with_corrector(self, phi):
        # F(K_+(phi)) = P_-(phi_hat): the transform of the future-ray
        # corrector equals the past-ray corollary-2 route on the transform
        spec = QuadratureSpec(t_max=3200.0, panels=64)
        k_plus = born_integral(phi, +1, 2.0, spec).field
        lhs = forward_fourier(k_plus)
        _, rhs = corollary2_sides(phi, +1, spec)
        rel = l2_difference(lhs, rhs.field) / l2_norm(lhs)
        assert rel < 1e-3


class TestSubcritical:
    def test_validity_window_enforced(self, phi):
        with pytest.raises(ValueError):
            subcritical_sides(phi, +1, 1, 0.9, QuadratureSpec())
        with pytest.raises(ValueError):
            subcritical_sides(phi, +1, 1, 2.1, QuadratureSpec())

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_identities_light(self, phi, sign):
        spec = QuadratureSpec(t_max=1e7, panels=96)
        (i1l, i1r), (i2l, i2r) = subcritical_sides(phi, sign, 1, 1.5, spec)
        r1 = l2_difference(i1l.field, i1r.field) / l2_norm(i1l.field)
        r2 = l2_difference(i2l.field, i2r.field) / l2_norm(i2l.field)
        assert r1 < 1e-3 and r2 < 1e-3

    def test_weighted_and_plain_sides_differ_per_time(self, phi):
        # the identities hold for the integrals, not the integrands: check
        # the weighted right route is genuinely different from the left one
        spec = QuadratureSpec(t_max=1e5, panels=64)
        (i1l, i1r), _ = subcritical_sides(phi, +1, 1, 1.5, spec)
        assert l2_difference(i1l.field, i1r.field) > 0
