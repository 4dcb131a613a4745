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
    _reflect_values,
    field_from_function,
    forward_fourier,
    l2_difference,
    l2_norm,
    spectral_plan,
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


def _power(v, sigma):
    return np.abs(v) ** (2.0 * sigma) * v


def flow_node(phi, t, sigma):
    """One node of U0(-t) G(U0(t) phi), literally or factorized by T_SWITCH."""
    plan = spectral_plan(phi.grid)
    if abs(t) <= born_module.T_SWITCH:
        m = plan.free_multiplier(t)
        u = np.fft.ifftn(np.fft.fftn(phi.shaped) * m)
        return np.fft.ifftn(np.fft.fftn(_power(u, sigma)) * np.conj(m))
    inner = plan.forward(phi.shaped * np.exp(0.5j * plan.r2 / t))
    back = _reflect_values(spectral_plan(plan.dual).forward(_power(inner, sigma)))
    return abs(t) ** (-phi.grid.dim * sigma) * back * np.exp(-0.5j * plan.r2 / t)


def lhs_node(phi, t, sigma):
    """One node of exp(i t |xi|^2/2) F[G(U0(t) phi)], likewise."""
    plan = spectral_plan(phi.grid)
    dual = spectral_plan(plan.dual)
    if abs(t) <= born_module.T_SWITCH:
        ghat = plan.forward(_power(plan.propagate(phi.shaped, t), sigma))
        return ghat * np.exp(0.5j * t * dual.r2)
    inner = plan.forward(phi.shaped * np.exp(0.5j * plan.r2 / t))
    return abs(t) ** (-phi.grid.dim * sigma) * dual.propagate(_power(inner, sigma), 1.0 / t)


def _row_error(rows, refs):
    return max(np.linalg.norm(r - e) / np.linalg.norm(e) for r, e in zip(rows, refs))


# both branches, both orientations, and t = 0
NODE_TIMES = [0.0, 0.3, -0.7, 1.0, 1.5, -4.0, 37.0, -2500.0]

ROW_CASES = {
    "1d_quintic": (lambda: gaussian_field(grid1d(1024, 0.039)), 2.0),
    "1d_subcritical": (lambda: gaussian_field(grid1d(1024, 0.039), center=0.4,
                                              wavenumber=0.6), 1.5),
    "2d_cubic": (lambda: field_from_function(
        GridDescriptor.centered((64, 32), (0.3, 0.45)),
        lambda x, y: np.exp(-0.5 * (x - 0.3) ** 2 - 0.4 * y**2 + 0.5j * y)), 1.0),
}


class TestRowEvaluators:
    """Each panel's nodes are evaluated as one block; every row must match
    the per-node evaluation."""

    @pytest.mark.parametrize("case", sorted(ROW_CASES))
    def test_flow_rows_match_per_node(self, case):
        make, sigma = ROW_CASES[case]
        phi = make()
        for f in (phi, forward_fourier(phi)):
            rows = born_module._flow_rows(f, NODE_TIMES, sigma)
            assert rows.shape == (len(NODE_TIMES),) + f.grid.counts
            assert _row_error(rows, [flow_node(f, t, sigma) for t in NODE_TIMES]) < 1e-14

    @pytest.mark.parametrize("case", sorted(ROW_CASES))
    def test_lhs_rows_match_per_node(self, case):
        make, sigma = ROW_CASES[case]
        phi = make()
        rows = born_module._lhs_rows(phi, NODE_TIMES, sigma)
        assert _row_error(rows, [lhs_node(phi, t, sigma) for t in NODE_TIMES]) < 1e-14

    def test_lhs_at_zero_is_transform_of_nonlinearity(self, phi):
        row = expansion_lhs_integrand(phi, 0.0, 2.0)
        expected = forward_fourier(phi.with_values(_power(phi.values, 2.0)))
        assert l2_difference(row, expected) < 1e-14 * l2_norm(expected)

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_panels_straddling_switch_match_per_node_sum(self, phi, sign):
        # t_max <= 8 gives linear panels; [0.625, 1.25] straddles T_SWITCH
        spec = QuadratureSpec(t_max=5.0, panels=8)
        rows = lambda ts: born_module._lhs_rows(phi, ts, 2.0)
        out = born_module._quad_panels(rows, forward_fourier(phi), sign, spec, 8)
        nodes, weights = np.polynomial.legendre.leggauss(born_module.GL_NODES)
        edges = np.linspace(0.0, 5.0, 9)
        total = 0.0
        for sa, sb in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (sa + sb), 0.5 * (sb - sa)
            total = total + sum(w * half * lhs_node(phi, sign * (mid + half * x), 2.0)
                                for x, w in zip(nodes, weights))
        expected = sign * total.reshape(-1)
        assert np.linalg.norm(out.values - expected) < 1e-14 * np.linalg.norm(expected)

    def test_quad_panels_bitwise_reproducible(self, phi):
        spec = QuadratureSpec(t_max=400.0, panels=12)
        rows = lambda ts: born_module._flow_rows(phi, ts, 2.0)
        a = born_module._quad_panels(rows, phi, -1, spec, 12)
        b = born_module._quad_panels(rows, phi, -1, spec, 12)
        assert np.array_equal(a.values, b.values)


class TestTailBound:
    """The tail is extrapolated from two samples with the smaller of the
    measured and the assumed decay exponent."""

    @staticmethod
    def power_rows(exponent):
        ones = np.ones(8)
        return lambda ts: np.abs(np.asarray(ts))[:, None] ** -exponent * ones

    TEMPLATE = field_from_function(GridDescriptor.centered((8,), (1.0,)), lambda x: 1.0 + 0 * x)

    def test_slower_measured_decay_is_used(self):
        spec = QuadratureSpec(t_max=100.0, panels=8)
        tail, measured = born_module._tail_bound(self.power_rows(1.5), self.TEMPLATE,
                                                 +1, spec, 2.0)
        # norm sqrt(8) t^-1.5 integrates to sqrt(8) * 2 t_max^-0.5 beyond t_max
        exact = np.sqrt(8.0) * 2.0 / np.sqrt(100.0)
        assert abs(measured - 1.5) < 1e-12
        assert abs(tail - exact) < 1e-12 * exact

    def test_faster_measured_decay_keeps_assumed_exponent(self):
        spec = QuadratureSpec(t_max=100.0, panels=8)
        tail, measured = born_module._tail_bound(self.power_rows(3.0), self.TEMPLATE,
                                                 -1, spec, 2.0)
        t_cal = 99.5
        assumed = np.sqrt(8.0) * t_cal**-3.0 * t_cal**2.0 * 100.0**-1.0
        assert abs(measured - 3.0) < 1e-12
        assert abs(tail - assumed) < 1e-12 * assumed

    def test_measured_non_integrable_decay_rejected(self):
        spec = QuadratureSpec(t_max=100.0, panels=8)
        with pytest.raises(ConvergenceError):
            born_module._tail_bound(self.power_rows(0.8), self.TEMPLATE, +1, spec, 2.0)

    def test_measured_exponent_reported(self, phi):
        out = born_integral(phi, +1, 2.0, QuadratureSpec(t_max=400.0, panels=8))
        # the integrand norm is (pi/5)^(1/4) / (1 + t^2) for this datum
        t1, t2 = 200.0, 398.0
        expected = np.log((1.0 + t2**2) / (1.0 + t1**2)) / np.log(t2 / t1)
        assert abs(out.decay_exponent - expected) < 1e-9


class TestEvaluationCount:
    def test_plain_rule(self, phi):
        out = born_integral(phi, +1, 2.0, QuadratureSpec(t_max=400.0, panels=8))
        # coarse 8 and fine 16 panels of 10 nodes, plus two tail samples
        assert out.evaluations == 10 * (8 + 16) + 2

    def test_weighted_rule_counts_the_cascade(self, phi):
        (_, weighted), _ = subcritical_sides(phi, +1, 1, 1.5,
                                             QuadratureSpec(t_max=1e5, panels=8))
        # the first panel is cascaded into 12 more on both rules
        assert weighted.evaluations == 10 * (8 + 12 + 16 + 12) + 2


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

    def test_divergent_spec_rejected_before_any_panel(self, phi, monkeypatch):
        # a weight |t|^1 against the critical decay |t|^-2 leaves |t|^-1
        def no_panels(*args):
            raise AssertionError("a panel pass ran")

        monkeypatch.setattr(born_module, "_quad_panels", no_panels)
        with pytest.raises(ConvergenceError):
            corollary2_sides(phi, +1, QuadratureSpec(t_max=100.0, panels=8,
                                                     singular_exponent=1.0))


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
