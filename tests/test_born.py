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
    scalar_weighted_integral,
    subcritical_sides,
)
from nlslab.core import (
    GridDescriptor,
    _density_power,
    _reflect_values,
    _unit_phase,
    field_from_function,
    forward_fourier,
    l2_difference,
    l2_norm,
    spectral_plan,
)
from nlslab.errors import ConvergenceError

from oracles import graded_quadrature
from test_spectral import gaussian_field, grid1d


@pytest.fixture
def phi():
    return gaussian_field(grid1d(1024, 0.039))


@pytest.fixture
def compact_grid():
    return grid1d(1024, 0.039)


def flow_row(phi, t, sigma):
    """The row U0(-t) G(U0(t) phi) of one time, as the quadrature evaluates it:
    the +|t| row of the pair for t >= 0, the -|t| row otherwise."""
    pair = born_module._flow_rows(phi, sigma)([abs(t)])
    return phi.with_values(pair[0 if t >= 0 else 1, 0])


def orient(pair, sign):
    """The member of a (+, -) pair that belongs to ``sign``."""
    return pair[0 if sign > 0 else 1]


class TestNonlinearFlow:
    """The nonlinear flow G(U0(t) phi) on the rows of the quadrature, which
    carry it back by the unitary U0(-t)."""

    def test_t_zero_pointwise(self, phi):
        out = flow_row(phi, 0.0, 2.0)
        expected = np.abs(phi.values) ** 4 * phi.values
        assert np.max(np.abs(out.values - expected)) < 1e-13

    def test_norm_bound(self, phi):
        out = flow_row(phi, 2.0, 2.0)
        bound = 1.0 * l2_norm(phi)  # sup |U0(t)phi| <= 1 for this datum
        assert l2_norm(out) <= bound

    @pytest.mark.parametrize("t", [0.0, 1.0, 5.0, -5.0, 37.0])
    def test_gaussian_dispersive_decay(self, phi, t):
        # closed form: ||G(U0(t) phi)|| = (pi/5)^(1/4) / (1 + t^2), which
        # U0(-t) keeps; |t| > T_SWITCH takes the factorized branch
        out = flow_row(phi, t, 2.0)
        predicted = (np.pi / 5.0) ** 0.25 / (1.0 + t * t)
        assert abs(l2_norm(out) - predicted) / predicted < 1e-12


class TestIntegrandFactorization:
    """The |t| > T_SWITCH factorized route must agree with the literal
    operator route in an overlap window."""

    @pytest.mark.parametrize("t", [0.6, 1.5, -0.9, -1.5, 3.0])
    def test_flow_integrand_overlap(self, phi, t):
        saved = born_module.T_SWITCH
        try:
            born_module.T_SWITCH = 1e9
            direct = flow_row(phi, t, 2.0)
            born_module.T_SWITCH = 1e-9
            factored = flow_row(phi, t, 2.0)
        finally:
            born_module.T_SWITCH = saved
        assert l2_difference(direct, factored) / l2_norm(direct) < 1e-9

    def test_frequency_hosted_flow_overlap(self, phi):
        phihat = forward_fourier(phi)
        saved = born_module.T_SWITCH
        try:
            born_module.T_SWITCH = 1e9
            direct = flow_row(phihat, -1.4, 2.0)
            born_module.T_SWITCH = 1e-9
            factored = flow_row(phihat, -1.4, 2.0)
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
        u = np.fft.ifftn(np.fft.fftn(phi.values) * m)
        return np.fft.ifftn(np.fft.fftn(_power(u, sigma)) * np.conj(m))
    inner = plan.forward(phi.values * np.exp(0.5j * plan.r2 / t))
    back = _reflect_values(spectral_plan(plan.dual).forward(_power(inner, sigma)))
    return abs(t) ** (-phi.grid.dim * sigma) * back * np.exp(-0.5j * plan.r2 / t)


def _row_error(rows, refs):
    return max(np.linalg.norm(r - e) / np.linalg.norm(e) for r, e in zip(rows, refs))


# both branches and t = 0; every time is evaluated in both orientations
NODE_TIMES = [0.0, 0.3, 0.7, 1.0, 1.5, 4.0, 37.0, 2500.0]

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
            pair = born_module._flow_rows(f, sigma)(NODE_TIMES)
            assert pair.shape == (2, len(NODE_TIMES)) + f.grid.counts
            for sign in (+1, -1):
                refs = [flow_node(f, sign * t, sigma) for t in NODE_TIMES]
                assert _row_error(orient(pair, sign), refs) < 1e-14

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_panels_straddling_switch_match_per_node_sum(self, phi, sign):
        # the near half meets the far half at T_SWITCH: four panels uniform
        # in t on [0, 1], four uniform in r = s^q on [(1/5)^q, 1], s = 1/t,
        # q = n sigma - 1, where dt = s^-2 ds = s^-2 r^(1/q - 1) / q dr
        nodes, weights = np.polynomial.legendre.leggauss(born_module.GL_NODES)
        for sigma in (2.0, 1.5):
            q = sigma - 1.0
            spec = QuadratureSpec(t_max=5.0, panels=8)
            rows = born_module._flow_rows(phi, sigma)
            out = orient(born_module._quad_panels(rows, phi, spec, 8, sigma), sign)
            total = 0.0
            near = np.linspace(0.0, 1.0, 5)
            for ta, tb in zip(near[:-1], near[1:]):
                mid, half = 0.5 * (ta + tb), 0.5 * (tb - ta)
                total = total + sum(w * half * flow_node(phi, sign * (mid + half * x), sigma)
                                    for x, w in zip(nodes, weights))
            far = np.linspace(0.2**q, 1.0, 5)
            for ra, rb in zip(far[:-1], far[1:]):
                mid, half = 0.5 * (ra + rb), 0.5 * (rb - ra)
                for x, w in zip(nodes, weights):
                    r = mid + half * x
                    s = r ** (1.0 / q)
                    jacobian = s**-2.0 * r ** (1.0 / q - 1.0) / q
                    total = total + w * half * jacobian * flow_node(phi, sign / s, sigma)
            expected = sign * total.reshape(-1)
            assert np.linalg.norm(out.values - expected) < 1e-14 * np.linalg.norm(expected)

    def test_quad_panels_bitwise_reproducible(self, phi):
        spec = QuadratureSpec(t_max=400.0, panels=12)
        rows = born_module._flow_rows(phi, 2.0)
        a = born_module._quad_panels(rows, phi, spec, 12, 2.0)
        b = born_module._quad_panels(rows, phi, spec, 12, 2.0)
        for x, y in zip(a, b):
            assert np.array_equal(x.values, y.values)


def _phase(w):
    """exp(i w), written out with np.cos and np.sin."""
    out = np.empty(np.shape(w), dtype=np.complex128)
    out.real = np.cos(w)
    out.imag = np.sin(w)
    return out


def signed_rows(phi, ts, sigma):
    """Rows at the signed times ``ts``, one time at a time, each of its
    phases from its own cos/sin: the free multipliers exp(-+i t |xi|^2/2)
    for |t| <= T_SWITCH, the chirps M_t and M_-t beyond.  The operations are
    those of the quadrature's rows, so the pair must match them bitwise."""
    plan = spectral_plan(phi.grid)
    dual = spectral_plan(plan.dual)
    n = phi.grid.dim
    rows = []
    for t in ts:
        if abs(t) <= born_module.T_SWITCH:
            g = np.fft.fftn(phi.values) * _phase((-0.5 * t) * plan.xi2)
            g = np.fft.ifftn(g)
            g *= _density_power(g, sigma)
            g = np.fft.fftn(g)
            g *= _phase((0.5 * t) * plan.xi2)
            rows.append(np.fft.ifftn(g))
        else:
            g = np.fft.fftn(phi.values * _phase(0.5 * plan.r2 / t))
            g *= plan.prefactor
            g *= _density_power(g, sigma)
            g = np.fft.ifftn(g)
            g *= dual.prefactor * dual.grid.size
            g *= _phase(0.5 * plan.r2 / -t)
            g *= np.abs(np.array([t])) ** -(n * sigma)
            rows.append(g)
    return np.array(rows)


def shifted_far_rows(phi, ts, sigma):
    """Far rows at the signed times ``ts`` through the plan's centred
    transforms, shifts and alternating signs included."""
    plan = spectral_plan(phi.grid)
    n = phi.grid.dim
    rows = []
    for t in ts:
        chirp = _unit_phase(0.5 * plan.r2 / t)
        g = plan.forward(phi.values * chirp)
        g *= _density_power(g, sigma)
        back = spectral_plan(plan.dual).inverse(g)
        back *= np.conj(chirp)
        back *= np.abs(np.array([t])) ** -(n * sigma)
        rows.append(back)
    return np.array(rows)


# node times of one block each: near zero, far out, and one straddling
# T_SWITCH, as the tail samples do when 1.005 < t_max <= 2
_NODES = np.polynomial.legendre.leggauss(born_module.GL_NODES)[0]
PANEL_TIMES = {
    "near": 0.05 + 0.05 * _NODES,
    "far": 40.0 + 12.0 * _NODES,
    "straddling": 0.9375 + 0.3125 * _NODES,
}


class TestRowPairing:
    """Both orientations of a node come from one phase array: the -t rows
    are the conjugate-phase rows, and they must equal, to the bit, rows
    computed from the -t phase itself."""

    @pytest.mark.parametrize("panel", sorted(PANEL_TIMES))
    @pytest.mark.parametrize("case", sorted(ROW_CASES))
    def test_minus_rows_equal_own_phase_rows(self, case, panel):
        make, sigma = ROW_CASES[case]
        phi = make()
        us = PANEL_TIMES[panel]
        for f in (phi, forward_fourier(phi)):
            pair = born_module._flow_rows(f, sigma)(us)
            assert np.array_equal(pair[0], signed_rows(f, us, sigma))
            assert np.array_equal(pair[1], signed_rows(f, -us, sigma))

    @pytest.mark.parametrize("case", sorted(ROW_CASES))
    def test_raw_far_rows_equal_shifted_transforms(self, case):
        # the signs of a grid and of its dual are one array, so the
        # multiplies by +-1 cancel exactly and the shifts only permute
        make, sigma = ROW_CASES[case]
        phi = make()
        us = PANEL_TIMES["far"]
        for f in (phi, forward_fourier(phi)):
            pair = born_module._flow_rows(f, sigma)(us)
            assert np.array_equal(pair[0], shifted_far_rows(f, us, sigma))
            assert np.array_equal(pair[1], shifted_far_rows(f, -us, sigma))


class TestTailBound:
    """The tail is extrapolated from two samples with the smaller of the
    measured and the assumed decay exponent."""

    @staticmethod
    def power_rows(exponent):
        ones = np.ones(8)
        return lambda us: np.stack(2 * [np.asarray(us)[:, None] ** -exponent * ones])

    TEMPLATE = field_from_function(GridDescriptor.centered((8,), (1.0,)), lambda x: 1.0 + 0 * x)

    def test_slower_measured_decay_is_used(self):
        spec = QuadratureSpec(t_max=100.0, panels=8)
        # norm sqrt(8) t^-1.5 integrates to sqrt(8) * 2 t_max^-0.5 beyond t_max
        exact = np.sqrt(8.0) * 2.0 / np.sqrt(100.0)
        for tail, measured in born_module._tail_bound(self.power_rows(1.5),
                                                      self.TEMPLATE, spec, 2.0):
            assert abs(measured - 1.5) < 1e-12
            assert abs(tail - exact) < 1e-12 * exact

    def test_faster_measured_decay_keeps_assumed_exponent(self):
        spec = QuadratureSpec(t_max=100.0, panels=8)
        t_cal = 99.5
        assumed = np.sqrt(8.0) * t_cal**-3.0 * t_cal**2.0 * 100.0**-1.0
        for tail, measured in born_module._tail_bound(self.power_rows(3.0),
                                                      self.TEMPLATE, spec, 2.0):
            assert abs(measured - 3.0) < 1e-12
            assert abs(tail - assumed) < 1e-12 * assumed

    def test_measured_non_integrable_decay_rejected(self):
        spec = QuadratureSpec(t_max=100.0, panels=8)
        with pytest.raises(ConvergenceError):
            born_module._tail_bound(self.power_rows(0.8), self.TEMPLATE, spec, 2.0)

    def test_measured_exponent_reported(self, phi):
        # the integrand norm is (pi/5)^(1/4) / (1 + t^2) for this datum
        t1, t2 = 200.0, 398.0
        expected = np.log((1.0 + t2**2) / (1.0 + t1**2)) / np.log(t2 / t1)
        for out in born_integral(phi, 2.0, QuadratureSpec(t_max=400.0, panels=8)):
            assert abs(out.decay_exponent - expected) < 1e-9


class TestEvaluationCount:
    def test_plain_rule(self, phi):
        # per orientation: coarse 8 and fine 16 panels of 10 nodes, plus two
        # tail samples
        for out in born_integral(phi, 2.0, QuadratureSpec(t_max=400.0, panels=8)):
            assert out.evaluations == 10 * (8 + 16) + 2

    def test_weighted_rule_counts_the_cascade(self, phi):
        # the first panel is cascaded into 12 more on both rules
        for (_, weighted), _ in subcritical_sides(phi, 1.5,
                                                  QuadratureSpec(t_max=1e5, panels=8)):
            assert weighted.evaluations == 10 * (8 + 12 + 16 + 12) + 2


class TestBornIntegral:
    def test_zero_datum(self, compact_grid):
        z = field_from_function(compact_grid, lambda x: 0.0 * x)
        for out in born_integral(z, 2.0, QuadratureSpec(t_max=50.0, panels=8)):
            assert l2_norm(out.field) == 0.0

    def test_panel_doubling_stability(self, phi):
        out, _ = born_integral(phi, 2.0, QuadratureSpec(t_max=400.0, panels=48))
        assert out.refinement_delta < 1e-6 * l2_norm(out.field)

    def test_tail_bound_certified(self, phi):
        spec = QuadratureSpec(t_max=400.0, panels=48)
        out, _ = born_integral(phi, 2.0, spec)
        out2, _ = born_integral(
            phi, 2.0, QuadratureSpec(t_max=800.0, panels=64)
        )
        change = l2_difference(out.field, out2.field)
        assert change < out.tail_bound

    def test_sign_symmetry_for_real_even_datum(self, phi):
        # oriented integrals for a real even datum: the past ray is the
        # conjugate of the future ray, so K_- = -conj(K_+)
        spec = QuadratureSpec(t_max=400.0, panels=48)
        kp, km = (k.field for k in born_integral(phi, 2.0, spec))
        diff = np.max(np.abs(km.values + np.conj(kp.values)))
        assert diff < 1e-10 * np.max(np.abs(kp.values))

    def test_divergent_tail_rejected(self, phi):
        with pytest.raises(ConvergenceError):
            born_integral(phi, 0.4, QuadratureSpec(t_max=100.0, panels=8))

    def test_divergent_spec_rejected_before_any_panel(self, phi, monkeypatch):
        # a weight |t|^1 against the critical decay |t|^-2 leaves |t|^-1
        def no_panels(*args):
            raise AssertionError("a panel pass ran")

        monkeypatch.setattr(born_module, "_quad_panels", no_panels)
        with pytest.raises(ConvergenceError):
            corollary2_sides(phi, QuadratureSpec(t_max=100.0, panels=8,
                                                 singular_exponent=1.0))


class TestQuadratureSpec:
    def test_panel_count_capped(self):
        # refused at construction, before any panel edge is built
        assert QuadratureSpec(panels=born_module.MAX_PANELS).panels == born_module.MAX_PANELS
        for panels in (3, born_module.MAX_PANELS + 1, 100000000):
            with pytest.raises(ValueError, match="panels"):
                QuadratureSpec(panels=panels)


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


    @pytest.mark.parametrize("t_max", [2.0, 50.0, 1e4, 1e9])
    def test_arctan_past_switch(self, t_max):
        # 1/(1 + t^2) = t^-2 s^2/(1 + s^2) with s = 1/t: the far half's
        # integrand in r = s is smooth
        v = scalar_weighted_integral(lambda t: 1.0 / (1.0 + t * t), 0.0, t_max, 16,
                                     decay=2.0)
        assert abs(v - np.arctan(t_max)) < 1e-12 * np.arctan(t_max)

    def test_inverse_sqrt_weight_past_switch(self):
        # 1/(1 + t^2) = t^-1 s/(1 + s^2): at decay 1 and a = -1/2 the far
        # half runs in r = s^(1/2), where the integrand is smooth; the
        # integral to infinity is pi/sqrt(2), less a tail of
        # (2/3) T^(-3/2) - (2/7) T^(-7/2) + ...
        t_max = 1e9
        exact = np.pi / np.sqrt(2.0) - (2.0 / 3.0) * t_max**-1.5 + (2.0 / 7.0) * t_max**-3.5
        fn = lambda t: 1.0 / (1.0 + t * t)  # noqa: E731
        v = scalar_weighted_integral(fn, -0.5, t_max, 16, decay=1.0)
        assert abs(v - exact) < 1e-12 * exact
        # the decay exponent is the substitution's: the true decay 2 gives
        # r = s^(3/2), in which the integrand is only Hoelder at r = 0
        wrong = scalar_weighted_integral(fn, -0.5, t_max, 16, decay=2.0)
        assert abs(wrong - exact) > 1e-10 * exact


def _unit_gaussian(grid):
    f = gaussian_field(grid)
    return f.with_values(f.values / l2_norm(f))


def _plane():
    return field_from_function(
        GridDescriptor.centered((32, 32), (0.45, 0.45)),
        lambda x, y: np.exp(-0.5 * (x - 0.3) ** 2 - 0.4 * y**2 + 0.5j * y))


# (datum, sigma, singular exponent, t_max, reference panels) of each
# quadrature an experiment runs: corollary2, proposition and both
# sub-critical integrands at their defaults, with the reference at twice the
# panels its layout used there, and the same integrands on a 2D grid
GRADED_CASES = {
    "corollary2": (lambda: gaussian_field(grid1d(1024, 0.039)), 2.0, 0.0, 25600.0, 160),
    "proposition": (lambda: _unit_gaussian(grid1d(4096, 0.34)), 2.0, 0.0, 20000.0, 128),
    "subcritical_plain": (lambda: gaussian_field(grid1d(1024, 0.039)), 1.5, 0.0, 1e9, 288),
    "subcritical_weighted": (lambda: gaussian_field(grid1d(1024, 0.039)), 1.5, -0.5,
                             1e9, 288),
    "2d_critical": (_plane, 1.0, 0.0, 25600.0, 160),
    "2d_subcritical_plain": (_plane, 0.75, 0.0, 1e9, 288),
    "2d_subcritical_weighted": (_plane, 0.75, -0.5, 1e9, 288),
}


class TestGradedReference:
    """The two uniform halves at 16 panels against the linear-then-geometric
    layout they replaced (``oracles.graded_quadrature``) at twice its
    default panels, on the same rows, for the datum and its transform."""

    @pytest.mark.parametrize("case", sorted(GRADED_CASES))
    def test_halves_match_graded_layout(self, case):
        make, sigma, a, t_max, reference_panels = GRADED_CASES[case]
        phi = make()
        spec = QuadratureSpec(t_max=t_max, panels=16, singular_exponent=a)
        for f in (phi, forward_fourier(phi)):
            rows = born_module._flow_rows(f, sigma)
            halves = born_module._quad_panels(rows, f, spec, 16, f.grid.dim * sigma)
            graded = graded_quadrature(rows, a, t_max, reference_panels)
            for got, ref in zip(halves, graded):
                assert np.linalg.norm(got.values - ref) < 1e-13 * np.linalg.norm(ref)


class TestCorollary2:
    def test_zero_datum(self, compact_grid):
        z = field_from_function(compact_grid, lambda x: 0.0 * x)
        for lhs, rhs in corollary2_sides(z, QuadratureSpec(t_max=50.0, panels=8)):
            assert l2_norm(lhs.field) == 0.0 and l2_norm(rhs.field) == 0.0

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_sides_agree_light(self, phi, sign):
        spec = QuadratureSpec(t_max=3200.0, panels=64)
        lhs, rhs = orient(corollary2_sides(phi, spec), sign)
        rel = l2_difference(lhs.field, rhs.field) / l2_norm(lhs.field)
        assert rel < 1e-3

    def test_modulated_datum(self, compact_grid):
        # non-even data exercises the reflection bookkeeping in both routes
        f = field_from_function(
            compact_grid,
            lambda x: np.exp(-0.5 * (x - 0.7) ** 2) * np.exp(0.9j * x),
        )
        (lhs, rhs), _ = corollary2_sides(f, QuadratureSpec(t_max=3200.0, panels=64))
        rel = l2_difference(lhs.field, rhs.field) / l2_norm(lhs.field)
        assert rel < 2e-3

    def test_first_order_consistency_with_corrector(self, phi):
        # F(K_s(phi)) = -K_{-s}(phi_hat): the left side is the transform of
        # the corrector itself, and it meets the right side on the dual grid
        spec = QuadratureSpec(t_max=3200.0, panels=64)
        for k, (left, right) in zip(born_integral(phi, 2.0, spec),
                                    corollary2_sides(phi, spec)):
            lhs = forward_fourier(k.field)
            assert np.array_equal(left.field.values, lhs.values)
            assert l2_difference(lhs, right.field) / l2_norm(lhs) < 1e-3

    @pytest.mark.parametrize("datum", [{}, {"width": 0.9, "center": 0.4, "wavenumber": 0.6}])
    def test_wrong_orientation_is_rejected(self, compact_grid, datum):
        # negative control: -K_{+s}(F phi) in place of -K_{-s}(F phi) must
        # miss F K_s(phi) by far more than the identity's 2e-4
        f = gaussian_field(compact_grid, **datum)
        spec = QuadratureSpec(t_max=3200.0, panels=64)
        (lhs, rhs), _ = corollary2_sides(f, spec)
        wrong = born_integral(forward_fourier(f), 2.0, spec)[0].field
        scale = l2_norm(lhs.field)
        assert l2_difference(lhs.field, rhs.field) / scale < 1e-3
        assert l2_difference(lhs.field, wrong.with_values(-wrong.values)) / scale > 0.5


class TestSubcritical:
    def test_validity_window_enforced(self, phi):
        with pytest.raises(ValueError):
            subcritical_sides(phi, 0.9, QuadratureSpec())
        with pytest.raises(ValueError):
            subcritical_sides(phi, 2.1, QuadratureSpec())

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_identities_light(self, phi, sign):
        spec = QuadratureSpec(t_max=1e7, panels=96)
        (i1l, i1r), (i2l, i2r) = orient(subcritical_sides(phi, 1.5, spec), sign)
        r1 = l2_difference(i1l.field, i1r.field) / l2_norm(i1l.field)
        r2 = l2_difference(i2l.field, i2r.field) / l2_norm(i2l.field)
        assert r1 < 1e-3 and r2 < 1e-3

    def test_weighted_and_plain_sides_differ_per_time(self, phi):
        # the identities hold for the integrals, not the integrands: check
        # the weighted right route is genuinely different from the left one
        spec = QuadratureSpec(t_max=1e5, panels=64)
        ((i1l, i1r), _), _ = subcritical_sides(phi, 1.5, spec)
        assert l2_difference(i1l.field, i1r.field) > 0
