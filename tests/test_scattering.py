"""Wave operators, their inverses, and the two sides of the operator
identities."""

import weakref

import numpy as np
import pytest

from nlslab import harness, scattering
from nlslab.born import QuadratureSpec, born_integral
from nlslab.core import (
    GridDescriptor,
    field_from_function,
    free_propagate,
    inverse_fourier,
    l2_difference,
    l2_norm,
    resample,
)
from nlslab.errors import NlslabError
from nlslab.reports import VerificationReport
from nlslab.scattering import (
    SIGNS,
    T_GRADE,
    YOSHIDA_STEP_RATIO,
    asymptotic_state_sides,
    conjugation_sides,
    free_return_ladder,
    inverse_wave_operator,
    lens_inverse_wave_operator,
    lens_wave_operator,
    theorem1_sides,
    wave_operator,
)
from nlslab.solvers import STRANG, YOSHIDA, NLSParams, nls_evolve_rows
from nlslab.transforms import SnapshotAtTime, conjugate, pseudo_conformal, reflect
from nlslab.util import fit_loglog_slope

from test_solvers import evolve_composed
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
    return NLSParams(sigma=2.0, mu=1.0)


LIGHT_HORIZON = 12.0
LIGHT_DT = 0.04


def relative(sides, u0):
    """||lhs - rhs|| / ||u0|| of each (name, lhs, rhs) of ``sides``, by name."""
    return {name: l2_difference(lhs, rhs) / l2_norm(u0) for name, lhs, rhs in sides}


class TestWaveOperator:
    def test_zero_datum(self, wide_grid, params):
        z = field_from_function(wide_grid, lambda x: 0.0 * x)
        r = wave_operator(z, +1, params, LIGHT_HORIZON, LIGHT_DT)
        assert l2_norm(r) == 0.0

    def test_free_equation_identity(self, wide_grid):
        f = normalized_gaussian(wide_grid, 0.2)
        p0 = NLSParams(sigma=2.0, mu=0.0)
        r = wave_operator(f, +1, p0, LIGHT_HORIZON, LIGHT_DT)
        assert l2_difference(r, f) < 1e-12

    def test_small_data_guard(self, wide_grid, params):
        f = gaussian_field(wide_grid, amplitude=1.0)
        with pytest.raises(NlslabError):
            wave_operator(f, +1, params, LIGHT_HORIZON, LIGHT_DT)

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_first_order_term_against_corrector(self, wide_grid, params, sign):
        # || W(a) - a || ~ delta^5 ||K||, and the +i orientation is the one
        # that cancels: this pins the sign convention of the expansion
        delta = 0.2
        phi = normalized_gaussian(wide_grid, 1.0)
        a = phi.with_values(delta * phi.values)
        w = wave_operator(a, sign, params, 20.0, 0.02)
        plus, minus = born_integral(phi, 2.0, QuadratureSpec(t_max=4000.0, panels=48))
        k = (plus if sign > 0 else minus).field
        first = delta**5 * k.values
        linear = w.values - a.values
        vol = wide_grid.cell_volume
        with_plus = np.sqrt(vol * np.sum(np.abs(linear - 1j * first) ** 2))
        with_minus = np.sqrt(vol * np.sum(np.abs(linear + 1j * first) ** 2))
        scale = delta**5 * l2_norm(k)
        assert abs(l2_difference(w, a) - scale) / scale < 0.05
        assert with_plus < 0.1 * scale
        assert with_minus > 1.5 * scale

    @pytest.mark.parametrize("op", [wave_operator, inverse_wave_operator])
    @pytest.mark.parametrize("horizon", [0.0, -1.0])
    def test_nonpositive_horizon_rejected(self, wide_grid, params, op, horizon):
        with pytest.raises(ValueError):
            op(normalized_gaussian(wide_grid, 0.2), +1, params, horizon, LIGHT_DT)


class TestInverseWaveOperator:
    def test_free_equation_identity(self, wide_grid):
        f = normalized_gaussian(wide_grid, 0.2)
        p0 = NLSParams(sigma=2.0, mu=0.0)
        r = inverse_wave_operator(f, -1, p0, LIGHT_HORIZON, LIGHT_DT)
        assert l2_difference(r, f) < 1e-12

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
        # the 2T = 12 operators that a T = 6 wave_op run keeps
        tol = 2e-4
        for f in battery:
            w = wave_operator(f, sign, params, 12.0, LIGHT_DT)
            back = inverse_wave_operator(w, sign, params, 12.0, LIGHT_DT)
            rel = l2_difference(back, f) / l2_norm(f)
            assert rel < 2 * tol

    def test_inverse_first_order_sign_flipped(self, wide_grid, params):
        delta = 0.2
        phi = normalized_gaussian(wide_grid, 1.0)
        a = phi.with_values(delta * phi.values)
        w_inv = inverse_wave_operator(a, +1, params, 20.0, 0.02)
        k = born_integral(phi, 2.0, QuadratureSpec(t_max=4000.0, panels=48))[0].field
        linear = w_inv.values - a.values
        vol = wide_grid.cell_volume
        with_minus = np.sqrt(vol * np.sum(np.abs(linear + 1j * delta**5 * k.values) ** 2))
        scale = delta**5 * l2_norm(k)
        assert with_minus < 0.1 * scale


class TestGradedSteps:
    """The truncated evolutions take dt up to |t| = T_GRADE and double the
    step on each octave beyond it."""

    @staticmethod
    def uniform(op, u, sign, p, horizon, dt):
        # the truncated operators as single evolutions with equal Yoshida
        # steps of YOSHIDA_STEP_RATIO * dt
        h = YOSHIDA_STEP_RATIO * dt
        if op is wave_operator:
            u_init = free_propagate(u, sign * horizon)
            return evolve_composed(u_init, sign * horizon, 0.0, p, h, YOSHIDA)
        u_end = evolve_composed(u, 0.0, sign * horizon, p, h, YOSHIDA)
        return free_propagate(u_end, -sign * horizon)

    @pytest.mark.parametrize("op", [wave_operator, inverse_wave_operator])
    @pytest.mark.parametrize("sign", [+1, -1])
    def test_matches_uniform_steps(self, op, sign):
        # the thm1 grid and datum at T = 200, six octaves: the grading moves
        # the operators by 1.6-4.1e-11 relative, below the uniform run's own
        # time error (steps of 4 dt against 2 dt: ~1.35e-7)
        u0 = normalized_gaussian(grid1d(4096, 0.55), 0.3)
        p = NLSParams(sigma=2.0, mu=1.0)
        horizon, dt = 200.0, 0.025
        graded = op(u0, sign, p, horizon, dt)
        reference = self.uniform(op, u0, sign, p, horizon, dt)
        assert l2_difference(graded, reference) / l2_norm(reference) < 1e-8

    def test_step_ratio_keeps_strang_accuracy_on_thm1_data(self):
        # YOSHIDA_STEP_RATIO rests on this: on the thm1 grid, datum, horizon
        # and dt, the graded Yoshida steps of 4 dt err no more than graded
        # Strang steps of dt, both against graded Yoshida steps of dt.
        # Measured 1.45e-7 against 1.74e-7 relative; the reference's own
        # error is ~(1/4)^4 of the former.  Yoshida's dt^4 only beats
        # Strang's dt^2 below some dt: on the wave_op default (dt 0.04) the
        # ratio reads 2.2e-7 against 8.4e-8
        u0 = normalized_gaussian(grid1d(4096, 0.55), 0.3)
        p = NLSParams(sigma=2.0, mu=1.0)
        horizon, dt = 200.0, 0.025
        schedule = [scattering._graded_schedule(0.0, horizon, dt)]
        strang = free_propagate(nls_evolve_rows([u0], schedule, p)[0], -horizon)
        reference = free_propagate(
            nls_evolve_rows([u0], schedule, p, composition=YOSHIDA)[0], -horizon)
        yoshida = inverse_wave_operator(u0, +1, p, horizon, dt)
        err_yoshida = l2_difference(yoshida, reference) / l2_norm(u0)
        err_strang = l2_difference(strang, reference) / l2_norm(u0)
        assert err_yoshida <= err_strang < 2.0e-7, (err_yoshida, err_strang)

    @pytest.mark.parametrize("op", [wave_operator, inverse_wave_operator])
    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("horizon", [6.0, T_GRADE])
    def test_one_octave_is_one_uniform_evolution(self, wide_grid, params, op,
                                                 sign, horizon):
        u0 = normalized_gaussian(wide_grid, 0.2)
        graded = op(u0, sign, params, horizon, LIGHT_DT)
        reference = self.uniform(op, u0, sign, params, horizon, LIGHT_DT)
        assert np.array_equal(graded.values, reference.values)

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_exact_symmetries_across_octaves(self, wide_grid, params, sign):
        # T = 20 crosses the octave edges 8 and 16.  The run toward 0
        # retraces the nodes of the run away from 0, so the round trip of
        # the time-symmetric Yoshida step holds to roundoff; the octaves of
        # -T mirror those of T, so does the conjugation sandwich
        # W_s = C W_{-s} C
        horizon = 20.0
        u0 = gaussian_field(wide_grid, amplitude=0.15, width=1.3, wavenumber=0.8)
        w = wave_operator(u0, sign, params, horizon, LIGHT_DT)
        back = inverse_wave_operator(w, sign, params, horizon, LIGHT_DT)
        assert l2_difference(back, u0) / l2_norm(u0) < 1e-12
        routed = conjugate(wave_operator(conjugate(u0), -sign, params, horizon, LIGHT_DT))
        assert l2_difference(w, routed) / l2_norm(u0) < 1e-12

    # the Strang cases keep the ids they had before the composition was a
    # parameter
    @pytest.mark.parametrize("sign, composition", [
        (+1, STRANG), (-1, STRANG), (+1, YOSHIDA), (-1, YOSHIDA)],
        ids=["1", "-1", "1-yoshida", "-1-yoshida"])
    def test_stack_equals_chained_octaves(self, wide_grid, params, sign, composition):
        # outward and inward rows of T = 20 cross the octave edges 8 and 16
        # at different steps of the one stack; each row is bitwise the chain
        # of one evolution per octave, under either composition
        far = sign * 20.0
        u0 = gaussian_field(wide_grid, amplitude=0.15, width=1.3, wavenumber=0.8)
        fields = [u0, free_propagate(u0, far), conjugate(u0), free_propagate(u0, -far)]
        ends = [(0.0, far), (far, 0.0), (0.0, -far), (-far, 0.0)]
        schedules = [scattering._graded_schedule(t0, t1, LIGHT_DT) for t0, t1 in ends]
        stacked = nls_evolve_rows(fields, schedules, params, composition=composition)
        for u, (t0, t1), octaves, row in zip(fields, ends, schedules, stacked, strict=True):
            assert [abs(b) for _, b, _ in octaves if b not in (0.0, t1)] == (
                [8.0, 16.0] if t0 == 0.0 else [16.0, 8.0])
            for a, b, h in octaves:
                u = evolve_composed(u, a, b, params, h, composition)
            assert np.array_equal(row.values, u.values)

    @pytest.mark.parametrize("counts, stacks", [((512,), [4]), ((64, 64), [2, 2])])
    def test_stacks_follow_the_dimension(self, monkeypatch, counts, stacks):
        # a 1D identity marches its four evolutions as one stack; a 2D one
        # as two stacks of two, W_s^{-1} u0 and W_{-s} F u0 for each sign,
        # whose rows step in two threads.  The first pair of sides needs
        # the first two operators and no more: the whole stack in 1D, the
        # first stack of two in 2D
        seen = []

        def recording(fields, schedules, p, **kwargs):
            seen.append(len(fields))
            return nls_evolve_rows(fields, schedules, p, **kwargs)

        monkeypatch.setattr(scattering, "nls_evolve_rows", recording)
        g = GridDescriptor.centered(counts, (0.35,) * len(counts))
        u0 = normalized_gaussian(g, 0.2)
        sides = theorem1_sides(u0, NLSParams(sigma=2.0 / len(counts)), 2.0, 0.1)
        next(sides)
        assert seen == stacks[:1]
        list(sides)
        assert seen == stacks

    def test_first_sign_let_go_of_before_second_stack_marches(self, monkeypatch):
        # run through the harness, the first sign's evolved rows and its lhs
        # and rhs are dead when the second sign's stack starts to march, so
        # the two pairs of evolutions are never held at once: a
        # deterministic stand-in for the peak resident set
        held, marched = [], []

        def measuring(lhs, rhs):
            held.extend(weakref.ref(f.values) for f in (lhs, rhs))
            return l2_difference(lhs, rhs)

        def marching(fields, schedules, p, **kwargs):
            marched.append([ref() is not None for ref in held])
            ends = nls_evolve_rows(fields, schedules, p, **kwargs)
            held.extend(weakref.ref(f.values) for f in ends)
            return ends

        monkeypatch.setattr(harness, "l2_difference", measuring)
        monkeypatch.setattr(scattering, "nls_evolve_rows", marching)
        g = GridDescriptor.centered((64, 64), (0.35, 0.35))
        u0 = normalized_gaussian(g, 0.2)
        report = VerificationReport("fourier_exchange")
        sides = theorem1_sides(u0, NLSParams(sigma=1.0), 2.0, 0.1)
        harness._add_sides(report, sides, l2_norm(u0), 1e-2)
        assert marched == [[], [False] * 4]
        assert [r.name for r in report.residuals] == ["sign_plus", "sign_minus"]


class TestLensWaveOperators:
    @pytest.mark.parametrize("sign", [+1, -1])
    def test_free_equation_identity(self, wide_grid, sign):
        f = normalized_gaussian(wide_grid, 0.2)
        p0 = NLSParams(sigma=2.0, mu=0.0)
        dt = 0.01
        assert l2_difference(lens_wave_operator(f, sign, p0, dt), f) < 1e-12
        assert l2_difference(lens_inverse_wave_operator(f, sign, p0, dt), f) < 1e-12

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_round_trips(self, wide_grid, params, sign):
        # Strang is time-reversible, so each composition undoes itself
        a = normalized_gaussian(wide_grid, 0.25)
        dt = 0.01
        w = lens_wave_operator(a, sign, params, dt)
        w_inv = lens_inverse_wave_operator(a, sign, params, dt)
        assert l2_difference(lens_inverse_wave_operator(w, sign, params, dt), a) < 1e-10
        assert l2_difference(lens_wave_operator(w_inv, sign, params, dt), a) < 1e-10

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_ladder_bias_halves_when_horizon_doubles(self, wide_grid, params, sign):
        # the lens route has no horizon, so a truncated operator's distance
        # from it is the truncation bias, which falls like T^-1
        a = normalized_gaussian(wide_grid, 0.25)
        for truncated_op, lens_op in ((wave_operator, lens_wave_operator),
                                      (inverse_wave_operator, lens_inverse_wave_operator)):
            exact = lens_op(a, sign, params, LIGHT_DT)
            bias = [
                l2_difference(truncated_op(a, sign, params, T, LIGHT_DT), exact)
                for T in (5.0, 10.0)
            ]
            assert 0.4 <= bias[1] / bias[0] <= 0.6

    @pytest.mark.parametrize("op", [lens_wave_operator, lens_inverse_wave_operator])
    def test_dimension_comes_from_the_grid(self, params, op):
        # sigma = 2 is critical in 1D; on a 2D grid it is the quintic, for
        # which the lens transform is no exact map
        g = GridDescriptor.centered((64, 64), (0.3, 0.3))
        with pytest.raises(ValueError, match="critical power"):
            op(normalized_gaussian(g, 0.3), +1, params, 0.01)

    def test_guards(self, wide_grid, params):
        dt = 0.01
        with pytest.raises(NlslabError):
            lens_wave_operator(gaussian_field(wide_grid, amplitude=1.0), +1, params, dt)
        with pytest.raises(ValueError):
            lens_inverse_wave_operator(
                normalized_gaussian(wide_grid, 0.2), +1,
                NLSParams(sigma=1.5, mu=1.0), dt,
            )


class TestVerifyTheorem1:
    def test_free_equation_exact(self, wide_grid):
        u0 = normalized_gaussian(wide_grid, 0.2)
        p0 = NLSParams(sigma=2.0, mu=0.0)
        res = relative(theorem1_sides(u0, p0, LIGHT_HORIZON, LIGHT_DT), u0)
        assert list(res) == ["sign_plus", "sign_minus"]
        assert all(v <= 1e-9 for v in res.values())

    @pytest.mark.parametrize("mu", [1.0, -1.0])
    def test_small_data_both_couplings(self, mu):
        g = grid1d(2048, 0.35)
        u0 = normalized_gaussian(g, 0.3)
        p = NLSParams(sigma=2.0, mu=mu)
        res = relative(theorem1_sides(u0, p, 60.0, 0.02), u0)
        for value in res.values():
            assert value <= 1e-3
            assert value < 2e-4


class TestVerifyConjugation:
    def test_light_run(self):
        g = grid1d(2048, 0.35)
        u0 = normalized_gaussian(g, 0.3)
        p = NLSParams(sigma=2.0, mu=1.0)
        res = relative(conjugation_sides(u0, p, 60.0, 0.02), u0)
        assert len(res) == 4
        assert all(v <= 1e-3 for v in res.values())


class TestVerifyLemma23:
    def test_ladder_and_asymptotic_match(self):
        fine = GridDescriptor.centered((2048,), (0.008,))
        u0 = normalized_gaussian(fine, 0.3)
        p = NLSParams(sigma=2.0, mu=1.0)
        u0s = resample(u0, grid1d(2048, 0.35))
        ladder = free_return_ladder(u0, p, 0.02, (10.0, 20.0, 40.0))
        errs = [e for _, e in ladder]
        assert all(b < a for a, b in zip(errs, errs[1:]))
        match = relative(asymptotic_state_sides(u0s, p, 80.0, 0.02), u0s)
        assert len(match) == 2
        assert all(v <= 1e-2 for v in match.values())
        slope, _ = fit_loglog_slope([t for t, _ in ladder], errs)
        assert slope < -0.4

    def test_asymptotic_states_match_marching_by_hand(self):
        # the sides take their asymptotic states from the truncated
        # inverse operators; marching each sign's octaves by hand in Yoshida
        # steps, with u(+-T) kept rather than recovered by the free flow,
        # agrees to roundoff.  T = 20 crosses the octave edges 8 and 16
        u0 = normalized_gaussian(GridDescriptor.centered((2048,), (0.008,)), 0.3)
        p, horizon, dt, scat = NLSParams(sigma=2.0, mu=1.0), 20.0, 0.04, grid1d(2048, 0.35)
        u0s = resample(u0, scat)
        reference = {}
        for sign, label in SIGNS:
            u = u0s
            for a, b, h in scattering._graded_schedule(
                    0.0, sign * horizon, YOSHIDA_STEP_RATIO * dt):
                u = evolve_composed(u, a, b, p, h, YOSHIDA)
            u_asym = free_propagate(u, -sign * horizon)
            v_limit = pseudo_conformal(SnapshotAtTime(u, sign * horizon)).field
            predicted = inverse_fourier(reflect(v_limit))
            reference[f"asymptotic_state_match_{label}"] = (
                l2_difference(resample(u_asym, predicted.grid), predicted) / l2_norm(u0s))
        match = relative(asymptotic_state_sides(u0s, p, horizon, dt), u0s)
        assert list(match) == list(reference)
        for name, value in match.items():
            assert abs(value - reference[name]) <= 1e-13 * reference[name]

    def test_repeated_ladder_time_rejected(self, monkeypatch):
        def no_evolution(*args, **kwargs):
            raise AssertionError("an evolution ran before the times were checked")

        monkeypatch.setattr(scattering, "nls_evolve", no_evolution)
        u0 = normalized_gaussian(GridDescriptor.centered((1024,), (0.02,)), 0.3)
        p = NLSParams(sigma=2.0, mu=1.0)
        with pytest.raises(ValueError, match=r"10\.0 is repeated"):
            free_return_ladder(u0, p, 0.02, [10.0, 10.0, 20.0])

    @pytest.mark.parametrize("delta, horizon, error", [
        (0.8, 80.0, NlslabError),  # above the small-data threshold 0.5
        (0.3, -80.0, ValueError),  # would file the +T residual under _minus
    ])
    def test_asymptotic_state_guards(self, monkeypatch, delta, horizon, error):
        def no_evolution(*args, **kwargs):
            raise AssertionError("an evolution ran before the datum was checked")

        monkeypatch.setattr(scattering, "nls_evolve_rows", no_evolution)
        u0 = normalized_gaussian(grid1d(2048, 0.35), delta)
        p = NLSParams(sigma=2.0, mu=1.0)
        with pytest.raises(error):
            next(asymptotic_state_sides(u0, p, horizon, 0.02))

    def test_free_flow_cancels_exactly(self):
        # mu=0: the conformal return is exactly the transform of the datum:
        # M_{-t} F^{-1} U0(-1/t) u0 = F^{-1} u0, so the two error terms of
        # the triangle bound cancel and only roundoff/resampling remains,
        # far below the small-angle scale sqrt(3)/2/(2t)
        fine = GridDescriptor.centered((2048,), (0.008,))
        u0 = normalized_gaussian(fine, 0.3)
        p0 = NLSParams(sigma=2.0, mu=0.0)
        ladder = free_return_ladder(u0, p0, 0.02, (10.0, 20.0, 40.0))
        for t, e in ladder:
            small_angle = np.sqrt(3.0) / 2.0 / (2.0 * t)
            assert e < 1e-3 * small_angle


class TestN2Smoke:
    def test_free_identity_and_small_roundtrip(self):
        g = GridDescriptor.centered((64, 64), (0.65, 0.65))
        u0 = normalized_gaussian(g, 0.1)
        p = NLSParams(sigma=1.0, mu=1.0)
        # the 2T = 3 operators that a T = 1.5 wave_op run keeps
        horizon, dt, tol = 3.0, 0.02, 2e-4
        p0 = NLSParams(sigma=1.0, mu=0.0)
        r0 = wave_operator(u0, +1, p0, horizon, dt)
        assert l2_difference(r0, u0) < 1e-12
        w = wave_operator(u0, -1, p, horizon, dt)
        back = inverse_wave_operator(w, -1, p, horizon, dt)
        assert l2_difference(back, u0) / l2_norm(u0) < 2 * tol
