"""Split-step NLS solver, integrating-factor RK4 for the derivative
equation, and the strong-form residual check."""

import itertools
import sys
import threading

import numpy as np
import pytest

from nlslab.core import (
    GridDescriptor,
    SpectralPlan,
    field_from_function,
    free_propagate,
    l2_difference,
    l2_norm,
    resample,
    spectral_plan,
)
from nlslab import core, solvers
from nlslab.errors import SolverHealthError
from nlslab.solvers import (
    DNLSParams,
    NLSParams,
    SMALL_PHASE,
    STRANG,
    YOSHIDA,
    _kick,
    _kick_drift,
    dnls_evolve,
    nls_evolve,
    nls_evolve_rows,
    residual,
)
from nlslab.transforms import (
    GaugeParams,
    SnapshotAtTime,
    conjugate,
    gauge,
    pseudo_conformal,
)

from oracles import GROUND_STATE_MASS, blowup_solution, boosted_soliton, ground_state
from test_spectral import bits, gaussian_field, grid1d, random_band_limited


def sech_field(grid, amplitude=0.3, width=1.0):
    return field_from_function(grid, lambda x: amplitude / np.cosh(x / width))


def unmasked_kick(a, tau, p):
    """The kick with cos and sin taken on the whole grid, in place on ``a``:
    the phase theta = -mu tau |a|^(2 sigma) by the arithmetic of ``_kick``,
    then a = exp(i theta) a, phase times state as in ``_kick``."""
    theta = np.square(a.real) + np.square(a.imag)
    if p.sigma != 1.0:
        theta **= p.sigma
    theta *= -p.mu * tau
    return np.multiply(core._unit_phase(theta), a, out=a)


def kick_work(a):
    """The work arrays of ``_kick`` for arrays of a's shape."""
    return np.empty_like(a), np.empty(a.shape), np.empty((2, *a.shape), dtype=bool)


def strang_step(u, dt, p):
    """One Strang step on the split-step kernel, with no health monitor: a
    half-kick and the free flow, then the trailing half-kick, the latter by
    the unmasked reference kick."""
    a = np.array(u.values)[np.newaxis]
    plan = spectral_plan(u.grid)
    _kick_drift(plan, a, 0.5 * dt, plan.free_multiplier(dt), p, *kick_work(a))
    return u.with_values(unmasked_kick(a, 0.5 * dt, p))


def evolve_composed(u0, t0, t1, p, dt, composition):
    """``nls_evolve`` in steps of ``composition``: a stack of one row and
    one span."""
    return nls_evolve_rows([u0], [[(t0, t1, dt)]], p, composition=composition)[0]


class TestNlsStep:
    """One Strang step on the kick and drift kernels, for fields that the
    monitored nls_evolve refuses: a random and a constant field hold about
    an eighth of their mass in the outer shell."""

    def test_linear_limit_matches_free(self):
        f = random_band_limited(grid1d(256, 0.1), seed=41)
        p = NLSParams(sigma=2.0, mu=0.0)
        out = strang_step(f, 0.05, p)
        ref = free_propagate(f, 0.05)
        assert l2_difference(out, ref) < 1e-14

    def test_plane_constant_exact(self):
        g = grid1d(256, 0.1)
        c = 0.7 + 0.2j
        f = field_from_function(g, lambda x: c + 0.0 * x)
        p = NLSParams(sigma=2.0, mu=1.0)
        dt = 0.31
        out = strang_step(f, dt, p)
        expected = c * np.exp(-1j * p.mu * abs(c) ** 4 * dt)
        assert np.max(np.abs(out.values - expected)) < 1e-14

    def test_mass_preserved(self):
        f = random_band_limited(grid1d(256, 0.1), seed=43)
        p = NLSParams(sigma=2.0, mu=-1.0)
        out = strang_step(f, 0.02, p)
        assert abs(l2_norm(out) - l2_norm(f)) < 1e-13


class TestMaskedKick:
    """``_kick`` takes cos and sin only where |theta| >= SMALL_PHASE and
    writes 1 + i theta elsewhere; it equals the unmasked kick bit for bit."""

    @staticmethod
    def kicked(a, tau, p):
        out = a.copy()
        _kick(out, tau, p, *kick_work(out))
        return out

    @staticmethod
    def phases(rng):
        """Phases across SMALL_PHASE, in memory order: the threshold and its
        two neighbours, signed zeros, subnormals and other small phases,
        1e-3 to 1e3, runs of every length from 1 to 17 above the threshold
        between single small phases, and one long run, all of both signs."""
        edge = [SMALL_PHASE, np.nextafter(SMALL_PHASE, 0.0), np.nextafter(SMALL_PHASE, 1.0)]
        small = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-200, 1e-12, 1e-9]
        fixed = np.concatenate([edge, small, np.geomspace(1e-3, 1e3, 25)])
        runs = []
        for n in range(1, 18):
            runs += [*np.geomspace(1e-3, 1e3, n) * rng.choice([-1.0, 1.0], n), 1e-12]
        long_run = np.geomspace(SMALL_PHASE, 1e3, 300) * rng.choice([-1.0, 1.0], 300)
        return np.concatenate([fixed, -fixed, runs, long_run])

    @pytest.mark.parametrize("dim", [1, 2])
    def test_phases_across_the_threshold(self, dim):
        # a state of modulus 1 (1, i, -1, -i) and one kick time per sample
        # make the phase exactly -tau
        rng = np.random.default_rng(3)
        shape = (3, 400) if dim == 1 else (2, 20, 30)
        values = self.phases(rng)
        rest = rng.uniform(-SMALL_PHASE, SMALL_PHASE, np.prod(shape) - len(values))
        theta = np.concatenate([values, rest]).reshape(shape)
        a = np.resize(np.array([1, 1j, -1, -1j]), shape)
        p = NLSParams(sigma=2.0 / dim, mu=1.0)
        out = self.kicked(a, -theta, p)
        ref = unmasked_kick(a.copy(), -theta, p)
        assert np.array_equal(bits(out), bits(ref))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_row_times(self, dim):
        # smooth rows with one kick time per row, zero and a negative step
        # among them; each row holds phases on both sides of the threshold
        grid = TestRawLoop.datum(dim).grid
        p = NLSParams(sigma=2.0 / dim, mu=1.0)
        taus = np.array([0.0, -0.05, 0.02, 0.3])
        rows = [random_band_limited(grid, seed=r).values for r in range(len(taus))]
        a = np.stack([v * (2e-3 / np.abs(v).max()) ** (1.0 / p.sigma) for v in rows])
        tau = taus.reshape(-1, *(1,) * dim)
        theta = np.abs(tau * np.abs(a) ** (2 * p.sigma))
        assert all((row < SMALL_PHASE).any() and (row > SMALL_PHASE).any()
                   for row in theta[1:])
        out = self.kicked(a, tau, p)
        ref = unmasked_kick(a.copy(), tau, p)
        assert np.array_equal(bits(out), bits(ref))

    def test_small_phase_premise(self):
        # the masked kick stands on float64 cos and sin rounding to 1 and to
        # the phase itself below SMALL_PHASE, in contiguous outputs and in
        # the parts of a complex array, as the unmasked kick writes them
        rng = np.random.default_rng(5)
        n = 1 << 19
        below = np.nextafter(SMALL_PHASE, 0.0)
        x = np.concatenate([
            [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, below, -below],
            rng.uniform(-SMALL_PHASE, SMALL_PHASE, n),
            rng.choice([-1.0, 1.0], n) * np.exp2(rng.uniform(-1075.0, -27.0, n)),
        ])
        x = np.clip(x, -below, below)
        assert (np.abs(x) < SMALL_PHASE).all()
        z = np.empty(x.size, np.complex128)
        np.cos(x, out=z.real)
        np.sin(x, out=z.imag)
        for c, s in ((np.cos(x), np.sin(x)), (z.real, z.imag)):
            assert (c == 1.0).all()
            assert np.array_equal(bits(s), bits(x))


class TestNlsEvolve:
    def test_reversibility(self):
        g = grid1d(512, 0.05)
        f = gaussian_field(g, amplitude=0.5)
        p = NLSParams(sigma=2.0, mu=1.0)
        dt = 0.01
        fwd = nls_evolve(f, 0.0, 1.0, p, dt)
        back = nls_evolve(fwd, 1.0, 0.0, p, dt)
        assert l2_difference(back, f) < 1e-11

    def test_reversibility_span_not_a_multiple_of_dt(self):
        # 0.37 at dt = 0.05 is 8 equal steps each way, so the backward run
        # retraces the forward one
        f = gaussian_field(grid1d(512, 0.05), amplitude=0.5)
        p = NLSParams(sigma=2.0, mu=1.0)
        back = nls_evolve(nls_evolve(f, 0.0, 0.37, p, 0.05), 0.37, 0.0, p, 0.05)
        assert l2_difference(back, f) < 1e-13

    def test_yoshida_step_chains_three_strang_steps(self):
        # a Yoshida step of h is the Strang steps of w1 h, (1 - 2 w1) h and
        # w1 h, the middle one backward.  Chained as three evolutions, the
        # kicks at the junctions are taken apart rather than merged, so the
        # two agree to roundoff, not bitwise.  The step back undoes it
        f = gaussian_field(grid1d(512, 0.05), amplitude=0.5)
        p = NLSParams(sigma=2.0, mu=1.0)
        h = 0.05
        one = evolve_composed(f, 0.0, h, p, h, YOSHIDA)
        u, t = f, 0.0
        for frac in YOSHIDA:
            u = nls_evolve(u, t, t + frac * h, p, abs(frac * h))
            t += frac * h
        assert l2_difference(one, u) < 2e-15
        assert l2_difference(one, f) > 1e-3
        back = evolve_composed(one, h, 0.0, p, h, YOSHIDA)
        assert l2_difference(back, f) < 1e-14

    def test_linear_arbitrary_horizon(self):
        g = grid1d(512, 0.08)
        f = gaussian_field(g, amplitude=0.4)
        p = NLSParams(sigma=2.0, mu=0.0)
        out = nls_evolve(f, 0.0, 3.7, p, 0.05)
        ref = free_propagate(f, 3.7)
        assert l2_difference(out, ref) < 1e-12

    def test_partial_final_step(self):
        g = grid1d(256, 0.1)
        f = gaussian_field(g, amplitude=0.3)
        p = NLSParams(sigma=2.0, mu=0.0)
        out = nls_evolve(f, 0.0, 0.25, p, 0.1)
        ref = free_propagate(f, 0.25)
        assert l2_difference(out, ref) < 1e-12

    def test_health_abort_on_aliasing(self):
        g = grid1d(128, 0.1)
        k_nyq = np.pi / 0.1
        f = gaussian_field(g, amplitude=1.0, wavenumber=0.9 * k_nyq)
        p = NLSParams(sigma=2.0, mu=1.0)
        # the datum's spectral-tail fraction is ~0.93 at t = 0, against TAIL_TOL
        with pytest.raises(SolverHealthError):
            nls_evolve(f, 0.0, 0.5, p, 0.01)

    def test_max_steps_guard(self):
        f = gaussian_field(grid1d(128, 0.1), amplitude=0.1)
        p = NLSParams(sigma=2.0, mu=1.0)
        # 1e8 steps exceed MAX_STEPS, which is checked before any step runs
        with pytest.raises(SolverHealthError, match="MAX_STEPS"):
            nls_evolve(f, 0.0, 1.0, p, 1e-8)

    @pytest.mark.parametrize("t0, t1, dt", [(0.0, 1.0, 5e-324), (0.0, 1e308, 1e-3)])
    def test_max_steps_guard_overflowing_count(self, t0, t1, dt):
        # the step count overflows to inf, which the guard refuses before int()
        f = gaussian_field(grid1d(128, 0.1), amplitude=0.1)
        with pytest.raises(SolverHealthError, match="MAX_STEPS"):
            nls_evolve(f, t0, t1, NLSParams(sigma=2.0, mu=1.0), dt)
        with pytest.raises(SolverHealthError, match="MAX_STEPS"):
            dnls_evolve(f, t0, t1, DNLSParams(1.0), dt)

    @pytest.mark.parametrize("dt", [0.0, -0.01, float("nan"), float("inf")])
    def test_non_positive_dt_rejected(self, dt):
        f = gaussian_field(grid1d(128, 0.1), amplitude=0.1)
        with pytest.raises(ValueError, match="dt must be positive"):
            nls_evolve(f, 0.0, 1.0, NLSParams(sigma=2.0, mu=1.0), dt)
        with pytest.raises(ValueError, match="dt must be positive"):
            dnls_evolve(f, 0.0, 1.0, DNLSParams(1.0), dt)

    def test_critical_scaling_invariance(self):
        # if u solves at sigma=2/n then L^{n/2} u(L^2 t, L x) solves
        lam = 2.0
        p = NLSParams(sigma=2.0, mu=1.0)
        g = grid1d(1024, 0.04)
        u0 = gaussian_field(g, amplitude=0.5)
        u_t = nls_evolve(u0, 0.0, 0.8, p, 0.002)
        g2 = GridDescriptor.centered((1024,), (0.04 / lam,))
        v0 = field_from_function(
            g2, lambda x: np.sqrt(lam) * 0.5 * np.exp(-0.5 * (lam * x) ** 2)
        )
        v_t = nls_evolve(v0, 0.0, 0.8 / lam**2, p, 0.002 / lam**2)
        # compare v(t/L^2, x) with L^{1/2} u(t, L x): the rescaled grid of u_t
        # coincides with g2 up to the dilation bookkeeping
        expected = np.sqrt(lam) * u_t.values
        rel = np.linalg.norm(v_t.values - expected) / np.linalg.norm(expected)
        assert rel < 1e-5

    def test_2d_smoke_linear_exact(self):
        g = GridDescriptor.centered((64, 64), (0.15, 0.15))
        f = field_from_function(g, lambda x, y: 0.3 * np.exp(-0.5 * (x**2 + y**2)))
        p = NLSParams(sigma=1.0, mu=0.0)
        assert p.sigma == 1.0
        out = nls_evolve(f, 0.0, 0.5, p, 0.05)
        ref = free_propagate(f, 0.5)
        assert l2_difference(out, ref) < 1e-12


class TestRawLoop:
    """nls_evolve keeps a half-kick pending between its steps; a run of one
    step applies it at once, so eight chained one-step runs must agree with
    one eight-step run step for step."""

    @staticmethod
    def datum(dim):
        if dim == 1:
            return gaussian_field(grid1d(512, 0.05), amplitude=0.5)
        g = GridDescriptor.centered((64, 64), (0.2, 0.2))
        return field_from_function(g, lambda x, y: 0.6 * np.exp(-0.5 * (x**2 + y**2)))

    @staticmethod
    def repeated_steps(f, t1, p):
        """The fields after each of 8 steps of t1 / 8: at dt = 0.05 a span
        of 0.37 is cut into ceil(7.4) = 8 equal steps."""
        u, out, h = f, [], t1 / 8
        for _ in range(8):
            u = nls_evolve(u, 0.0, h, p, abs(h))
            out.append(u)
        return out

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("t1", [0.37, -0.37])
    def test_evolve_equals_repeated_steps(self, dim, t1):
        f = self.datum(dim)
        p = NLSParams(sigma=2.0 / dim, mu=1.0)
        out = nls_evolve(f, 0.0, t1, p, 0.05)
        u = self.repeated_steps(f, t1, p)[-1]
        assert l2_difference(out, u) <= 1e-13 * l2_norm(f)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("t1", [0.37, -0.37])
    def test_observed_fields_equal_repeated_steps(self, dim, t1):
        # the evolution keeps a half-kick pending between steps; every
        # observed field has it applied
        f = self.datum(dim)
        p = NLSParams(sigma=2.0 / dim, mu=1.0)
        seen = []
        nls_evolve(f, 0.0, t1, p, 0.05, observer=lambda t, u: seen.append((t, u)))
        steps = self.repeated_steps(f, t1, p)
        assert seen[0][0] == 0.0 and seen[0][1] is f
        assert [t for t, _ in seen[1:]] == pytest.approx(
            [t1 * k / 8 for k in range(1, 9)], abs=1e-15)
        for (_, u), ref in zip(seen[1:], steps, strict=True):
            assert l2_difference(u, ref) <= 1e-13 * l2_norm(f)

    def test_span_near_a_whole_number_of_steps(self):
        # 1.1 / 0.1 is 11.000000000000002 in floating point: 11 steps, not 12
        seen = []
        nls_evolve(self.datum(1), 0.0, 1.1, NLSParams(sigma=2.0, mu=1.0), 0.1,
                   observer=lambda t, u: seen.append(t))
        assert seen == pytest.approx([0.1 * k for k in range(12)], abs=1e-15)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_fields_do_not_alias_the_state(self, dim):
        # the state is evolved in place; no field handed out may share it
        f = self.datum(dim)
        before = f.values.copy()
        seen = []
        out = nls_evolve(f, 0.0, 0.37, NLSParams(sigma=2.0 / dim, mu=1.0), 0.05,
                         observer=lambda t, u: seen.append((u, u.values.copy())))
        assert np.array_equal(f.values, before)
        assert out is seen[-1][0]
        for u, copy in seen:
            assert np.array_equal(u.values, copy)
        for (u, _), (v, _) in zip(seen, seen[1:]):
            assert not np.shares_memory(u.values, v.values)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_datum_is_health_violation(self):
        f = gaussian_field(grid1d(256, 0.1), amplitude=1e200)
        p = NLSParams(sigma=2.0, mu=1.0)
        with pytest.raises(SolverHealthError) as info:
            nls_evolve(f, 0.0, 0.1, p, 0.01)
        assert info.value.diagnostics["t"] == 0.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_state_turning_non_finite_is_health_violation(self):
        # finite mass, but |u|^4 overflows in the first nonlinear phase
        f = gaussian_field(grid1d(256, 0.1), amplitude=1e100)
        p = NLSParams(sigma=2.0, mu=1.0)
        with pytest.raises(SolverHealthError) as info:
            nls_evolve(f, 0.0, 0.1, p, 0.01)
        assert info.value.diagnostics["t"] > 0.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_pending_kick_turning_non_finite_is_health_violation(self):
        # with mu = 0 the kicks are exact identities until |u|^4 overflows:
        # the datum focuses within the one step to a peak whose |u|^4 is
        # infinite, so only the pending half-kick meets the overflow
        g = grid1d(2048, 0.05)
        narrow = field_from_function(g, lambda x: 1e78 * np.exp(-0.5 * (x / 0.1) ** 2))
        f = free_propagate(narrow, -1.0)
        with pytest.raises(SolverHealthError) as info:
            nls_evolve(f, 0.0, 1.0, NLSParams(sigma=2.0, mu=0.0), 1.0)
        assert info.value.diagnostics["t"] == 1.0


class TestStackedRows:
    """nls_evolve_rows marches rows of one grid together, one step count
    for all and a step size per segment; each row is bitwise the chain of
    one nls_evolve per span of its schedule."""

    @staticmethod
    def chained(u, schedule, p):
        for t0, t1, dt in schedule:
            u = nls_evolve(u, t0, t1, p, dt)
        return u

    # 20 steps each, the segments starting at different steps
    SCHEDULES = [[(0.0, 0.2, 0.02), (0.2, 0.6, 0.04)],
                 [(0.0, -0.3, 0.015)],
                 [(0.5, 0.0, 0.05), (0.0, -0.25, 0.025)]]

    @pytest.mark.parametrize("dim", [1, 2])
    def test_rows_equal_chained_evolutions(self, dim):
        f = TestRawLoop.datum(dim)
        p = NLSParams(sigma=2.0 / dim, mu=1.0)
        # three rows, so that a 1D stack is no multiple of a SIMD width
        schedules = self.SCHEDULES
        fields = [f, conjugate(f), free_propagate(f, 0.5)]
        out = nls_evolve_rows(fields, schedules, p)
        assert len(out) == 3
        for u, schedule, row in zip(fields, schedules, out):
            assert np.array_equal(row.values, self.chained(u, schedule, p).values)

    @pytest.mark.parametrize("dim, k", [(1, 1), (1, 4), (2, 1), (2, 2)])
    def test_kernel_equals_fftn_per_row(self, dim, k):
        # one kernel step on a stack with a kick time and a multiplier per
        # row, against the one-row form: each row kicked alone by the
        # unmasked kick, then fftn, its multiplier and ifftn over the field;
        # k more rows of modulus up to 1e-3 put phases on both sides of
        # SMALL_PHASE.  The plan's multiplier method, which the kernel's
        # drift is, equals the same per-row form, out of place and in place
        grid = TestRawLoop.datum(dim).grid
        plan = spectral_plan(grid)
        p = NLSParams(sigma=2.0 / dim, mu=1.0)
        rows = [random_band_limited(grid, seed=r).values for r in range(k)]
        rows = np.stack(rows + [1e-3 * v / np.abs(v).max() for v in rows])
        steps = [0.02 * (r + 1) * (-1) ** r for r in range(2 * k)]
        taus = [0.5 * h + 0.01 * r for r, h in enumerate(steps)]
        theta = np.reshape(taus, (2 * k, *(1,) * dim)) * np.abs(rows) ** (2 * p.sigma)
        assert (np.abs(theta) < SMALL_PHASE).any() and (np.abs(theta) > SMALL_PHASE).any()
        a = rows.copy()
        m = np.stack([plan.free_multiplier(h) for h in steps])
        _kick_drift(plan, a, np.reshape(taus, (2 * k, *(1,) * dim)), m, p, *kick_work(a))
        drifted = plan.apply_multiplier(rows, m)
        in_place = rows.copy()
        plan.apply_multiplier(in_place, m, in_place, in_place)
        for r, (v, tau, h) in enumerate(zip(rows, taus, steps, strict=True)):
            ref_spec = np.fft.fftn(v)
            ref_spec *= plan.free_multiplier(h)
            ref = np.fft.ifftn(ref_spec)
            assert np.array_equal(bits(drifted[r]), bits(ref))
            assert np.array_equal(bits(in_place[r]), bits(ref))
            ref = unmasked_kick(v.copy(), tau, p)
            ref_spec = np.fft.fftn(ref)
            ref_spec *= plan.free_multiplier(h)
            assert np.array_equal(a[r], np.fft.ifftn(ref_spec, out=ref))

    def test_unequal_step_counts_rejected_before_any_step(self, monkeypatch):
        def no_step(*args, **kwargs):
            raise AssertionError("a step ran before the step counts were checked")

        monkeypatch.setattr(solvers, "_kick_drift", no_step)
        f = gaussian_field(grid1d(128, 0.1), amplitude=0.1)
        for datum in (f, TestRawLoop.datum(2)):
            with pytest.raises(ValueError, match="one step count"):
                nls_evolve_rows([datum, datum], [[(0.0, 0.1, 0.01)], [(0.0, 0.1, 0.02)]],
                                NLSParams(sigma=1.0))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_row_fails_at_its_time(self):
        g = grid1d(256, 0.1)
        good = gaussian_field(g, amplitude=0.1)
        # finite mass, but |u|^4 overflows in the first nonlinear phase
        bad = gaussian_field(g, amplitude=1e100)
        # the message names the failing row's run
        with pytest.raises(SolverHealthError,
                           match="the run from 2 to 2.1: non-finite") as info:
            nls_evolve_rows([good, bad], [[(0.0, 0.1, 0.01)], [(2.0, 2.1, 0.01)]],
                            NLSParams(sigma=2.0, mu=1.0))
        assert info.value.diagnostics["t"] == pytest.approx(2.01, abs=1e-12)

    def test_health_violation_fails_at_its_rows_time(self):
        g = grid1d(256, 0.1)
        good = gaussian_field(g, amplitude=0.1)
        # a packet running toward the boundary shell |x| >= 11.2 at speed 10
        runner = gaussian_field(g, amplitude=0.1, width=0.5, center=8.0, wavenumber=10.0)
        with pytest.raises(SolverHealthError,
                           match="the run from 5 to 5.4: health violation") as info:
            nls_evolve_rows([good, runner], [[(0.0, 0.4, 0.01)], [(5.0, 5.4, 0.01)]],
                            NLSParams(sigma=2.0, mu=1.0))
        assert "boundary_mass_fraction" in info.value.diagnostics
        assert 5.0 < info.value.diagnostics["t"] <= 5.4

    # A stack of two or more rows on a 2D grid steps in two threads, half
    # of its rows in each: every row is bitwise its own one-row march, and
    # no thread outlives the march

    @classmethod
    def assert_rows_equal_own_marches(cls, k, composition):
        f = TestRawLoop.datum(2)
        p = NLSParams(sigma=1.0, mu=1.0)
        fields = [f, conjugate(f), free_propagate(f, 0.5)][:k]
        schedules = cls.SCHEDULES[:k]
        out = nls_evolve_rows(fields, schedules, p, composition=composition)
        for u, schedule, row in zip(fields, schedules, out, strict=True):
            alone = nls_evolve_rows([u], [schedule], p, composition=composition)[0]
            assert np.array_equal(bits(row.values), bits(alone.values))

    @pytest.mark.parametrize("composition", [STRANG, YOSHIDA], ids=["strang", "yoshida"])
    @pytest.mark.parametrize("k", [2, 3])
    def test_rows_equal_own_marches(self, k, composition):
        self.assert_rows_equal_own_marches(k, composition)

    def test_rows_equal_own_marches_under_frequent_switches(self):
        # the interpreter hands the GIL between the threads every microsecond
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            self.assert_rows_equal_own_marches(3, YOSHIDA)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("dim, k, threads", [(2, 2, 2), (2, 3, 2), (2, 1, 1), (1, 3, 1)])
    def test_threads_follow_rows_and_dimension(self, monkeypatch, dim, k, threads):
        # the threads that run the kernel: two for a 2D stack of two or
        # more rows, the calling thread alone for one row or a 1D stack
        seen = set()

        def recording(*args):
            seen.add(threading.get_ident())
            return _kick_drift(*args)

        monkeypatch.setattr(solvers, "_kick_drift", recording)
        f = TestRawLoop.datum(dim)
        nls_evolve_rows([f] * k, [[(0.0, 0.1, 0.05)]] * k, NLSParams(sigma=2.0 / dim))
        assert len(seen) == threads

    @pytest.mark.parametrize("schedules, built", [
        ([[(0.0, 0.1, 0.05)], [(-0.1, 0.0, 0.05)]], 2),
        ([[(0.0, 0.1, 0.05)], [(0.0, -0.1, 0.05)]], 4)])
    def test_rows_of_one_step_share_multipliers(self, monkeypatch, schedules, built):
        # the two rows of a 2D stack share the multipliers of Yoshida's two
        # distinct fractions when their steps agree, and each row builds
        # its own when they do not
        calls = []
        build = SpectralPlan.free_multiplier

        def counted(plan, t):
            calls.append(t)
            return build(plan, t)

        monkeypatch.setattr(SpectralPlan, "free_multiplier", counted)
        f = TestRawLoop.datum(2)
        nls_evolve_rows([f, f], schedules, NLSParams(sigma=1.0), composition=YOSHIDA)
        assert len(calls) == built

    def test_health_violation_in_worker_row_names_its_run(self):
        # the second row, stepped by the worker, is a packet running into
        # the boundary shell |x| >= 5.6 at speed 8; the march fails naming
        # its run, and the worker is gone afterwards
        g = TestRawLoop.datum(2).grid
        good = field_from_function(g, lambda x, y: 0.1 * np.exp(-0.5 * (x**2 + y**2)))
        runner = field_from_function(
            g, lambda x, y: 0.1 * np.exp(-0.5 * ((x - 1.0)**2 + y**2) + 8j * x))
        before = threading.active_count()
        with pytest.raises(SolverHealthError,
                           match="the run from 5 to 5.4: health violation") as info:
            nls_evolve_rows([good, runner], [[(0.0, 0.4, 0.01)], [(5.0, 5.4, 0.01)]],
                            NLSParams(sigma=1.0, mu=1.0))
        assert 5.0 < info.value.diagnostics["t"] <= 5.4
        assert threading.active_count() == before

    def test_error_in_worker_leaves_the_march(self, monkeypatch):
        # an error raised in the worker's half of a step leaves the march
        # as it was raised, and the worker is gone afterwards
        main = threading.get_ident()

        def failing(*args):
            if threading.get_ident() != main:
                raise RuntimeError("worker row")
            return _kick_drift(*args)

        monkeypatch.setattr(solvers, "_kick_drift", failing)
        f = TestRawLoop.datum(2)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="worker row"):
            nls_evolve_rows([f, f], [[(0.0, 0.1, 0.05)]] * 2, NLSParams(sigma=1.0))
        assert threading.active_count() == before


def position_space_rk4(psi0, t0, t1, lam, steps):
    """The interaction-picture RK4 on w = U0(-t) psi in position order, in
    ``steps`` equal steps, each stage five raw FFTs: an independent reference
    for the spectral state of ``dnls_evolve``.  Its slope takes the
    derivative of |psi|^2 by the product rule, as ``dnls_evolve`` does: on a
    grid whose edge holds mass, the density form differs from it by the
    grid's aliasing, which is far above roundoff."""
    g = psi0.grid
    xi = 2.0 * np.pi * np.fft.fftfreq(g.counts[0], g.spacings[0])

    def m(t):
        return np.exp(-0.5j * t * xi**2)

    def rhs(w, t):
        spec = np.fft.fft(w) * m(t)
        psi = np.fft.ifft(spec)
        dens_x = 2.0 * (np.conj(psi) * np.fft.ifft(1j * xi * spec)).real
        return lam * np.fft.ifft(np.fft.fft(dens_x * psi) * np.conj(m(t)))

    h = (t1 - t0) / steps
    w = np.fft.ifft(np.fft.fft(psi0.values) * np.conj(m(t0)))
    for k in range(steps):
        t = t0 + k * h
        k1 = rhs(w, t)
        k2 = rhs(w + 0.5 * h * k1, t + 0.5 * h)
        k3 = rhs(w + 0.5 * h * k2, t + 0.5 * h)
        k4 = rhs(w + h * k3, t + h)
        w = w + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return np.fft.ifft(np.fft.fft(w) * m(t1))


class TestDnlsEvolve:
    @pytest.mark.parametrize("t0, t1", [(0.0, 0.25), (0.3, 0.55), (0.2, -0.05)])
    def test_matches_position_space_reference(self, t0, t1):
        # the RK4 in the frame of each step's start against the RK4 of the
        # interaction picture of t = 0, which it equals up to rounding, on
        # spans that start away from 0 and that run backward
        f = sech_field(grid1d(256, 0.1), 0.5)
        out = dnls_evolve(f, t0, t1, DNLSParams(1.0), 0.01)
        ref = position_space_rk4(f, t0, t1, 1.0, 25)
        assert np.linalg.norm(out.values - ref) <= 1e-13 * np.linalg.norm(ref)

    def test_restart_invariance(self):
        # the checkpoint loop of the dnls_gauge experiment restarts each leg
        # from the previous leg's field
        f = sech_field(grid1d(256, 0.1), 0.5)
        p = DNLSParams(1.0)
        whole = dnls_evolve(f, 0.0, 0.25, p, 0.005)
        legs = dnls_evolve(dnls_evolve(f, 0.0, 0.125, p, 0.005), 0.125, 0.25, p, 0.005)
        assert l2_difference(whole, legs) <= 1e-13 * l2_norm(whole)

    def test_three_transforms_a_stage(self, monkeypatch):
        # calls into np.fft, and the transforms they make: one per row
        calls, transforms = [0], [0]

        def counted(fn):
            def wrapper(a, *args, **kwargs):
                calls[0] += 1
                transforms[0] += np.size(a) // np.shape(a)[-1]
                return fn(a, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.fft, "fft", counted(np.fft.fft))
        monkeypatch.setattr(np.fft, "ifft", counted(np.fft.ifft))
        seen = []
        dnls_evolve(sech_field(grid1d(256, 0.1), 0.5), 0.0, 0.05, DNLSParams(1.0),
                    0.01, observer=lambda t, fld: seen.append((calls[0], transforms[0])))
        # one FFT for the start state's spectrum and one for the health
        # monitor's spectral tail (``diagnostics``) at the start; then per
        # step four stages, each one inverse call on psi and psi_x and one
        # FFT back, and one inverse FFT for the field the observer gets.
        # Five steps are fewer than HEALTH_CHECKS_PER_RUN, so the monitor
        # checks after every step, once the observer has seen it: from the
        # second step on, each difference holds the last step's monitor FFT
        assert seen[0] == (2, 2)
        assert np.diff(seen, axis=0).tolist() == (
            [[8 + 1, 12 + 1]] + [[8 + 1 + 1, 12 + 1 + 1]] * 4)

    def test_product_rule_slope_equals_density_form(self):
        # a field whose spectrum lies below N/4 has a band-limited |psi|^2,
        # so the product rule 2 Re(conj(psi) psi_x) and the spectral
        # derivative of the density, the form of ``residual``, are equal
        g = grid1d(256, 0.1)
        plan = spectral_plan(g)
        psi = random_band_limited(g, seed=3, band=0.45).values
        pair = np.stack([np.fft.fft(psi), np.zeros(256)])
        out = np.empty(256, np.complex128)
        solvers._dnls_slope(pair, out, 0.0, np.empty_like(pair), np.empty(256),
                            np.empty(256), plan.derivative_symbol)
        ref = np.fft.fft(plan.derivative(np.abs(psi) ** 2) * psi)
        assert np.linalg.norm(out - ref) <= 1e-13 * np.linalg.norm(ref)

    @pytest.mark.parametrize("steps", [5, 50])
    def test_two_multipliers_an_evolution(self, monkeypatch, steps):
        # E = m(h/2) and E2 = m(h), built at the first step, whatever the
        # step count
        built = []
        build = SpectralPlan.free_multiplier

        def counted(plan, t):
            built.append(t)
            return build(plan, t)

        monkeypatch.setattr(SpectralPlan, "free_multiplier", counted)
        seen = []
        dnls_evolve(sech_field(grid1d(256, 0.1), 0.5), 0.0, 0.01 * steps,
                    DNLSParams(1.0), 0.01, observer=lambda t, fld: seen.append(t))
        assert len(seen) == steps + 1
        assert built == pytest.approx([0.005, 0.01], rel=1e-12)

    def test_reused_buffers_leak_into_no_field(self):
        # every step runs in place on arrays allocated once per evolution;
        # no field handed out may change afterwards or share memory with
        # another
        f = sech_field(grid1d(256, 0.1), 0.5)
        before = f.values.copy()
        seen = []
        out = dnls_evolve(f, 0.0, 0.05, DNLSParams(1.0), 0.01,
                          observer=lambda t, u: seen.append((u, u.values.copy())))
        assert len(seen) == 6
        assert np.array_equal(f.values, before)
        for u, copy in seen:
            assert np.array_equal(u.values, copy)
        assert out is seen[-1][0]
        for (u, _), (v, _) in itertools.combinations(seen, 2):
            assert not np.shares_memory(u.values, v.values)

    def test_lambda_zero_is_free(self):
        g = grid1d(256, 0.1)
        f = sech_field(g, 0.4)
        out = dnls_evolve(f, 0.0, 0.5, DNLSParams(0.0), 0.01)
        ref = free_propagate(f, 0.5)
        assert l2_difference(out, ref) < 1e-12

    def test_mass_drift_small(self):
        g = grid1d(512, 0.08)
        f = sech_field(g, 0.3)
        out = dnls_evolve(f, 0.0, 1.0, DNLSParams(1.0), 1e-3)
        drift = abs(l2_norm(out) ** 2 - l2_norm(f) ** 2) / l2_norm(f) ** 2
        assert drift < 1e-8

    def test_dimension_guard(self):
        g = GridDescriptor.centered((32, 32), (0.3, 0.3))
        f = field_from_function(g, lambda x, y: 0.1 * np.exp(-(x**2 + y**2)))
        with pytest.raises(ValueError, match="one-dimensional"):
            dnls_evolve(f, 0.0, 0.1, DNLSParams(1.0), 0.01)

    def test_blow_up_fails_at_once(self):
        # a healthy start and an absurd dt: the first run blows up inside
        # its first step and is not rerun with a smaller one
        g = grid1d(512, 0.1)
        f = sech_field(g, 3.0)
        seen = []
        with pytest.raises(SolverHealthError) as info:
            dnls_evolve(f, 0.0, 20.0, DNLSParams(8.0), 2.0,
                        observer=lambda t, fld: seen.append(t))
        assert seen == [0.0]
        assert info.value.diagnostics["t"] > 0.0
        assert "blow-up in a Runge-Kutta stage" in str(info.value)
        assert "halvings" not in str(info.value)


class TestResidual:
    def _constant_trajectory(self, c, p, times, grid):
        snaps = []
        for t in times:
            vals = c * np.exp(-1j * p.mu * abs(c) ** (2 * p.sigma) * t)
            f = field_from_function(grid, lambda x: vals + 0.0 * x)
            snaps.append(SnapshotAtTime(f, t))
        return snaps

    def test_plane_constant_differencing_error(self):
        g = grid1d(128, 0.1)
        p = NLSParams(sigma=2.0, mu=1.0)
        dt = 1e-3
        snaps = self._constant_trajectory(0.8, p, [0.0, dt, 2 * dt], g)
        r = residual(snaps, p)
        # central difference of exp(-i w t): error ~ w^3 dt^2 / 6 * |c| * ||1||
        w = p.mu * 0.8**4
        expected = w**3 * dt**2 / 6.0 * 0.8 * np.sqrt(g.cell_volume * g.size)
        assert r < 5 * expected

    def test_free_solution(self):
        g = grid1d(512, 0.08)
        f = gaussian_field(g, amplitude=0.4)
        p = NLSParams(sigma=2.0, mu=0.0)
        dt = 1e-3
        snaps = [SnapshotAtTime(free_propagate(f, t), t) for t in (0.0, dt, 2 * dt)]
        assert residual(snaps, p) < 1e-6

    def test_wrong_coupling_detected(self):
        g = grid1d(256, 0.1)
        p_true = NLSParams(sigma=2.0, mu=1.0)
        p_wrong = NLSParams(sigma=2.0, mu=-1.0)
        dt = 1e-3
        snaps = self._constant_trajectory(0.8, p_true, [0.0, dt, 2 * dt], g)
        assert residual(snaps, p_wrong) > 0.1

    def test_too_few_snapshots(self):
        g = grid1d(128, 0.1)
        f = gaussian_field(g)
        with pytest.raises(ValueError):
            residual([SnapshotAtTime(f, 0.0), SnapshotAtTime(f, 0.1)], NLSParams(sigma=2.0))

    def test_dnls_solution_residual_small(self):
        g = grid1d(512, 0.08)
        f = sech_field(g, 0.4)
        p = DNLSParams(1.0)
        snaps = []
        dnls_evolve(
            f, 0.0, 0.004, p, 2e-3,
            observer=lambda t, fld: snaps.append(SnapshotAtTime(fld, t)),
        )
        assert residual(snaps, p) < 1e-4


class TestGaugeEquivalence:
    def test_both_directions_light(self):
        # u solves the quintic equation with mu = lambda^2/2; N_+ u solves the
        # derivative equation.  Run a short horizon at module scale.
        lam = 1.0
        g = grid1d(2048, 0.02)
        u0 = sech_field(g, 0.3)
        p_nls = NLSParams(sigma=2.0, mu=0.5 * lam**2)
        p_dnls = DNLSParams(lam)
        dt = 5e-4
        t_end = 0.25
        u_t = nls_evolve(u0, 0.0, t_end, p_nls, dt)
        psi0 = gauge(u0, GaugeParams(lam, +1))
        psi_t = dnls_evolve(psi0, 0.0, t_end, p_dnls, dt)
        lhs = gauge(u_t, GaugeParams(lam, +1))
        rel = l2_difference(lhs, psi_t) / l2_norm(psi_t)
        assert rel < 1e-5
        # converse: N_- psi solves the quintic equation
        back = gauge(psi_t, GaugeParams(lam, -1))
        rel2 = l2_difference(back, u_t) / l2_norm(u_t)
        assert rel2 < 1e-5


class TestClosedFormSolutions:
    """The focusing quintic (mu = -1, sigma = 2) against its exact solutions:
    the ground state e^{it} Q, its Galilean boost and its pseudo-conformal
    blow-up.  They pin the sign of mu, the 1/2 of the Laplacian, the phase of
    the kick and the time relabelling of ``pseudo_conformal`` against the
    equation itself.  Each error is relative to ||Q||, and each bound is
    about 1.1x the value measured at the same dt."""

    P = NLSParams(sigma=2.0, mu=-1.0)

    @staticmethod
    def errors(evolve, exact, dts):
        return [l2_difference(evolve(dt), exact) / np.sqrt(GROUND_STATE_MASS)
                for dt in dts]

    @staticmethod
    def assert_order(errs, bounds, window=(3.5, 4.5)):
        # halving dt divides a Strang error by 4, and a Yoshida error by 16
        ratios = [a / b for a, b in zip(errs, errs[1:])]
        assert all(window[0] <= r <= window[1] for r in ratios), ratios
        assert all(e <= b for e, b in zip(errs, bounds)), errs

    def test_ground_state_mass(self):
        q = field_from_function(grid1d(1024, 0.04), ground_state)
        assert abs(l2_norm(q) ** 2 - GROUND_STATE_MASS) < 1e-14

    def test_ground_state_rotates(self):
        g = grid1d(1024, 0.04)
        q = field_from_function(g, ground_state)
        exact = field_from_function(g, lambda x: np.exp(1j) * ground_state(x))
        errs = self.errors(lambda dt: nls_evolve(q, 0.0, 1.0, self.P, dt), exact,
                           (0.02, 0.01, 0.005, 0.0025))
        # measured 6.20e-3, 1.57e-3, 3.93e-4 and 9.84e-5
        self.assert_order(errs, (6.8e-3, 1.73e-3, 4.3e-4, 1.08e-4))
        # the wrong coupling misses by 1.56 (mu = +1) and 0.92 (mu = -0.5)
        for mu in (1.0, -0.5):
            miss = self.errors(
                lambda dt: nls_evolve(q, 0.0, 1.0, NLSParams(sigma=2.0, mu=mu), dt),
                exact, (0.005,))[0]
            assert miss > 100.0 * errs[2]

    def test_boosted_soliton_moves(self):
        g = grid1d(1024, 0.04)
        u0 = field_from_function(g, lambda x: boosted_soliton(x, 0.0, 1.0, -5.0))
        exact = field_from_function(g, lambda x: boosted_soliton(x, 2.0, 1.0, -5.0))
        errs = self.errors(lambda dt: nls_evolve(u0, 0.0, 2.0, self.P, dt), exact,
                           (0.01, 0.005, 0.0025))
        # measured 6.38e-3, 1.60e-3 and 4.02e-4
        self.assert_order(errs, (7.0e-3, 1.76e-3, 4.4e-4))

    def test_ground_state_rotates_at_fourth_order(self):
        g = grid1d(1024, 0.04)
        q = field_from_function(g, ground_state)
        exact = field_from_function(g, lambda x: np.exp(1j) * ground_state(x))
        errs = self.errors(
            lambda dt: evolve_composed(q, 0.0, 1.0, self.P, dt, YOSHIDA), exact,
            (0.01, 0.005, 0.0025))
        # measured 5.80e-5, 3.79e-6 and 2.39e-7: ratios 15.3 and 15.8
        self.assert_order(errs, (6.4e-5, 4.2e-6, 2.6e-7), window=(14.0, 18.0))

    def test_pseudo_conformal_image_is_a_solution(self):
        # the images of the e^{i tau} Q snapshots at tau = -0.5 and -1 are
        # the blow-up solution at t = 2 and t = 1, each on its own grid
        g = grid1d(4096, 0.02)
        first, second = (
            pseudo_conformal(SnapshotAtTime(
                field_from_function(g, lambda x, tau=tau: np.exp(1j * tau) * ground_state(x)),
                tau))
            for tau in (-0.5, -1.0))
        assert (first.time, second.time) == (2.0, 1.0)
        for snap in (first, second):
            exact = field_from_function(snap.field.grid,
                                        lambda x, t=snap.time: blowup_solution(x, t))
            assert np.max(np.abs(snap.field.values - exact.values)) < 1e-14
        # evolving the first back to t = 1 meets the second
        errs = self.errors(
            lambda dt: resample(nls_evolve(first.field, 2.0, 1.0, self.P, dt),
                                second.field.grid),
            second.field, (4e-3, 2e-3, 1e-3))
        # measured 3.49e-5, 8.73e-6 and 2.18e-6
        self.assert_order(errs, (3.9e-5, 9.6e-6, 2.4e-6))
        # the free flow in its place misses by 0.75
        miss = l2_difference(resample(free_propagate(first.field, -1.0), second.field.grid),
                             second.field) / np.sqrt(GROUND_STATE_MASS)
        assert miss > 100.0 * errs[0]
