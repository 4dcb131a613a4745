"""Acceptance suite: every criterion at its stated tolerance, one test per
criterion, printing a PASS line on success (run with -s to see them all).

Desk scale: n=1 at N=1024..4096 (N=8192 only for the doubled-horizon rerun,
which is not pinned), n=2 smoke at N=256^2.
"""

import json

import numpy as np
import pytest
from scipy.special import gamma, gammainc

from nlslab.born import (
    QuadratureSpec,
    born_integral,
    corollary2_sides,
    scalar_weighted_integral,
    subcritical_sides,
)
from nlslab.core import (
    FREQUENCY,
    POSITION,
    ComplexField,
    GridDescriptor,
    field_from_function,
    forward_fourier,
    free_propagate,
    dilate,
    inverse_fourier,
    l2_difference,
    l2_norm,
    quadratic_phase,
    resample,
)
from nlslab.harness import InitialDatumSpec, make_datum, run
from nlslab.reports import strip_timing
from nlslab.scattering import ScatteringConfig, verify_proposition, verify_theorem1
from nlslab.solvers import (
    DNLSParams,
    NLSParams,
    StepControl,
    dnls_evolve,
    nls_evolve,
)
from nlslab.transforms import (
    SnapshotAtTime,
    pseudo_conformal,
    reflect,
    spectral_profile_decay_ladder,
)
from nlslab.util import fit_loglog_slope

from oracles import gaussian_free_solution
from test_spectral import gaussian_field, grid1d, random_band_limited


def report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


class TestCriterion01SpectralSoundness:
    def test_round_trip_and_plancherel(self):
        worst_rt, worst_pl = 0.0, 0.0
        for n, h, seed in [(1024, 0.05, 0), (2048, 0.03, 1), (4096, 0.02, 2)]:
            f = random_band_limited(grid1d(n, h), seed=seed)
            fhat = forward_fourier(f)
            back = inverse_fourier(fhat)
            worst_rt = max(worst_rt, l2_difference(back, f) / l2_norm(f))
            worst_pl = max(worst_pl, abs(l2_norm(fhat) - l2_norm(f)) / l2_norm(f))
        report(
            "criterion 1a: transform round-trip + Plancherel to 1e-12",
            worst_rt < 1e-12 and worst_pl < 1e-12,
            f"round-trip {worst_rt:.2e}, plancherel {worst_pl:.2e}",
        )

    def test_free_propagator_analytic_gaussian(self):
        g = grid1d(2048, 0.08)
        f = gaussian_field(g)
        worst = 0.0
        for t in (0.0, 1.0, 2.5, 5.0, 7.5, 10.0):
            out = free_propagate(f, t)
            exact = gaussian_free_solution(g.axis_coords(0), t)
            err = np.sqrt(g.cell_volume * np.sum(np.abs(out.values - exact) ** 2))
            worst = max(worst, err)
        report(
            "criterion 1b: free propagator matches analytic Gaussian to 1e-8",
            worst < 1e-8,
            f"worst L2 error {worst:.2e} over t in [0, 10]",
        )

    def test_group_law(self):
        f = random_band_limited(grid1d(1024, 0.05), seed=3)
        worst = 0.0
        rng = np.random.default_rng(7)
        for _ in range(4):
            s, t = rng.uniform(-3, 3, size=2)
            a = free_propagate(free_propagate(f, s), t)
            b = free_propagate(f, s + t)
            worst = max(worst, l2_difference(a, b) / l2_norm(f))
        report(
            "criterion 1c: one-parameter group law to 1e-13",
            worst < 1e-13,
            f"worst {worst:.2e}",
        )


class TestCriterion02Factorization:
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 5.0])
    def test_chirp_dilate_transform_chirp(self, t):
        g = grid1d(1024, 0.08)
        f = gaussian_field(g)
        direct = free_propagate(f, t)
        factored = quadratic_phase(
            dilate(forward_fourier(quadratic_phase(f, t)).retagged(POSITION), t), t
        )
        err = l2_difference(resample(factored, g), direct)
        report(
            f"criterion 2: free-group factorization at t={t} to 1e-8",
            err < 1e-8,
            f"error {err:.2e}",
        )


class TestCriterion03SolverOrders:
    def test_split_step_mass_drift(self):
        g = grid1d(1024, 0.12)
        f = gaussian_field(g, amplitude=0.5)
        p = NLSParams(dim=1, sigma=2.0, mu=1.0)
        out = nls_evolve(f, 0.0, 10.0, p, StepControl(dt=1e-3))
        drift = abs(l2_norm(out) ** 2 - l2_norm(f) ** 2) / l2_norm(f) ** 2
        report(
            "criterion 3a: split-step mass drift < 1e-11 over 1e4 steps",
            drift < 1e-11,
            f"drift {drift:.2e}",
        )

    def test_split_step_order_two(self):
        g = grid1d(512, 0.05)
        f = gaussian_field(g, amplitude=0.5)
        p = NLSParams(dim=1, sigma=2.0, mu=1.0)
        ref = nls_evolve(f, 0.0, 1.0, p, StepControl(dt=0.04 / 8))
        errs = [
            l2_difference(nls_evolve(f, 0.0, 1.0, p, StepControl(dt=dt)), ref)
            for dt in (0.04, 0.02)
        ]
        ratio = errs[0] / errs[1]
        report(
            "criterion 3b: dt-halving order-2 ratio in [3.5, 4.5]",
            3.5 < ratio < 4.5,
            f"ratio {ratio:.2f}",
        )

    def test_dnls_order_four_and_mass(self):
        g = grid1d(512, 0.08)
        f = field_from_function(g, lambda x: 0.3 / np.cosh(x))
        p = DNLSParams(1.0)
        ref = dnls_evolve(f, 0.0, 0.5, p, StepControl(dt=0.0025 / 8))
        errs = [
            l2_difference(dnls_evolve(f, 0.0, 0.5, p, StepControl(dt=dt)), ref)
            for dt in (0.005, 0.0025)
        ]
        ratio = errs[0] / errs[1]
        out = dnls_evolve(f, 0.0, 1.0, p, StepControl(dt=1e-3))
        drift = abs(l2_norm(out) ** 2 - l2_norm(f) ** 2) / l2_norm(f) ** 2
        report(
            "criterion 3c: RK4 order-4 ratio in [12, 20], mass drift < 1e-8",
            12.0 < ratio < 20.0 and drift < 1e-8,
            f"ratio {ratio:.2f}, drift {drift:.2e}",
        )


class TestCriterion04StaticProfileDecay:
    def test_ladder_slope(self):
        g = GridDescriptor.centered((4096,), (0.2,))
        phi = gaussian_field(g.dual()).retagged(FREQUENCY)
        ladder = spectral_profile_decay_ladder(phi, [10.0, 20.0, 40.0, 80.0])
        slope, _ = fit_loglog_slope([t for t, _ in ladder], [e for _, e in ladder])
        report(
            "criterion 4: conformal-vs-free decay slope <= -0.4 over {10..80}",
            slope <= -0.4,
            f"slope {slope:.3f} (smooth-data expectation ~ -1)",
        )


class TestCriterion05DoubleConformalIsReflection:
    @pytest.mark.parametrize("tau", [2.3, -2.3])
    def test_involution(self, tau):
        f = gaussian_field(grid1d(1024, 0.05), width=0.9, center=1.2)
        twice = pseudo_conformal(pseudo_conformal(SnapshotAtTime(f, tau)))
        err = np.max(np.abs(twice.field.values - reflect(f).values))
        report(
            f"criterion 5: double conformal = reflection at tau={tau} to 1e-6",
            err < 1e-6 and abs(twice.time - tau) < 1e-12,
            f"max error {err:.2e}",
        )


THM1_GRID = {"dim": 1, "counts": [4096], "spacings": [0.55]}
THM1_SCATTERING = {"horizon": 200.0, "tol": 1e-4, "ladder_factor": 2.0,
                   "max_rungs": 1, "initializer": "free", "dt": 0.025}


@pytest.mark.slow
class TestCriterion06Theorem1:
    @pytest.mark.parametrize("mu", [1.0, -1.0])
    def test_n1_residual_and_horizon_doubling(self, mu):
        rep = run(
            "thm1",
            {
                "grid": THM1_GRID,
                "equation": {"sigma": 2.0, "mu": mu},
                "scattering": THM1_SCATTERING,
                "verify": {"tolerance": 1e-3, "double_horizon": True,
                           "doubled_counts": [8192]},
            },
        )
        values = {r.name: r.value for r in rep.residuals}
        ok = rep.verdict == "pass"
        report(
            f"criterion 6a: transform/wave-operator identity (mu={mu:+.0f}) "
            "< 1e-3 at T=200, decreasing at T=400",
            ok,
            f"plus {values['sign_plus']:.2e}, minus {values['sign_minus']:.2e}, "
            f"ratios {values['sign_plus_decreases_with_horizon']:.2f}/"
            f"{values['sign_minus_decreases_with_horizon']:.2f}",
        )

    def test_n2_smoke_sized(self):
        g2 = GridDescriptor.centered((256, 256), (0.64, 0.64))
        datum = make_datum(
            InitialDatumSpec("gaussian", amplitude=1.0, width=1.0, normalize=0.3), g2
        )
        p = NLSParams(dim=2, mu=1.0)
        cfg = ScatteringConfig(horizon=12.0, tol=1e-4, max_rungs=1,
                               control=StepControl(dt=0.02))
        rep = verify_theorem1(datum, p, cfg, tolerance=1e-2)
        worst = max(r.value for r in rep.residuals)
        report(
            "criterion 6b: n=2 cubic smoke at N=256^2 (resolvable horizon T=12) < 1e-2",
            rep.verdict == "pass",
            f"worst residual {worst:.2e}",
        )

    @pytest.mark.xfail(
        strict=True,
        reason="N=256^2 cannot host the T=50 smoke run: the forward route "
        "evolves the transformed datum, whose position content x_eff and "
        "spectral content k_eff satisfy k_eff*x_eff >~ 20, so resolving a "
        "horizon-T spread needs N >~ (2/pi)*1.1*1.05*k*x*T ~ 765 points per "
        "axis; at 256^2 the health guard aborts on the unresolvable hosted "
        "datum (see decisions ledger)",
    )
    def test_n2_smoke_literal_T50(self):
        g2 = GridDescriptor.centered((256, 256), (0.75, 0.75))
        datum = make_datum(
            InitialDatumSpec("gaussian", amplitude=1.0, width=3.0, normalize=0.3), g2
        )
        p = NLSParams(dim=2, mu=1.0)
        cfg = ScatteringConfig(horizon=50.0, tol=1e-4, max_rungs=1,
                               control=StepControl(dt=0.02))
        rep = verify_theorem1(datum, p, cfg, tolerance=1e-2)
        assert rep.verdict == "pass"


@pytest.mark.slow
class TestCriterion07Conjugation:
    def test_both_identities(self):
        rep = run(
            "conjugation",
            {
                "grid": THM1_GRID,
                "scattering": THM1_SCATTERING,
                "verify": {"tolerance": 1e-3},
            },
        )
        worst = max(r.value for r in rep.residuals)
        report(
            "criterion 7: conjugation identities < 1e-3 at T=200, N=4096",
            rep.verdict == "pass",
            f"worst residual {worst:.2e}",
        )


class TestCriterion08Corollary2:
    def test_sides_refinement_and_tail(self):
        g = grid1d(1024, 0.039)
        phi = gaussian_field(g)
        q = QuadratureSpec(t_max=25600.0, panels=80)
        worst_diff, worst_delta = 0.0, 0.0
        for sign in (+1, -1):
            lhs, rhs = corollary2_sides(phi, sign, q)
            scale = l2_norm(lhs.field)
            worst_diff = max(worst_diff, l2_difference(lhs.field, rhs.field) / scale)
            worst_delta = max(
                worst_delta,
                max(lhs.refinement_delta, rhs.refinement_delta) / scale,
            )
        # certified tail: doubling t_max moves the result by less than the bound
        base = born_integral(phi, +1, 2.0, q)
        doubled = born_integral(
            phi, +1, 2.0, QuadratureSpec(t_max=2 * q.t_max, panels=96)
        )
        moved = l2_difference(base.field, doubled.field)
        report(
            "criterion 8: expansion-identity sides < 1e-4, refinement < 1e-6, "
            "certified tail",
            worst_diff < 1e-4 and worst_delta < 1e-6 and moved < base.tail_bound,
            f"sides {worst_diff:.2e}, refinement {worst_delta:.2e}, "
            f"tail moved {moved:.2e} < bound {base.tail_bound:.2e}",
        )


class TestCriterion09SmallDataExpansion:
    @pytest.mark.parametrize("sign", [+1, -1])
    def test_coefficient_convergence_and_remainder_slope(self, sign):
        g = GridDescriptor.centered((4096,), (0.34,))
        phi = make_datum(InitialDatumSpec("gaussian", normalize=1.0), g)
        cfg = ScatteringConfig(
            horizon=140.0, tol=1e-4, max_rungs=1, initializer="born",
            control=StepControl(dt=0.028),
            corrector=QuadratureSpec(t_max=20000.0, panels=48),
        )
        rep = verify_proposition(
            phi, sign, 1, [0.4, 0.2, 0.1], cfg,
            q=QuadratureSpec(t_max=20000.0, panels=64),
        )
        slopes = {d["name"]: d["value"] for d in rep.fitted_rates}
        report(
            f"criterion 9 (sign {sign:+d}): coefficient convergence strictly "
            "decreasing and remainder slope > 5.5 for forward and inverse",
            rep.verdict == "pass",
            f"slopes {slopes['forward_remainder_slope']:.2f}/"
            f"{slopes['inverse_remainder_slope']:.2f}; "
            "candidate rates recorded in the report notes",
        )


class TestCriterion10GaugeEquivalence:
    def test_both_directions_and_inverse_pair(self):
        rep = run("dnls_gauge")
        values = {r.name: r.value for r in rep.residuals}
        report(
            "criterion 10: gauge equivalence < 1e-5 on [0, 1] both directions, "
            "twist pair = identity to 1e-12",
            rep.verdict == "pass",
            f"quintic->derivative {values['quintic_to_derivative']:.2e}, "
            f"derivative->quintic {values['derivative_to_quintic']:.2e}, "
            f"pair {values['gauge_pair_identity']:.2e}",
        )


class TestCriterion11Subcritical:
    def test_weighted_identities(self):
        rep = run("subcritical")
        worst = max(r.value for r in rep.residuals if "difference" in r.name)
        report(
            "criterion 11a: sub-critical weighted identities (sigma=1.5) < 1e-4",
            rep.verdict == "pass",
            f"worst side difference {worst:.2e}",
        )

    def test_scalar_substitution_oracles(self):
        worst = 0.0
        for a in (-0.5, -0.25):
            for k in (0.0, 1.0, 2.0):
                got = scalar_weighted_integral(lambda t: t**k, a, 3.0, 24)
                exact = 3.0 ** (a + k + 1) / (a + k + 1)
                worst = max(worst, abs(got - exact) / exact)
            got = scalar_weighted_integral(lambda t: np.exp(-t), a, 6.0, 32)
            exact = gamma(a + 1.0) * gammainc(a + 1.0, 6.0)
            worst = max(worst, abs(got - exact))
        report(
            "criterion 11b: singular-substitution scalar oracles exact to 1e-10",
            worst < 1e-10,
            f"worst {worst:.2e}",
        )


class TestCriterion12Determinism:
    def test_repeat_runs_byte_identical(self, tmp_path):
        cfg = {"evolve": {"t1": 0.1}}
        a = run("solve", cfg, out_dir=tmp_path / "a")
        b = run("solve", cfg, out_dir=tmp_path / "b")
        ja = (tmp_path / "a" / "solve_report.json").read_text()
        jb = (tmp_path / "b" / "solve_report.json").read_text()
        report(
            "criterion 12a: repeated runs byte-identical modulo timestamps",
            strip_timing(ja) == strip_timing(jb),
        )

    def test_parallel_matches_sequential(self):
        # --parallel is part of the CLI contract: it is echoed into the
        # params and changes nothing else in the report
        light = {"quadrature": {"t_max": 400.0, "panels": 24}}
        texts = {}
        for parallel in (False, True):
            text = run("corollary2", light, parallel=parallel).to_json()
            rep = json.loads(strip_timing(text))
            assert rep["params"].pop("parallel") is parallel
            texts[parallel] = json.dumps(rep, sort_keys=True, indent=2)
        report(
            "criterion 12b: --parallel report byte-equal to sequential "
            "apart from params.parallel",
            texts[True] == texts[False],
        )
