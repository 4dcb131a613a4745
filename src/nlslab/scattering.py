"""Numerical wave operators, their inverses, and the operator-identity
verifications built on them.

The limits t -> +-infinity are discretized by a horizon ladder: each rung
doubles the truncation time and convergence is certified by the change
between successive rungs.  The optional Born initializer (and the matching
extraction corrector for the inverse) removes the first-order finite-horizon
bias, which is what makes tight tolerances reachable at moderate horizons:
the pre/post-horizon nonlinear action is a shifted half-line integral of the
same flow integrand the born module evaluates, computed on the compact
asymptotic datum and propagated across the horizon in one step.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .born import QuadratureSpec, _quad_panels, born_integral, flow_integrand
from .core import (
    POSITION,
    ComplexField,
    GridDescriptor,
    forward_fourier,
    free_propagate,
    l2_difference,
    l2_norm,
    resample,
)
from .errors import ConvergenceError, NlslabError
from .reports import VerificationReport
from .solvers import NLSParams, StepControl, nls_evolve
from .transforms import SnapshotAtTime, conjugate, pseudo_conformal, reflect
from .util import fit_loglog_slope


@dataclass(frozen=True)
class ScatteringConfig:
    """Horizon ladder and solver settings for wave-operator runs."""

    horizon: float
    tol: float = 1e-4
    ladder_factor: float = 2.0
    max_rungs: int = 3
    initializer: str = "free"  # "born" adds the first-order horizon corrector
    small_data_threshold: float = 0.5
    control: StepControl = dc_field(default_factory=lambda: StepControl(dt=0.02))
    corrector: QuadratureSpec = dc_field(
        default_factory=lambda: QuadratureSpec(t_max=20000.0, panels=48)
    )

    def __post_init__(self):
        if not (self.horizon > 0):
            raise ValueError("horizon must be positive")
        if not (self.ladder_factor > 1):
            raise ValueError("ladder_factor must exceed 1")
        if self.max_rungs < 1:
            raise ValueError("max_rungs must be >= 1")
        if self.initializer not in ("free", "born"):
            raise ValueError(f"unknown initializer {self.initializer!r}")


@dataclass(frozen=True)
class ScatteringResult:
    field: ComplexField
    horizon_ladder: list
    converged: bool
    tail_estimate: float


def _check_small_data(f, cfg):
    nrm = l2_norm(f)
    if nrm > cfg.small_data_threshold:
        raise NlslabError(
            f"datum norm {nrm:.4g} exceeds the small-data threshold "
            f"{cfg.small_data_threshold:.4g}"
        )


def _as_function(f):
    return f.retagged(POSITION)


def _shifted_flow_integral(a, horizon, sign, p, spec):
    """integral over [0, t_max] of U0(-t) G(U0(t) a) at t = sign*(horizon+tau),
    evaluated on a's compact grid (positive measure in tau)."""
    ev = lambda tau: flow_integrand(a, sign * (horizon + abs(tau)), p.sigma)
    return _quad_panels(ev, +1, spec, spec.panels)


def _born_initial_state(a, horizon, sign, p, spec):
    """U0(sign*T) a plus the first-order pre-horizon corrector."""
    b = free_propagate(_as_function(a), sign * horizon)
    j = _shifted_flow_integral(a, horizon, sign, p, spec)
    corr = free_propagate(j, sign * horizon)
    return b.with_values(b.values + 1j * sign * p.mu * corr.values)


def _born_extracted_state(e, horizon, sign, p, spec):
    """Remove the first-order post-horizon bias from U0(-sign*T) u(sign*T)."""
    j = _shifted_flow_integral(e, horizon, sign, p, spec)
    return e.with_values(e.values - 1j * sign * p.mu * j.values)


def _rung_ladder(rung_field, like, cfg, what):
    """Run ``rung_field(horizon)`` on the horizon ladder until two successive
    rungs agree within cfg.tol.  A single-rung ladder returns unconverged
    with a NaN tail; an exhausted longer one raises ConvergenceError.  The
    result lives on ``like``'s grid and space."""
    ladder = []
    previous = None
    for rung in range(cfg.max_rungs):
        horizon = cfg.horizon * cfg.ladder_factor**rung
        current = rung_field(horizon)
        if previous is not None:
            change = l2_difference(current, previous)
            ladder.append((horizon, change))
            if change < cfg.tol:
                return ScatteringResult(
                    ComplexField(like.grid, current.values, like.space),
                    ladder,
                    True,
                    _ladder_tail(ladder, cfg.ladder_factor),
                )
        previous = current
    if cfg.max_rungs > 1:
        raise ConvergenceError(
            f"{what} ladder did not converge after {cfg.max_rungs} rungs: "
            f"changes {[c for _, c in ladder]}, tol {cfg.tol}"
        )
    return ScatteringResult(
        ComplexField(like.grid, current.values, like.space), ladder, False, float("nan")
    )


def wave_operator(
    u_pm: ComplexField, sign: int, p: NLSParams, cfg: ScatteringConfig
) -> ScatteringResult:
    """Map the asymptotic state at sign*infinity to the solution at t = 0.

    Each rung seeds u(sign*T) from the free (or Born-corrected) state and
    integrates to zero; rungs extend until successive u(0) agree within
    cfg.tol.  Raises ConvergenceError when the ladder is exhausted.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    _check_small_data(u_pm, cfg)
    a = _as_function(u_pm)

    def rung(horizon):
        if cfg.initializer == "born":
            u_init = _born_initial_state(a, horizon, sign, p, cfg.corrector)
        else:
            u_init = free_propagate(a, sign * horizon)
        return nls_evolve(u_init, sign * horizon, 0.0, p, cfg.control)

    return _rung_ladder(rung, u_pm, cfg, "wave operator")


def _ladder_tail(ladder, factor):
    """Geometric sum of the changes still to come, with change ~ T^(-q)
    fitted to the last two rungs; the last change itself when there is no
    such decay."""
    changes = [c for _, c in ladder]
    if len(changes) < 2 or changes[-1] == 0.0 or changes[-2] == 0.0:
        return changes[-1]
    q = float(np.log(changes[-2] / changes[-1]) / np.log(factor))
    if q <= 0:
        return changes[-1]
    r = factor**-q
    return float(changes[-1] * r / (1.0 - r))


def inverse_wave_operator(
    u0: ComplexField, sign: int, p: NLSParams, cfg: ScatteringConfig
) -> ScatteringResult:
    """Map Cauchy data at t = 0 to the asymptotic state at sign*infinity.

    The trajectory is continued across rungs; the asymptotic state at each
    rung is U0(-sign*T) u(sign*T), optionally Born-corrected.  The change
    ladder is fitted to C*T^(-q); the extrapolated tail is reported, never
    applied.  Raises ConvergenceError when the ladder is exhausted.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    _check_small_data(u0, cfg)
    state, t_now = _as_function(u0), 0.0

    def rung(horizon):
        nonlocal state, t_now
        state = nls_evolve(state, t_now, sign * horizon, p, cfg.control)
        t_now = sign * horizon
        e = free_propagate(state, -sign * horizon)
        if cfg.initializer == "born":
            e = _born_extracted_state(e, horizon, sign, p, cfg.corrector)
        return e

    return _rung_ladder(rung, u0, cfg, "inverse wave operator")


def _host_on(field_as_samples, grid):
    """Re-host a (possibly frequency-tagged) field's samples on ``grid`` by
    band-limited interpolation, zero-filling outside the source domain."""
    return resample(_as_function(field_as_samples), grid)


def _inverse_transform_as_function(f):
    """F^{-1} applied to a field's samples viewed as a plain function:
    F^{-1} g = R(F g), landing on the dual grid."""
    return reflect(forward_fourier(_as_function(f)))


def verify_theorem1(
    u0: ComplexField, p: NLSParams, cfg: ScatteringConfig, tolerance=1e-3
) -> VerificationReport:
    """Residuals of the transform-conjugation identity between the inverse
    and forward wave operators, both sign choices."""
    report = VerificationReport(
        identity="fourier_exchanges_wave_operators",
        params={"sigma": p.sigma, "mu": p.mu, "dim": p.dim,
                "horizon": cfg.horizon, "initializer": cfg.initializer,
                "dt": cfg.control.dt, "max_rungs": cfg.max_rungs},
        grid={"counts": list(u0.grid.counts), "spacings": list(u0.grid.spacings)},
    )
    uhat = forward_fourier(u0)
    hosted = _host_on(uhat, u0.grid)
    scale = l2_norm(u0)
    for sign, label in ((+1, "plus"), (-1, "minus")):
        inv = inverse_wave_operator(u0, sign, p, cfg)
        a_side = forward_fourier(inv.field)
        fwd = wave_operator(hosted, -sign, p, cfg)
        b_side = resample(fwd.field, a_side.grid)
        resid = l2_difference(a_side, b_side.retagged(a_side.space)) / scale
        report.add_residual(f"sign_{label}", resid, tolerance)
        report.ladders[f"inverse_{label}"] = inv.horizon_ladder
        report.ladders[f"forward_{label}"] = fwd.horizon_ladder
        report.horizons.append(cfg.horizon)
    return report


def verify_conjugation(
    u0: ComplexField, p: NLSParams, cfg: ScatteringConfig, tolerance=1e-3
) -> VerificationReport:
    """Residuals of both conjugation identities relating W+ and W-."""
    report = VerificationReport(
        identity="conjugation_identities",
        params={"sigma": p.sigma, "mu": p.mu, "dim": p.dim,
                "horizon": cfg.horizon, "initializer": cfg.initializer,
                "dt": cfg.control.dt, "max_rungs": cfg.max_rungs},
        grid={"counts": list(u0.grid.counts), "spacings": list(u0.grid.spacings)},
    )
    scale = l2_norm(u0)
    # W_s = C W_{-s} C on the datum itself
    for sign, label in ((+1, "plus"), (-1, "minus")):
        direct = wave_operator(u0, sign, p, cfg).field
        routed = conjugate(wave_operator(conjugate(u0), -sign, p, cfg).field)
        report.add_residual(
            f"conjugation_sandwich_{label}",
            l2_difference(direct, routed) / scale,
            tolerance,
        )
    # W_s^{-1} = (C F)^{-1} W_s (C F): right side via hosting C F u0
    cfu = conjugate(forward_fourier(u0))
    hosted = _host_on(cfu, u0.grid)
    for sign, label in ((+1, "plus"), (-1, "minus")):
        lhs = inverse_wave_operator(u0, sign, p, cfg).field
        mid = wave_operator(hosted, sign, p, cfg).field
        rhs = _inverse_transform_as_function(conjugate(mid))
        lhs_on_dual = resample(lhs, rhs.grid)
        report.add_residual(
            f"transform_conjugated_inverse_{label}",
            l2_difference(lhs_on_dual.retagged(rhs.space), rhs) / scale,
            tolerance,
        )
    return report


def verify_proposition(
    phi: ComplexField,
    sign: int,
    n: int,
    deltas,
    cfg: ScatteringConfig,
    q: QuadratureSpec | None = None,
    mu: float = 1.0,
    tolerance_slope_margin: float = 0.5,
) -> VerificationReport:
    """Small-data expansion of the wave operators against the quadrature
    corrector, for amplitudes ``deltas`` (each delta = epsilon^(n/4)).

    For each delta the forward and inverse operators are computed on their
    horizon ladders and the first-order term i * mu * delta^(1+4/n) * K is
    removed, K the oriented half-line corrector integral.  Reported: the
    coefficient-convergence error (must decrease in delta), and the fitted
    remainder slope, which is asserted only against the weaker candidate
    rate 1 + 4/n (plus a margin); both claimed remainder rates are recorded
    for comparison since they disagree away from n = 4.

    Sign convention (validated numerically by the test suite): the forward
    operator carries +i * K and the inverse carries -i * K, for both sign
    branches, with K oriented toward sign*infinity.
    """
    if q is None:
        q = QuadratureSpec(t_max=20000.0, panels=64)
    deltas = sorted(deltas, reverse=True)
    if len(deltas) < 3:
        raise ValueError("remainder slope fit needs at least 3 deltas")
    sigma = 2.0 / n
    power = 1.0 + 4.0 / n
    p = NLSParams(dim=n, sigma=sigma, mu=mu)
    k_res = born_integral(phi, sign, sigma, q)
    k = k_res.field
    k_norm = l2_norm(k)
    report = VerificationReport(
        identity="small_data_expansion",
        params={"sign": sign, "dim": n, "mu": mu, "deltas": list(deltas),
                "horizon": cfg.horizon, "initializer": cfg.initializer,
                "first_order_sign": {"forward": "+i", "inverse": "-i"},
                "corrector_tail_bound": k_res.tail_bound,
                "corrector_refinement_delta": k_res.refinement_delta},
        grid={"counts": list(phi.grid.counts), "spacings": list(phi.grid.spacings)},
    )
    rows = {"forward": [], "inverse": []}
    for delta in deltas:
        a = phi.with_values(delta * phi.values)
        w = wave_operator(a, sign, p, cfg).field
        w_inv = inverse_wave_operator(a, sign, p, cfg).field
        first = mu * delta**power * k.values
        for name, out, orient in (("forward", w, +1.0), ("inverse", w_inv, -1.0)):
            linear = out.values - a.values
            coeff_err = float(
                np.sqrt(
                    phi.grid.cell_volume
                    * np.sum(np.abs(linear / (mu * delta**power) - orient * 1j * k.values) ** 2)
                )
            ) / k_norm
            remainder = float(
                np.sqrt(
                    phi.grid.cell_volume
                    * np.sum(np.abs(linear - orient * 1j * first) ** 2)
                )
            )
            rows[name].append((delta, coeff_err, remainder))
    for name, table in rows.items():
        report.ladders[f"{name}_sweep"] = table
        errs = [c for _, c, _ in table]
        decreasing = all(b < a for a, b in zip(errs, errs[1:]))
        report.add_residual(f"{name}_coefficient_convergence_monotone",
                            0.0 if decreasing else 1.0, 0.5)
        slope, _ = fit_loglog_slope([d for d, _, _ in table], [r for _, _, r in table])
        report.add_rate(f"{name}_remainder_slope", slope)
        report.add_residual(
            f"{name}_remainder_slope_exceeds_first_order",
            power + tolerance_slope_margin - slope,
            0.0,
        )
    report.notes.append(
        "candidate remainder rates in delta: "
        f"{4.0 / n * (2.0 + 4.0 / n):.6g} (claimed) vs "
        f"{4.0 / n * (2.0 + n / 4.0):.6g} (proof bound); "
        "only slope > first-order + margin is asserted"
    )
    return report


def verify_lemma23(
    u0: ComplexField,
    p: NLSParams,
    cfg: ScatteringConfig,
    ladder_times=(10.0, 20.0, 40.0, 80.0),
    scattering_grid: GridDescriptor | None = None,
    tolerance=1e-2,
) -> VerificationReport:
    """Finite-horizon forms of the two boundary-matching lemmas.

    (i) the conformal image v of the solved trajectory satisfies
    || U0(-t) v(t) - F^{-1} u0 || decreasing along a dyadic t-ladder, on the
    caller-supplied fine grid;
    (ii) on a wide scattering grid, the asymptotic states of u match
    F^{-1} R (one-sided limits of v at 0), both signs.
    """
    report = VerificationReport(
        identity="conformal_boundary_matching",
        params={"sigma": p.sigma, "mu": p.mu, "dim": p.dim,
                "horizon": cfg.horizon, "ladder_times": list(ladder_times),
                "dt": cfg.control.dt},
        grid={"counts": list(u0.grid.counts), "spacings": list(u0.grid.spacings)},
    )
    scale = l2_norm(u0)
    # (i): snapshots of u at -1/t for the requested t values, reached by
    # exact segment-wise evolution (closest to zero first)
    times = sorted(ladder_times)
    taus = sorted((-1.0 / t for t in times), reverse=True)
    snaps = {}
    state, t_now = u0, 0.0
    for tau in taus:
        seg = _segment_control(cfg.control, abs(tau - t_now))
        state = nls_evolve(state, t_now, tau, p, seg)
        snaps[tau] = state
        t_now = tau
    target = _inverse_transform_as_function(u0)
    ladder = []
    for t in times:
        tau = -1.0 / t
        v = pseudo_conformal(SnapshotAtTime(snaps[_closest(snaps, tau)], tau))
        back = free_propagate(v.field, -v.time)
        moved = resample(_as_function(back), target.grid)
        ladder.append((t, l2_difference(moved.retagged(target.space), target) / scale))
    report.ladders["free_return_to_transform"] = ladder
    errs = [e for _, e in ladder]
    decreasing = all(b < a for a, b in zip(errs, errs[1:]))
    report.add_residual("ladder_monotone_decrease", 0.0 if decreasing else 1.0, 0.5)
    if len(errs) >= 2:
        slope = float(np.polyfit(np.log(times), np.log(errs), 1)[0])
        report.add_rate("free_return_decay_slope", slope)
    # (ii): asymptotic states against reflected transform of the v-limits
    if scattering_grid is not None:
        u0s = resample(u0, scattering_grid)
        scale_s = l2_norm(u0s)
        for sign, label in ((+1, "plus"), (-1, "minus")):
            u_t = nls_evolve(
                u0s, 0.0, sign * cfg.horizon, p, cfg.control
            )
            u_asym = free_propagate(u_t, -sign * cfg.horizon)
            v_limit = pseudo_conformal(SnapshotAtTime(u_t, sign * cfg.horizon)).field
            predicted = _inverse_transform_as_function(reflect(v_limit))
            moved = resample(u_asym, predicted.grid)
            resid = l2_difference(moved.retagged(predicted.space), predicted) / scale_s
            report.add_residual(f"asymptotic_state_match_{label}", resid, tolerance)
    return report


def _closest(snaps, tau):
    return min(snaps, key=lambda k: abs(k - tau))


def _segment_control(control: StepControl, span):
    """A StepControl whose dt divides the segment exactly (at least 4 steps)."""
    return replace(control, dt=span / max(4, int(np.ceil(span / control.dt))))
