"""Time integration: Strang split-step for the power nonlinearity, and an
integrating-factor RK4 for the derivative equation as an independent oracle.

Both substeps of the splitting are unitary (the nonlinear flow is an exact
phase rotation), so the splitting error is purely commutator-driven and mass
is conserved to roundoff.  The derivative equation is integrated in the
interaction picture w(t) = U0(-t) psi(t), which removes the stiff linear
phase from the RK4 stability constraint.

Both solvers march through one loop, ``_march``: it owns the step count,
the health monitors and the observer calls, and each solver supplies only
its step and the map from its raw state to the solution.  A health
violation fails the run at once; nothing is retried with a smaller step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    POSITION,
    ComplexField,
    _require_space,
    _unit_phase,
    diagnostics,
    l2_norm,
    spectral_plan,
)
from .errors import SolverHealthError

HEALTH_CHECKS_PER_RUN = 8


@dataclass(frozen=True)
class NLSParams:
    """Power nonlinearity mu |u|^(2 sigma) u with signed coupling mu."""

    dim: int = 1
    sigma: float | None = None
    mu: float = 1.0

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        if self.sigma is None:
            object.__setattr__(self, "sigma", 2.0 / self.dim)
        if not (self.sigma > 0):
            raise ValueError("sigma must be positive")

    @property
    def critical(self):
        return abs(self.sigma - 2.0 / self.dim) < 1e-14


@dataclass(frozen=True)
class DNLSParams:
    """Coupling of the derivative nonlinearity i*lambda*(|psi|^2)_x psi."""

    lam: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.lam):
            raise ValueError("lambda must be finite")


@dataclass(frozen=True)
class StepControl:
    dt: float = 1e-3
    max_steps: int = 10_000_000
    mass_drift_tol: float = 1e-8
    tail_tol: float = 1e-5
    boundary_tol: float = 1e-5

    def __post_init__(self):
        if not (self.dt > 0):
            raise ValueError("dt must be positive")
        for name in ("mass_drift_tol", "tail_tol", "boundary_tol"):
            if not (getattr(self, name) > 0):
                raise ValueError(f"{name} must be positive")


def _nonlinear_phase(values, dt_half, p: NLSParams):
    w = values.real**2 + values.imag**2
    if p.sigma != 1.0:
        w **= p.sigma
    w *= -p.mu * dt_half
    out = _unit_phase(w)
    out *= values
    return out


def _strang_step(a, half, m, p: NLSParams):
    """Half nonlinear phase, free flow by the FFT-order multiplier ``m``,
    half nonlinear phase, all on raw arrays."""
    spec = np.fft.fftn(_nonlinear_phase(a, half, p))
    spec *= m
    return _nonlinear_phase(np.fft.ifftn(spec), half, p)


def nls_step(u: ComplexField, dt: float, p: NLSParams) -> ComplexField:
    """One Strang step: half nonlinear phase, free flow, half nonlinear phase."""
    _require_space(u, POSITION, "nls_step")
    m = spectral_plan(u.grid).free_multiplier(dt)
    return u.with_values(_strang_step(u.shaped, 0.5 * dt, m, p))


def _check_health(f, mass0, c: StepControl, t, context):
    mass = l2_norm(f) ** 2
    drift = abs(mass - mass0) / mass0 if mass0 > 0 else 0.0
    d = diagnostics(f)
    bad = {}
    # written as "not within" so that a NaN or infinite monitor is a violation
    if not drift <= c.mass_drift_tol:
        bad["mass_drift"] = drift
    if not d.spectral_tail_fraction <= c.tail_tol:
        bad["spectral_tail_fraction"] = d.spectral_tail_fraction
    if not d.boundary_mass_fraction <= c.boundary_tol:
        bad["boundary_mass_fraction"] = d.boundary_mass_fraction
    if bad:
        bad["t"] = t
        raise SolverHealthError(f"{context}: health violation at t={t:.6g}: {bad}", bad)


def _step_counts(span, c: StepControl, what):
    """Full steps, the exact final partial step, and their total."""
    n_full = int(abs(span) / c.dt)
    remainder = abs(span) - n_full * c.dt
    if remainder < 1e-12 * c.dt:
        remainder = 0.0
    total_steps = n_full + (1 if remainder else 0)
    if total_steps > c.max_steps:
        raise SolverHealthError(
            f"{what} needs {total_steps} steps, max_steps={c.max_steps}"
        )
    return n_full, remainder, total_steps


def _march(u0, t0, t1, c: StepControl, observer, context, a, step, values):
    """The one marching loop of both solvers.

    ``a`` is the raw state at t0, ``step(a, t, h)`` advances it from t by the
    signed step h, and ``values(a, t)`` maps it to the position samples of
    the solution at t.  Full steps of c.dt run first, then the exact final
    partial step.  The state must stay finite after every step, and the
    health monitors run at t0, HEALTH_CHECKS_PER_RUN times along the way and
    at t1; the first violation raises SolverHealthError.  Fields are built
    only for the observer, the monitors and the result.
    """
    span = t1 - t0
    if span == 0.0:
        return u0
    n_full, remainder, total_steps = _step_counts(span, c, context)
    sgn = 1.0 if span > 0 else -1.0
    mass0 = l2_norm(u0) ** 2
    check_every = max(1, total_steps // HEALTH_CHECKS_PER_RUN)
    t = t0
    _check_health(u0, mass0, c, t, f"{context} (initial state)")
    if observer is not None:
        observer(t, u0)
    u = u0
    for k in range(total_steps):
        a = step(a, t, sgn * (c.dt if k < n_full else remainder))
        t = t0 + sgn * min((k + 1) * c.dt, abs(span))
        if not np.isfinite(a).all():
            raise SolverHealthError(
                f"{context}: non-finite state at t={t:.6g}", {"t": t}
            )
        check = (k + 1) % check_every == 0 or k + 1 == total_steps
        if observer is not None or check:
            u = u0.with_values(values(a, t))
        if observer is not None:
            observer(t, u)
        if check:
            _check_health(u, mass0, c, t, context)
    return u


def nls_evolve(
    u0: ComplexField,
    t0: float,
    t1: float,
    p: NLSParams,
    c: StepControl,
    observer=None,
) -> ComplexField:
    """Evolve with repeated Strang steps and an exact final partial step.

    ``observer(t, field)``, when given, is called after every step (and once
    at t0).  Aborts with SolverHealthError when the resolution or mass
    monitors trip or the state stops being finite.
    """
    _require_space(u0, POSITION, "nls_evolve")
    plan = spectral_plan(u0.grid)
    # the free-flow multipliers of the full and of the final partial step
    multipliers = {}

    def step(a, t, h):
        if h not in multipliers:
            multipliers[h] = plan.free_multiplier(h)
        return _strang_step(a, 0.5 * h, multipliers[h], p)

    return _march(u0, t0, t1, c, observer, "nls_evolve", u0.shaped, step,
                  lambda a, t: a)


def _dnls_rhs(w, t, plan, lam):
    """dw/dt = lambda * U0(-t)[ (|psi|^2)_x psi ], psi = U0(t) w, on raw
    arrays in position order."""
    if not np.max(np.abs(w)) <= 1e8:
        raise SolverHealthError(
            f"dnls_evolve: blow-up in a Runge-Kutta stage at t={t:.6g}", {"t": t}
        )
    m = plan.free_multiplier(t)
    spec = np.fft.fftn(w)
    spec *= m
    psi = np.fft.ifftn(spec)
    forcing = plan.derivative(psi.real**2 + psi.imag**2)
    forcing *= psi
    spec = np.fft.fftn(forcing)
    spec *= np.conj(m)
    out = np.fft.ifftn(spec)
    out *= lam
    return out


def dnls_evolve(
    psi0: ComplexField,
    t0: float,
    t1: float,
    p: DNLSParams,
    c: StepControl,
    observer=None,
) -> ComplexField:
    """Integrating-factor RK4 for the derivative equation (1d only), on the
    interaction-picture state w(t) = U0(-t) psi(t).

    Mass is conserved by the continuum equation; the measured drift is a
    pure accuracy monitor.  ``observer`` and the health monitors work as in
    ``nls_evolve``; a violation or a blow-up fails at once.
    """
    if psi0.grid.dim != 1:
        raise SolverHealthError("dnls_evolve is one-dimensional")
    _require_space(psi0, POSITION, "dnls_evolve")
    plan = spectral_plan(psi0.grid)

    def step(w, t, h):
        k1 = _dnls_rhs(w, t, plan, p.lam)
        k2 = _dnls_rhs(w + 0.5 * h * k1, t + 0.5 * h, plan, p.lam)
        k3 = _dnls_rhs(w + 0.5 * h * k2, t + 0.5 * h, plan, p.lam)
        k4 = _dnls_rhs(w + h * k3, t + h, plan, p.lam)
        return w + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    return _march(psi0, t0, t1, c, observer, "dnls_evolve",
                  plan.propagate(psi0.shaped, -t0), step, plan.propagate)


def residual(trajectory, equation) -> float:
    """Strong-form PDE residual of a sampled trajectory, maximized over the
    interior snapshots: central time difference minus the spectral right-hand
    side, in L2.
    """
    snaps = list(trajectory)
    if len(snaps) < 3:
        raise ValueError("residual needs at least 3 equispaced snapshots")
    times = np.array([s.time for s in snaps])
    dts = np.diff(times)
    if np.max(np.abs(dts - dts[0])) > 1e-9 * abs(dts[0]):
        raise ValueError("snapshots must be equispaced in time")
    dt = dts[0]
    worst = 0.0
    for k in range(1, len(snaps) - 1):
        u = snaps[k].field
        du_dt = (snaps[k + 1].field.values - snaps[k - 1].field.values) / (2.0 * dt)
        plan = spectral_plan(u.grid)
        lap = np.fft.ifftn(np.fft.fftn(u.shaped) * -plan.xi2).reshape(-1)
        if isinstance(equation, NLSParams):
            rhs = equation.mu * np.abs(u.values) ** (2.0 * equation.sigma) * u.values
        elif isinstance(equation, DNLSParams):
            dens_x = plan.derivative(np.abs(u.shaped) ** 2).reshape(-1)
            rhs = 1j * equation.lam * dens_x * u.values
        else:
            raise TypeError(f"unknown equation parameters: {equation!r}")
        r = 1j * du_dt + 0.5 * lap - rhs
        worst = max(worst, float(np.sqrt(u.grid.cell_volume * np.sum(np.abs(r) ** 2))))
    return worst
