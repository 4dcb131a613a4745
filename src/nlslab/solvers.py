"""Time integration: Strang split-step for the power nonlinearity, and an
integrating-factor RK4 for the derivative equation as an independent oracle.

Both substeps of the splitting are unitary (the nonlinear flow is an exact
phase rotation), so the splitting error is purely commutator-driven and mass
is conserved to roundoff.  The derivative equation is integrated in the
interaction picture w(t) = U0(-t) psi(t), which removes the stiff linear
phase from the RK4 stability constraint.

A kick (the nonlinear phase) leaves |u| unchanged, so the trailing half-kick
of one Strang step and the leading half-kick of the next are one kick of
their summed time.  ``nls_evolve`` keeps its state drifted with a half-kick
pending: each step is one kick and one FFT pair, and the pending half-kick
is applied only to the fields it hands out.  The state and its work arrays
are allocated once per evolution, and every step runs in place on them.
``nls_step`` runs the same kernel followed by its trailing half-kick.

Both solvers march through one loop, ``_march``: it owns the step count,
the health monitors and the observer calls, and each solver supplies only
its step and the map from its raw state to the solution.  A health
violation fails the run at once; nothing is retried with a smaller step.

The time step ``dt`` is the one numerical choice a caller makes.  The
limits are constants: a run needs at most ``MAX_STEPS`` steps, and the
monitors allow a relative mass drift of ``MASS_DRIFT_TOL``, a spectral-tail
fraction of ``TAIL_TOL`` and a boundary-mass fraction of ``BOUNDARY_TOL``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    POSITION,
    ComplexField,
    _require_space,
    diagnostics,
    l2_norm,
    spectral_plan,
)
from .errors import SolverHealthError

HEALTH_CHECKS_PER_RUN = 8
MAX_STEPS = 10_000_000
MASS_DRIFT_TOL = 1e-8
TAIL_TOL = 1e-5
BOUNDARY_TOL = 1e-5


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


def _kick(a, tau, p: NLSParams, scratch, w):
    """The nonlinear flow for the signed time ``tau``, in place on ``a``:
    a *= exp(-i mu tau |a|^(2 sigma)).  ``scratch`` (complex) and ``w``
    (real) are work arrays of a's shape; no array is allocated."""
    np.square(a.real, out=w)
    np.square(a.imag, out=scratch.real)
    w += scratch.real
    if p.sigma != 1.0:
        w **= p.sigma
    w *= -p.mu * tau
    np.cos(w, out=scratch.real)
    np.sin(w, out=scratch.imag)
    # phase times state: complex products round differently in the other order
    return np.multiply(scratch, a, out=a)


def _kick_drift(a, tau, m, p: NLSParams, spec, w):
    """The split-step kernel, in place on ``a``: a kick of ``tau``, then the
    free flow by the FFT-order multiplier ``m``, with ``spec`` holding first
    the phase and then the spectrum."""
    _kick(a, tau, p, spec, w)
    np.fft.fftn(a, out=spec)
    spec *= m
    return np.fft.ifftn(spec, out=a)


def _buffers(a0):
    """A copy of ``a0`` to evolve in place, with its complex and real work
    arrays."""
    a = np.array(a0, dtype=np.complex128)
    return a, np.empty_like(a), np.empty(a.shape)


def nls_step(u: ComplexField, dt: float, p: NLSParams) -> ComplexField:
    """One Strang step: half nonlinear phase, free flow, half nonlinear phase."""
    _require_space(u, POSITION, "nls_step")
    m = spectral_plan(u.grid).free_multiplier(dt)
    a, spec, w = _buffers(u.shaped)
    _kick_drift(a, 0.5 * dt, m, p, spec, w)
    return u.with_values(_kick(a, 0.5 * dt, p, spec, w))


def _check_health(f, mass0, t, context):
    mass = l2_norm(f) ** 2
    drift = abs(mass - mass0) / mass0 if mass0 > 0 else 0.0
    d = diagnostics(f)
    bad = {}
    # written as "not within" so that a NaN or infinite monitor is a violation
    if not drift <= MASS_DRIFT_TOL:
        bad["mass_drift"] = drift
    if not d.spectral_tail_fraction <= TAIL_TOL:
        bad["spectral_tail_fraction"] = d.spectral_tail_fraction
    if not d.boundary_mass_fraction <= BOUNDARY_TOL:
        bad["boundary_mass_fraction"] = d.boundary_mass_fraction
    if bad:
        bad["t"] = t
        raise SolverHealthError(f"{context}: health violation at t={t:.6g}: {bad}", bad)


def _step_counts(span, dt, what):
    """Full steps, the exact final partial step, and their total."""
    n_full = int(abs(span) / dt)
    remainder = abs(span) - n_full * dt
    if remainder < 1e-12 * dt:
        remainder = 0.0
    total_steps = n_full + (1 if remainder else 0)
    if total_steps > MAX_STEPS:
        raise SolverHealthError(
            f"{what} needs {total_steps} steps, MAX_STEPS={MAX_STEPS}"
        )
    return n_full, remainder, total_steps


def _march(u0, t0, t1, dt, observer, context, a, step, values):
    """The one marching loop of both solvers.

    ``a`` is the raw state at t0, ``step(a, t, h)`` advances it from t by the
    signed step h, and ``values(a, t)`` maps it to the position samples of
    the solution at t.  ``step`` may update ``a`` in place, so ``values``
    returns an array that later steps do not touch.  Full steps of the
    positive dt run first, then the exact final partial step.  The state
    must stay finite after every step, and the health monitors run at t0,
    HEALTH_CHECKS_PER_RUN times along the way and at t1; the first violation
    raises SolverHealthError.  Fields are built only for the observer, the
    monitors and the result.
    """
    if not (0 < dt < np.inf):
        raise ValueError(f"{context}: dt must be positive and finite, got {dt!r}")
    span = t1 - t0
    if span == 0.0:
        return u0
    n_full, remainder, total_steps = _step_counts(span, dt, context)
    sgn = 1.0 if span > 0 else -1.0
    mass0 = l2_norm(u0) ** 2
    check_every = max(1, total_steps // HEALTH_CHECKS_PER_RUN)
    t = t0
    _check_health(u0, mass0, t, f"{context} (initial state)")
    if observer is not None:
        observer(t, u0)
    u = u0
    for k in range(total_steps):
        a = step(a, t, sgn * (dt if k < n_full else remainder))
        t = t0 + sgn * min((k + 1) * dt, abs(span))
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
            _check_health(u, mass0, t, context)
    return u


def nls_evolve(
    u0: ComplexField,
    t0: float,
    t1: float,
    p: NLSParams,
    dt: float,
    observer=None,
) -> ComplexField:
    """Evolve with repeated Strang steps of ``dt`` and an exact final
    partial step.

    ``observer(t, field)``, when given, is called after every step (and once
    at t0).  Aborts with SolverHealthError when the resolution or mass
    monitors trip or the state stops being finite; a dt that is not
    positive and finite is a ValueError.
    """
    _require_space(u0, POSITION, "nls_evolve")
    plan = spectral_plan(u0.grid)
    a0, spec, w = _buffers(u0.shaped)
    # the free-flow multipliers of the full and of the final partial step
    multipliers = {}
    # the raw state is drifted with this half-kick still to apply: each step
    # applies it together with its own leading half-kick, as one kick
    pending = 0.0

    def step(a, t, h):
        nonlocal pending
        if h not in multipliers:
            multipliers[h] = plan.free_multiplier(h)
        _kick_drift(a, pending + 0.5 * h, multipliers[h], p, spec, w)
        pending = 0.5 * h
        return a

    def values(a, t):
        # a fresh array, so that no field aliases the evolving state; the
        # pending kick can overflow where the drifted state did not
        out = _kick(a.copy(), pending, p, spec, w)
        if not np.isfinite(out).all():
            raise SolverHealthError(
                f"nls_evolve: non-finite state at t={t:.6g}", {"t": t}
            )
        return out

    return _march(u0, t0, t1, dt, observer, "nls_evolve", a0, step, values)


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
    dt: float,
    observer=None,
) -> ComplexField:
    """Integrating-factor RK4 for the derivative equation (1d only), on the
    interaction-picture state w(t) = U0(-t) psi(t).

    Mass is conserved by the continuum equation; the measured drift is a
    pure accuracy monitor.  ``observer``, ``dt`` and the health monitors work
    as in ``nls_evolve``; a violation or a blow-up fails at once.
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

    return _march(psi0, t0, t1, dt, observer, "dnls_evolve",
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
