"""Time integration: Strang split-step for the power nonlinearity, and an
integrating-factor RK4 for the derivative equation as an independent oracle.

Both substeps of the splitting are unitary (the nonlinear flow is an exact
phase rotation), so the splitting error is purely commutator-driven and mass
is conserved to roundoff.  The derivative equation is integrated by RK4 in
the frame of each step's start (Lawson RK4): the free flow over a step is
applied exactly by the multipliers m(h/2) and m(h), which removes the stiff
linear phase from the RK4 stability constraint.  The RK4 state is the
spectrum of psi in FFT order, so a stage is four FFTs: one to psi, a pair
for the derivative of |psi|^2, and one back.  Its blow-up guard reads psi,
the field the nonlinearity uses.

A kick (the nonlinear phase) leaves |u| unchanged, so the trailing half-kick
of one Strang step and the leading half-kick of the next are one kick of
their summed time.  ``nls_evolve`` keeps its state drifted with a half-kick
pending: each step is one kick and one FFT pair, and the pending half-kick
is applied only to the fields it hands out.  In both solvers the state and
its work arrays are allocated once per evolution, and every step runs in
place on them.

Both solvers march through one loop, ``_march``: it owns the step count,
the health monitors and the observer calls, and each solver supplies only
its step and the map from its raw state to the solution.  Every span is
cut into n = ceil(|t1 - t0| / dt) equal steps, so an evolution has one
step size, ``nls_evolve`` one free-flow multiplier and ``dnls_evolve`` two.
A health violation fails the run at once; nothing is retried with a smaller
step.

The largest time step ``dt`` is the one numerical choice a caller makes.  The
limits are constants: a run needs at most ``MAX_STEPS`` steps, and the
monitors allow a relative mass drift of ``MASS_DRIFT_TOL``, a spectral-tail
fraction of ``TAIL_TOL`` and a boundary-mass fraction of ``BOUNDARY_TOL``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ComplexField,
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
    """Power nonlinearity mu |u|^(2 sigma) u with signed coupling mu.  The
    dimension n is the grid's; ``scattering.is_critical`` tests sigma = 2/n."""

    sigma: float
    mu: float = 1.0

    def __post_init__(self):
        if not (self.sigma > 0):
            raise ValueError("sigma must be positive")


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


def _step_count(span, dt, what):
    """The number n = ceil(|span| / dt) of equal steps that cover ``span``;
    a span within a relative 1e-12 of a whole number of dt takes that
    number."""
    steps = abs(span) / dt * (1.0 - 1e-12)
    # written as "not within" so that an infinite or NaN count, which
    # ceil() cannot take, is refused too
    if not steps <= MAX_STEPS:
        raise SolverHealthError(
            f"{what} needs {steps:.6g} steps, MAX_STEPS={MAX_STEPS}"
        )
    return max(1, math.ceil(steps))


def _march(u0, t0, t1, dt, observer, context, a, step, values):
    """The one marching loop of both solvers.

    ``a`` is the raw state at t0, ``step(a, t, h)`` advances it from t by the
    signed step h, and ``values(a, t)`` maps it to the position samples of
    the solution at t.  ``step`` may update ``a`` in place, so ``values``
    returns an array that later steps do not touch.  The span is cut into
    n = ceil(|t1 - t0| / dt) equal steps (see ``_step_count``), so every
    call of ``step`` gets the same h = (t1 - t0) / n.  The state must stay
    finite after every step, and the health monitors run at t0,
    HEALTH_CHECKS_PER_RUN times along the way and at t1; the first violation
    raises SolverHealthError.  Fields are built only for the observer, the
    monitors and the result.
    """
    if not (0 < dt < np.inf):
        raise ValueError(f"{context}: dt must be positive and finite, got {dt!r}")
    span = t1 - t0
    if span == 0.0:
        return u0
    total_steps = _step_count(span, dt, context)
    h = span / total_steps
    sgn = 1.0 if span > 0 else -1.0
    mass0 = l2_norm(u0) ** 2
    check_every = max(1, total_steps // HEALTH_CHECKS_PER_RUN)
    t = t0
    _check_health(u0, mass0, t, f"{context} (initial state)")
    if observer is not None:
        observer(t, u0)
    u = u0
    for k in range(total_steps):
        a = step(a, t, h)
        t = t0 + sgn * min((k + 1) * abs(h), abs(span))
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
    """Evolve with equal Strang steps of at most ``dt`` (see ``_march``).

    ``observer(t, field)``, when given, is called after every step (and once
    at t0).  Aborts with SolverHealthError when the resolution or mass
    monitors trip or the state stops being finite; a dt that is not
    positive and finite is a ValueError.
    """
    plan = spectral_plan(u0.grid)
    # a copy of the datum to evolve in place, and its complex and real work
    # arrays
    a0 = np.array(u0.values, dtype=np.complex128)
    spec, w = np.empty_like(a0), np.empty(a0.shape)
    # the free-flow multiplier of the one step size, built at the first step
    m = None
    # the raw state is drifted with this half-kick still to apply: each step
    # applies it together with its own leading half-kick, as one kick
    pending = 0.0

    def step(a, t, h):
        nonlocal m, pending
        if m is None:
            m = plan.free_multiplier(h)
        _kick_drift(a, pending + 0.5 * h, m, p, spec, w)
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


def _dnls_slope(v, out, t, psi, spec, density, dxi):
    """fft((|psi|^2)_x psi) for psi = ifft(v), into ``out``: four FFTs, with
    (|psi|^2)_x = ifft(dxi fft(|psi|^2)) and ``dxi`` = i xi.  ``psi`` and
    ``spec`` (complex) and ``density`` (real) are work arrays of v's shape;
    no array is allocated.  ``t``, the stage time, goes into the blow-up
    report."""
    np.fft.ifft(v, out=psi)
    np.square(psi.real, out=density)
    np.square(psi.imag, out=spec.real)
    density += spec.real
    # sup |psi| <= 1e8, read off the density the nonlinearity needs; an
    # overflowing or NaN density fails it too
    if not density.max() <= 1e16:
        raise SolverHealthError(
            f"dnls_evolve: blow-up in a Runge-Kutta stage at t={t:.6g}",
            {"t": t},
        )
    np.fft.fft(density, out=spec)
    spec *= dxi
    np.fft.ifft(spec, out=out)
    np.multiply(out, psi, out=psi)
    return np.fft.fft(psi, out=out)


def _lawson_step(y, out, t, h, c, half, full, work):
    """One RK4 step of the derivative equation in the frame of its start,
    from the spectrum ``y`` at t by the signed step h, into ``out`` (see
    ``dnls_evolve``); ``y`` is left unchanged.  ``c`` is lambda h, ``half``
    and ``full`` are m(h/2) and m(h), and ``work`` holds four complex work
    arrays of y's shape and the work arrays of ``_dnls_slope``."""
    k, ks, v, ey, slope = work
    # the slopes are N / lambda, so their coefficients carry lambda h
    # k1; the stage input E y + (h/2) E k1
    _dnls_slope(y, k, t, *slope)
    np.multiply(y, half, out=ey)
    np.multiply(k, 0.5 * c, out=v)
    v *= half
    v += ey
    np.multiply(k, full, out=out)
    # k2; the stage input E y + (h/2) k2
    _dnls_slope(v, ks, t + 0.5 * h, *slope)
    np.multiply(ks, 0.5 * c, out=v)
    v += ey
    # k3; the stage input E2 y + h E k3
    _dnls_slope(v, k, t + 0.5 * h, *slope)
    ks += k
    np.multiply(y, full, out=ey)
    np.multiply(k, c, out=v)
    v *= half
    v += ey
    # k4; E2 y + (h/6) (E2 k1 + 2 E (k2 + k3) + k4)
    ks *= half
    ks *= 2.0
    out += ks
    out += _dnls_slope(v, k, t + h, *slope)
    out *= c / 6.0
    out += ey
    return out


def dnls_evolve(
    psi0: ComplexField,
    t0: float,
    t1: float,
    p: DNLSParams,
    dt: float,
    observer=None,
) -> ComplexField:
    """Integrating-factor RK4 for the derivative equation (1d only), in the
    frame of each step's start (Lawson RK4), on the spectrum
    psi_hat = fft(psi) in FFT order.

    With m(t) = exp(-i t |xi|^2 / 2), E = m(h/2) and E2 = m(h) for the
    signed step h, and N(v) = lambda fft((|psi|^2)_x psi) with psi = ifft(v)
    and (|psi|^2)_x = ifft(i xi fft(|psi|^2)) (four FFTs), one step is

        k1 = N(psi_hat)                  k2 = N(E psi_hat + (h/2) E k1)
        k3 = N(E psi_hat + (h/2) k2)     k4 = N(E2 psi_hat + h E k3)
        psi_hat <- E2 psi_hat + (h/6) (E2 k1 + 2 E (k2 + k3) + k4).

    RK4 commutes with the constant map U0(t_n), so this is the RK4 of the
    interaction picture w(t) = U0(-t) psi(t), up to rounding.  E and E2 are
    built once per evolution, at its first step, and every stage and
    combination runs in place on work arrays allocated once per evolution.

    Mass is conserved by the continuum equation; the measured drift is a
    pure accuracy monitor.  ``observer``, ``dt`` and the health monitors work
    as in ``nls_evolve``; a violation fails at once, and so does a stage
    whose psi exceeds 1e8 in modulus (a blow-up), at that stage's time.
    A grid of another dimension is a ValueError, raised before any step.
    """
    plan = spectral_plan(psi0.grid)
    shape = psi0.values.shape
    # the next state, and the work arrays of _lawson_step
    nxt, k, ks, v, ey, psi, spec = (np.empty(shape, np.complex128)
                                    for _ in range(7))
    work = (k, ks, v, ey, (psi, spec, np.empty(shape), plan.derivative_symbol))
    # the multipliers E = m(h/2) and E2 = m(h) of the one step size, built
    # at the first step
    half = full = None

    def step(y, t, h):
        nonlocal half, full, nxt
        if half is None:
            half, full = plan.free_multiplier(0.5 * h), plan.free_multiplier(h)
        out = _lawson_step(y, nxt, t, h, p.lam * h, half, full, work)
        # the old state's array takes the next step's combination
        nxt = y
        return out

    def values(y, t):
        # a fresh array, so that no field aliases the evolving state
        return np.fft.ifft(y)

    return _march(psi0, t0, t1, dt, observer, "dnls_evolve",
                  np.fft.fft(psi0.values), step, values)


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
        lap = np.fft.ifftn(np.fft.fftn(u.values) * -plan.xi2)
        if isinstance(equation, NLSParams):
            rhs = equation.mu * np.abs(u.values) ** (2.0 * equation.sigma) * u.values
        elif isinstance(equation, DNLSParams):
            dens_x = plan.derivative(np.abs(u.values) ** 2)
            rhs = 1j * equation.lam * dens_x * u.values
        else:
            raise TypeError(f"unknown equation parameters: {equation!r}")
        r = 1j * du_dt + 0.5 * lap - rhs
        worst = max(worst, l2_norm(u.with_values(r)))
    return worst
