"""Time integration: split steps for the power nonlinearity, each a
palindromic composition of Strang steps, and an integrating-factor RK4 for
the derivative equation as an independent oracle.

Both substeps of the splitting are unitary (the nonlinear flow is an exact
phase rotation), so the splitting error is purely commutator-driven and mass
is conserved to roundoff.  The derivative equation is integrated by RK4 in
the frame of each step's start (Lawson RK4): the free flow over a step is
applied exactly by the multipliers m(h/2) and m(h), which removes the stiff
linear phase from the RK4 stability constraint.  The RK4 state is the
spectrum of psi in FFT order, so a stage is three transforms in two calls:
one inverse call gives psi and psi_x, the product rule
(|psi|^2)_x = 2 Re(conj(psi) psi_x) gives the derivative of the density,
and one FFT goes back.  Its blow-up guard reads |psi|^2, the density the
nonlinearity uses.

A step of size h takes a tuple of drift fractions, a palindrome that sums
to 1: it is the Strang steps of sizes f h for each fraction f in turn.
``STRANG`` = (1.0,) is one Strang step, second order, and the default of
every caller but the truncated wave operators.  ``YOSHIDA`` =
(w1, 1 - 2 w1, w1), w1 = 1 / (2 - 2^(1/3)), is fourth order; its middle
drift runs backward.  A palindrome keeps the step time-symmetric, so the
scheme stays exactly reversible.  A kick (the nonlinear phase) leaves |u|
unchanged, so the trailing half-kick of one Strang step and the leading
half-kick of the next are one kick of their summed time, across sub-steps
and across steps alike.  ``nls_evolve`` keeps its state drifted with a
half-kick pending: each sub-step is one kick and one FFT pair, drifting by
the multiplier m(f h) of its fraction, and the pending half-kick is applied
only to the fields it hands out.  In both solvers the state and its work
arrays are allocated once per evolution, and every step runs in place on
them.

A kick multiplies by exp(i theta) with theta = -mu tau |u|^(2 sigma), and
takes cos and sin only where |theta| is not below ``SMALL_PHASE`` = 2^-27
(NaN included); elsewhere it writes 1 + i theta.  There float64 cos theta
rounds to 1 and sin theta to theta, so the masked kick is bitwise the kick
that takes cos and sin of the whole grid.  On the benchmark data only 1-10%
of the samples lie above the threshold: a dispersed state is small away
from its core.

Both solvers march through one loop, ``_march``: it owns the step count,
the health monitors and the observer calls, and each solver supplies only
the loading of a row, its step and the map from its raw state to the
solution.  Every span is cut into n = ceil(|t1 - t0| / dt) equal steps, so
a segment has one step size; ``dnls_evolve`` is one segment with two
free-flow multipliers.  The split-step march runs a stack of rows on one
grid (``nls_evolve_rows``): every row takes the same number of steps, but
each goes through its own schedule of segments, with its own free-flow
multiplier per distinct fraction and its own kick times, and applies its
pending half-kick at its own segment ends, so that each row is bitwise the
chain of one ``nls_evolve`` per segment.  ``nls_evolve`` is a stack of one
row and one segment.  There is one split-step kernel, ``_kick_drift``, for
every stack and composition: it transforms the grid axes one at a time, in
the order of ``np.fft.fftn``, and each call transforms all rows, which
numpy batches.  A health violation fails the run at once, naming the
failing row's run; nothing is retried with a smaller step.

The largest time step ``dt`` is the numerical choice a caller makes, and
a caller of ``nls_evolve_rows`` also picks the composition; the finiteness
check, the monitors and the observer see the state once per step, after
all of its sub-steps.  The limits are
constants: a run needs at most ``MAX_STEPS`` steps, and the monitors allow
a relative mass drift of ``MASS_DRIFT_TOL``, a spectral-tail fraction of
``TAIL_TOL`` and a boundary-mass fraction of ``BOUNDARY_TOL``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ComplexField,
    _along_grid,
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
# below this modulus, cos(theta) rounds to 1 and sin(theta) to theta in
# float64: 1 - cos theta < theta^2/2 < 2^-55, under half the spacing 2^-53 of
# the doubles below 1, and |theta - sin theta| < |theta| theta^2/6, under
# half the spacing of the doubles below |theta|, which is at least
# 2^-54 |theta|; tests/test_solvers.py checks that numpy's cos and sin round so
SMALL_PHASE = 2.0**-27
# the drift fractions of one step: a Strang step, and Yoshida's palindromic
# triple (w1, 1 - 2 w1, w1), w1 = 1 / (2 - 2^(1/3)), whose composition of
# Strang steps is fourth order (H. Yoshida, Phys. Lett. A 150, 262, 1990)
STRANG = (1.0,)
_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
YOSHIDA = (_W1, 1.0 - 2.0 * _W1, _W1)


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


def _kick(a, tau, p: NLSParams, scratch, w, masks):
    """The nonlinear flow for the signed time ``tau``, in place on ``a``:
    a *= exp(-i mu tau |a|^(2 sigma)).  ``scratch`` (complex), ``w`` (real)
    and the pair ``masks`` (bool) are work arrays of a's shape; ``tau`` is a
    number or an array that broadcasts against them, such as one time per
    row of a stack.

    cos and sin are taken only where the phase theta is not below
    SMALL_PHASE in modulus; elsewhere the phase is 1 + i theta, which is the
    float64 cos + i sin of theta bit for bit (see SMALL_PHASE)."""
    trig, inner = masks
    np.square(a.real, out=w)
    np.square(a.imag, out=scratch.real)
    w += scratch.real
    if p.sigma != 1.0:
        w **= p.sigma
    w *= -p.mu * tau
    # trig = not (-SMALL_PHASE < theta < SMALL_PHASE): two comparisons cost
    # less than |theta| and one, and a NaN phase takes cos/sin, so that a
    # state that stops being finite fails as it would unmasked
    np.less(w, SMALL_PHASE, out=trig)
    np.greater(w, -SMALL_PHASE, out=inner)
    trig &= inner
    np.logical_not(trig, out=trig)
    scratch.real = 1.0
    scratch.imag = w
    np.cos(w, out=scratch.real, where=trig)
    np.sin(w, out=scratch.imag, where=trig)
    # phase times state: complex products round differently in the other order
    return np.multiply(scratch, a, out=a)


def _kick_drift(a, tau, m, p: NLSParams, spec, w, masks):
    """The split-step kernel, in place on the stack ``a`` of fields, of shape
    (k, *counts): a kick of ``tau``, then the free flow by the FFT-order
    multiplier ``m``, with ``spec`` holding first the phase and then the
    spectrum.  ``tau`` and ``m`` may hold one row per field; ``w`` and
    ``masks`` are the kick's other work arrays."""
    _kick(a, tau, p, spec, w, masks)
    _along_grid(np.fft.fft, a, spec)
    spec *= m
    return _along_grid(np.fft.ifft, spec, a)


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


@dataclass(frozen=True)
class _Segment:
    """A span from t0 to t1, cut into ``steps`` equal steps."""

    t0: float
    t1: float
    steps: int

    @property
    def h(self):
        """The signed step."""
        return (self.t1 - self.t0) / self.steps

    def time(self, j):
        """The time after the first j steps."""
        if j == 0:
            return self.t0
        span = self.t1 - self.t0
        sgn = 1.0 if span > 0 else -1.0
        return self.t0 + sgn * min(j * abs(self.h), abs(span))


def _plan(schedules, context):
    """The segments of each row's schedule, a list of spans (t0, t1, dt):
    each span is cut into n = ceil(|t1 - t0| / dt) equal steps (see
    ``_step_count``), and a span of length zero takes none.  A dt that is
    not positive and finite, and rows whose total step counts differ, are
    a ValueError, raised before any step."""
    plans = []
    for schedule in schedules:
        plan = []
        for t0, t1, dt in schedule:
            if not (0 < dt < np.inf):
                raise ValueError(f"{context}: dt must be positive and finite, got {dt!r}")
            if t1 - t0 != 0.0:
                plan.append(_Segment(t0, t1, _step_count(t1 - t0, dt, context)))
        plans.append(plan)
    totals = sorted({sum(seg.steps for seg in plan) for plan in plans})
    if len(totals) > 1:
        raise ValueError(f"{context}: the rows take {totals} steps; a stack "
                         "needs one step count")
    return plans


def _march(fields, plans, context, start, step, values, observer=None):
    """The one marching loop of both solvers, over a stack of rows.

    Row r evolves ``fields[r]`` through the segments ``plans[r]`` (see
    ``_plan``): every row takes the same number of steps, each with the step
    size of its own segment.  Before the first step of a segment,
    ``start(r, seg, v)`` loads row r of the raw state from the samples v of
    the field at seg.t0.  ``step()`` advances every row by one step and
    returns the raw state, its rows in order along the leading axis, and
    ``values(r, t)`` maps row r to the position samples of its solution at
    t, in an array that later steps do not touch.

    Each segment of a row is monitored as one evolution: the state and the
    solution must stay finite after every step, and the health monitors run
    at its start against the mass there, HEALTH_CHECKS_PER_RUN times along
    the way and at its end.  The first violation raises SolverHealthError
    at its row's time, naming the row's whole run from the start of its
    first segment to the end of its last.  ``observer(t, field)``, when
    given, sees every row at the start of each segment and after every step.
    Fields are built only for the observer, the monitors and the result,
    which is each row's field at the end of its schedule.
    """
    out = list(fields)
    total = sum(seg.steps for seg in plans[0])
    # by step index: the segments that start before it, and the rows
    # checked after it
    starts, checks = {}, {}
    for r, plan in enumerate(plans):
        first = 0
        for seg in plan:
            starts.setdefault(first, []).append((r, seg))
            every = max(1, seg.steps // HEALTH_CHECKS_PER_RUN)
            for j in (*range(every, seg.steps, every), seg.steps):
                checks.setdefault(first + j - 1, []).append(r)
            first += seg.steps

    def run(r):
        # the row's run, which tells the rows of one stack apart
        return (f"{context}, the run from {plans[r][0].t0:.6g} "
                f"to {plans[r][-1].t1:.6g}")

    def non_finite(r, t):
        return SolverHealthError(f"{run(r)}: non-finite state at t={t:.6g}", {"t": t})

    # each row's segment and the step index at its start, and its mass there
    current = [None] * len(out)
    mass0 = [0.0] * len(out)
    for g in range(total):
        for r, seg in starts.get(g, ()):
            current[r] = seg, g
            u = out[r]
            start(r, seg, u.values)
            mass0[r] = l2_norm(u) ** 2
            _check_health(u, mass0[r], seg.t0, f"{run(r)} (initial state)")
            if observer is not None:
                observer(seg.t0, u)
        a = step()
        # a complex number is finite when both of its parts are
        if not np.isfinite(a.view(np.float64)).all():
            r = int(np.argmin(np.isfinite(a.reshape(len(out), -1)).all(axis=1)))
            seg, first = current[r]
            raise non_finite(r, seg.time(g + 1 - first))
        due = checks.get(g, ())
        for r in (range(len(out)) if observer is not None else due):
            seg, first = current[r]
            t = seg.time(g + 1 - first)
            v = values(r, t)
            if not np.isfinite(v).all():
                raise non_finite(r, t)
            u = out[r] = out[r].with_values(v)
            if observer is not None:
                observer(t, u)
            if r in due:
                _check_health(u, mass0[r], t, run(r))
    return out


def nls_evolve_rows(fields, schedules, p: NLSParams, observer=None,
                    composition=STRANG) -> list:
    """Evolve each of ``fields``, all on one grid, through its schedule: a
    list of spans (t0, t1, dt), each cut into equal steps of at most its dt
    (see ``_plan``) and started from the end of the span before.  Returns
    the fields at the end of each schedule.

    A step of size h is the composition of Strang steps of the sizes f h,
    for the drift fractions f of ``composition`` in order: ``STRANG``, one
    Strang step, or ``YOSHIDA``, Yoshida's fourth-order triple.  Any
    palindrome of fractions that sums to 1 steps the same way; one that
    is not gives a scheme that is not time-symmetric or not consistent,
    and is not checked.

    The rows march as one stacked array (see ``_march``), so every FFT call
    transforms all of them, and must take equal total step counts; their
    step sizes may differ.  Unequal counts are a ValueError, raised before
    any step.  ``observer`` and the monitors work as in ``nls_evolve``, for
    every row, once per step, after all of its sub-steps.
    """
    plans = _plan(schedules, "nls_evolve")
    if len(plans) != len(fields):
        raise ValueError(f"{len(fields)} fields need as many schedules, got {len(plans)}")
    if len({f.grid for f in fields}) > 1:
        raise ValueError("the rows of a stack must share one grid")
    plan = spectral_plan(fields[0].grid)
    k = len(fields)
    # the stacked state, evolved in place, and its complex, real and bool
    # work arrays
    a = np.empty((k, *plan.grid.counts), dtype=np.complex128)
    spec, w = np.empty_like(a), np.empty(a.shape)
    masks = np.empty((2, *a.shape), dtype=bool)
    # per distinct fraction f and row: the free-flow multiplier m(f h) of
    # the row's segment step h, and the half-kick f h / 2; and per row the
    # half-kick still to apply to its drifted state.  Each sub-step adds
    # its leading half-kick to the pending one, kicks by the sum, a column
    # that broadcasts over the grid, and leaves its trailing half pending
    distinct = sorted(set(composition))
    m = np.empty((len(distinct), *a.shape), dtype=np.complex128)
    half, pending = np.empty((len(distinct), k)), np.zeros(k)
    kick_time = pending.reshape(k, *(1,) * plan.grid.dim)
    # the (half-kick, multiplier) views of each sub-step, in order
    subs = [(half[j], m[j]) for j in map(distinct.index, composition)]

    def start(r, seg, v):
        a[r] = v
        for j, f in enumerate(distinct):
            m[j, r] = plan.free_multiplier(f * seg.h)
            half[j, r] = 0.5 * f * seg.h
        pending[r] = 0.0

    def step():
        for lead, mult in subs:
            np.add(pending, lead, out=pending)
            _kick_drift(a, kick_time, mult, p, spec, w, masks)
            pending[:] = lead
        return a

    def values(r, t):
        # a fresh array, so that no field aliases the evolving state; the
        # pending kick can overflow where the drifted state did not
        return _kick(a[r].copy(), pending[r], p, spec[r], w[r], masks[:, r])

    return _march(fields, plans, "nls_evolve", start, step, values, observer)


def nls_evolve(
    u0: ComplexField,
    t0: float,
    t1: float,
    p: NLSParams,
    dt: float,
    observer=None,
) -> ComplexField:
    """Evolve with equal Strang steps of at most ``dt``: a stack of one row
    and one span (see ``nls_evolve_rows``).

    ``observer(t, field)``, when given, is called after every step (and once
    at t0).  Aborts with SolverHealthError when the resolution or mass
    monitors trip or the state stops being finite; a dt that is not
    positive and finite is a ValueError.
    """
    return nls_evolve_rows([u0], [[(t0, t1, dt)]], p, observer)[0]


def _dnls_slope(pair, out, t, fields, density, w, dxi):
    """fft((|psi|^2)_x psi) for psi = ifft(v), v = pair[0], into ``out``:
    three transforms in two calls.  The product rule gives
    (|psi|^2)_x = 2 Re(conj(psi) psi_x), and psi and psi_x = ifft(dxi v),
    with ``dxi`` = i xi, come from one inverse call on the rows of ``pair``,
    whose second row is overwritten.  ``fields`` (complex, of pair's shape)
    takes them, and ``density`` and ``w`` are real work arrays of v's shape;
    no array is allocated.  ``t``, the stage time, goes into the blow-up
    report."""
    v, dv = pair
    np.multiply(v, dxi, out=dv)
    psi, psi_x = np.fft.ifft(pair, out=fields)
    np.square(psi.real, out=density)
    np.square(psi.imag, out=w)
    density += w
    # sup |psi| <= 1e8, read off the density |psi|^2; an overflowing or NaN
    # density fails it too
    if not density.max() <= 1e16:
        raise SolverHealthError(
            f"dnls_evolve: blow-up in a Runge-Kutta stage at t={t:.6g}",
            {"t": t},
        )
    np.multiply(psi.real, psi_x.real, out=density)
    np.multiply(psi.imag, psi_x.imag, out=w)
    density += w
    density *= 2.0
    np.multiply(psi, density, out=psi)
    return np.fft.fft(psi, out=out)


def _lawson_step(y, out, t, h, c, half, full, work):
    """One RK4 step of the derivative equation in the frame of its start,
    from the spectrum ``y`` at t by the signed step h, into ``out`` (see
    ``dnls_evolve``); ``y`` is left unchanged.  ``c`` is lambda h, ``half``
    and ``full`` are m(h/2) and m(h), and ``work`` holds three complex work
    arrays of y's shape, the (2, *shape) input pair of ``_dnls_slope``, whose
    first row takes each stage input, and the rest of its work arrays."""
    k, ks, ey, pair, slope = work
    v = pair[0]
    # the slopes are N / lambda, so their coefficients carry lambda h
    # k1; the stage input E y + (h/2) E k1
    v[...] = y
    _dnls_slope(pair, k, t, *slope)
    np.multiply(y, half, out=ey)
    np.multiply(k, 0.5 * c, out=v)
    v *= half
    v += ey
    np.multiply(k, full, out=out)
    # k2; the stage input E y + (h/2) k2
    _dnls_slope(pair, ks, t + 0.5 * h, *slope)
    np.multiply(ks, 0.5 * c, out=v)
    v += ey
    # k3; the stage input E2 y + h E k3
    _dnls_slope(pair, k, t + 0.5 * h, *slope)
    ks += k
    np.multiply(y, full, out=ey)
    np.multiply(k, c, out=v)
    v *= half
    v += ey
    # k4; E2 y + (h/6) (E2 k1 + 2 E (k2 + k3) + k4)
    ks *= half
    ks *= 2.0
    out += ks
    out += _dnls_slope(pair, k, t + h, *slope)
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
    and (|psi|^2)_x = 2 Re(conj(psi) psi_x), psi_x = ifft(i xi v) (three
    transforms: psi and psi_x in one inverse call, and one back), one step is

        k1 = N(psi_hat)                  k2 = N(E psi_hat + (h/2) E k1)
        k3 = N(E psi_hat + (h/2) k2)     k4 = N(E2 psi_hat + h E k3)
        psi_hat <- E2 psi_hat + (h/6) (E2 k1 + 2 E (k2 + k3) + k4).

    The product rule equals the spectral derivative of the density where
    |psi|^2 is band-limited on the grid; elsewhere the two differ by the
    grid's aliasing, and ``residual`` keeps the density form.

    RK4 commutes with the constant map U0(t_n), so this is the RK4 of the
    interaction picture w(t) = U0(-t) psi(t), up to rounding.  E and E2 are
    built once per evolution, before its first step, and every stage and
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
    nxt, k, ks, ey = (np.empty(shape, np.complex128) for _ in range(4))
    pair, fields = (np.empty((2, *shape), np.complex128) for _ in range(2))
    work = (k, ks, ey, pair,
            (fields, np.empty(shape), np.empty(shape), plan.derivative_symbol))
    plans = _plan([[(t0, t1, dt)]], "dnls_evolve")
    # the state; the one segment, its step h and the multipliers E = m(h/2)
    # and E2 = m(h), all set at its start; and the steps taken
    y = seg = h = half = full = None
    taken = 0

    def start(r, segment, v):
        nonlocal y, seg, h, half, full
        y, seg, h = np.fft.fft(v), segment, segment.h
        half, full = plan.free_multiplier(0.5 * h), plan.free_multiplier(h)

    def step():
        nonlocal y, nxt, taken
        out = _lawson_step(y, nxt, seg.time(taken), h, p.lam * h, half, full, work)
        # the old state's array takes the next step's combination
        nxt, y = y, out
        taken += 1
        return y

    def values(r, t):
        # a fresh array, so that no field aliases the evolving state
        return np.fft.ifft(y)

    return _march([psi0], plans, "dnls_evolve", start, step, values, observer)[0]


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
