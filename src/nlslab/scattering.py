"""Numerical wave operators, their inverses, and the residuals of the
operator identities built on them.

The truncated operators replace t -> +-infinity by an evolution to a
horizon T; their bias falls like 1/T, and callers measure it against a
doubled horizon or the lens route.  Along a scattering solution the
critical nonlinearity |u|^(4/n) decays like |t|^-2, so the truncated
evolutions take octave-graded steps (``_graded_schedule``): dt up to
|t| = T_GRADE, and twice the step on each octave beyond it.  An outward
schedule and its reverse take the same step count, so on a 1D grid all the
truncated evolutions of one identity march as one stack (``_stacks``): their
schedules go straight to ``nls_evolve_rows``, and each row is bitwise its
own evolution.  The lens route is exact for sigma = 2/n: the
pseudo-conformal (lens) transform swaps t = +-infinity with tau = 0, so W+-
become finite-time evolutions joined by the Fourier transform.  The
small-data expansion runs on the lens route; the theorem-1, conjugation and
lemma checks keep the truncated operators as their independent side.
"""

from __future__ import annotations

import math

from .born import QuadratureSpec, born_integral
from .core import (
    ComplexField,
    GridDescriptor,
    forward_fourier,
    free_propagate,
    inverse_fourier,
    l2_difference,
    l2_norm,
    resample,
)
from .errors import NlslabError
from .solvers import NLSParams, nls_evolve, nls_evolve_rows
from .transforms import SnapshotAtTime, conjugate, pseudo_conformal, reflect


SMALL_DATA_THRESHOLD = 0.5

# Lens time T1 of the lens route.  At T1 = 1 the pseudo-conformal dilation
# by |t| = T1 leaves the grid unchanged, so no work grid is needed.
LENS_TIME = 1.0

# End of the first octave of the truncated evolutions' steps: dt on
# [0, T_GRADE), dt 2^k on [T_GRADE 2^(k-1), T_GRADE 2^k) for k >= 1.
T_GRADE = 8.0

# The two signs of the identities and their labels, in report order.
SIGNS = ((+1, "plus"), (-1, "minus"))


def is_critical(f: ComplexField, p: NLSParams) -> bool:
    """Whether sigma is the L2-critical power 2/n of the grid of ``f``."""
    return abs(p.sigma - 2.0 / f.grid.dim) < 1e-14


def _check_datum(f, sign):
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    nrm = l2_norm(f)
    if nrm > SMALL_DATA_THRESHOLD:
        raise NlslabError(
            f"datum norm {nrm:.4g} exceeds the small-data threshold "
            f"{SMALL_DATA_THRESHOLD:.4g}"
        )


def _check_truncated(f, sign, horizon):
    _check_datum(f, sign)
    if not (horizon > 0):
        raise ValueError("horizon must be positive")


def _graded_schedule(t0, t1, dt):
    """The octave-graded spans (a, b, dt 2^k) from t0 to t1, one of which
    is 0.  The edges are 0, then +-T_GRADE 2^k for k = 0, 1, ... while
    inside the far end, then the far end, and the k-th octave between them
    takes steps of at most dt 2^k.  A run toward 0 takes the octaves of
    the run away from 0 in reverse, over the same nodes, so the Strang
    round trip stays an exact symmetry.  A span of at most T_GRADE is one
    uniform span."""
    far = t0 if t1 == 0.0 else t1
    edges = [0.0]
    edge = T_GRADE
    while edge < abs(far):
        edges.append(math.copysign(edge, far))
        edge *= 2.0
    edges.append(far)
    octaves = [(a, b, dt * 2.0**k) for k, (a, b) in enumerate(zip(edges, edges[1:]))]
    if far == t0:
        octaves = [(b, a, h) for a, b, h in reversed(octaves)]
    return octaves


def _stacks(items, grid):
    """``items`` cut into the stacks that march together on ``grid``: one
    stack on a 1D grid, whose FFTs numpy batches across the rows, and one
    stack per item on a grid of more dimensions.  Its transforms already
    batch over the grid's own rows, and each extra row would hold a field's
    work arrays."""
    return [list(items)] if grid.dim == 1 else [[item] for item in items]


def _truncated_operators(calls, p, horizon, dt):
    """Yields the truncated operators of ``calls``, each (f, sign, inverse),
    in order: W_sign f, or W_sign^{-1} f when ``inverse``, at the horizon T.
    W_sign evolves the free state U0(sign*T) f from sign*T back to 0;
    W_sign^{-1} evolves f to sign*T and returns U0(-sign*T) of it.  Every
    datum is checked before any evolution.  The calls march in the stacks
    of ``_stacks``, each when its first operator is asked for, so on a 2D
    grid a caller that takes the operators one at a time holds no more
    fields than one evolution needs."""
    for f, sign, _ in calls:
        _check_truncated(f, sign, horizon)
    for stack in _stacks(calls, calls[0][0].grid):
        ends = nls_evolve_rows(
            [f if inverse else free_propagate(f, sign * horizon) for f, sign, inverse in stack],
            [_graded_schedule(0.0, sign * horizon, dt) if inverse
             else _graded_schedule(sign * horizon, 0.0, dt) for _, sign, inverse in stack], p)
        for _, sign, inverse in stack:
            # dropped from ``ends`` so that only the operator handed out
            # stays alive
            u = ends.pop(0)
            if inverse:
                u = free_propagate(u, -sign * horizon)
            yield u


def wave_operator(
    u_pm: ComplexField, sign: int, p: NLSParams, horizon: float, dt: float
) -> ComplexField:
    """W_sign u_pm truncated at the horizon T: the free state
    u(sign*T) = U0(sign*T) u_pm evolves back to t = 0, with steps of dt
    up to |t| = T_GRADE that double on each octave beyond it.  The
    truncation bias falls like 1/T."""
    return next(_truncated_operators([(u_pm, sign, False)], p, horizon, dt))


def inverse_wave_operator(
    u0: ComplexField, sign: int, p: NLSParams, horizon: float, dt: float
) -> ComplexField:
    """W_sign^{-1} u0 truncated at the horizon T: u0 evolves to t = sign*T,
    and the asymptotic state is U0(-sign*T) u(sign*T).  The steps are
    those of ``wave_operator``, in reverse order.  The truncation bias
    falls like 1/T."""
    return next(_truncated_operators([(u0, sign, True)], p, horizon, dt))


def _check_lens(u, sign, p):
    if not is_critical(u, p):
        raise ValueError("the lens route needs the critical power sigma = 2/n")
    _check_datum(u, sign)


def lens_wave_operator(
    u_pm: ComplexField, sign: int, p: NLSParams, dt: float
) -> ComplexField:
    """W_sign u_pm through the lens transform, on the datum's dual grid.

    v(0) = F^{-1} u_pm evolves from 0 to -sign/T1; the lens transform of
    v(-sign/T1), reflected, is u(sign*T1), which evolves back to t = 0 and
    is resampled onto the datum grid.
    """
    _check_lens(u_pm, sign, p)
    tau = -sign / LENS_TIME
    v = nls_evolve(inverse_fourier(u_pm), 0.0, tau, p, dt)
    u_t = reflect(pseudo_conformal(SnapshotAtTime(v, tau)).field)
    u = nls_evolve(u_t, sign * LENS_TIME, 0.0, p, dt)
    return resample(u, u_pm.grid)


def lens_inverse_wave_operator(
    u0: ComplexField, sign: int, p: NLSParams, dt: float
) -> ComplexField:
    """W_sign^{-1} u0 through the lens transform, on the datum's grid.

    u evolves from 0 to sign*T1; the lens transform of u(sign*T1) is
    v(-sign/T1), which evolves to tau = 0; F v(0), on the dual grid, is
    resampled onto the datum grid.
    """
    _check_lens(u0, sign, p)
    u = nls_evolve(u0, 0.0, sign * LENS_TIME, p, dt)
    snap = pseudo_conformal(SnapshotAtTime(u, sign * LENS_TIME))
    v = nls_evolve(snap.field, snap.time, 0.0, p, dt)
    return resample(forward_fourier(v), u0.grid)


def theorem1_residuals(
    u0: ComplexField, p: NLSParams, horizon: float, dt: float
) -> dict:
    """Residuals of the Fourier exchange F W_s^{-1} = W_{-s} F between the
    inverse and forward wave operators truncated at ``horizon``, relative to
    ||u0||, keyed ``sign_plus`` and ``sign_minus``."""
    uhat = forward_fourier(u0)
    hosted = resample(uhat, u0.grid)
    scale = l2_norm(u0)
    # W_s^{-1} u0, then W_{-s} F u0, for each sign
    ops = _truncated_operators(
        [call for sign, _ in SIGNS for call in ((u0, sign, True), (hosted, -sign, False))],
        p, horizon, dt)
    residuals = {}
    for _, label in SIGNS:
        a_side = forward_fourier(next(ops))
        b_side = resample(next(ops), a_side.grid)
        residuals[f"sign_{label}"] = l2_difference(a_side, b_side) / scale
    return residuals


def conjugation_residuals(
    u0: ComplexField, p: NLSParams, horizon: float, dt: float
) -> dict:
    """Residuals of both conjugation identities relating W+ and W-, each
    truncated at ``horizon``, relative to ||u0||: the sandwich
    W_s = C W_{-s} C, keyed ``conjugation_sandwich_<sign>``, then
    W_s^{-1} = (C F)^{-1} W_s (C F), keyed
    ``transform_conjugated_inverse_<sign>``."""
    scale = l2_norm(u0)
    # W_s = C W_{-s} C on the datum itself, then W_s^{-1} = (C F)^{-1} W_s (C F)
    # with its right side via hosting C F u0, for each sign
    hosted = resample(conjugate(forward_fourier(u0)), u0.grid)
    ops = _truncated_operators(
        [call for sign, _ in SIGNS for call in ((u0, sign, False), (conjugate(u0), -sign, False))]
        + [call for sign, _ in SIGNS for call in ((u0, sign, True), (hosted, sign, False))],
        p, horizon, dt)
    residuals = {}
    for _, label in SIGNS:
        direct, routed = next(ops), conjugate(next(ops))
        residuals[f"conjugation_sandwich_{label}"] = (
            l2_difference(direct, routed) / scale
        )
    for _, label in SIGNS:
        lhs, rhs = next(ops), inverse_fourier(conjugate(next(ops)))
        lhs_on_dual = resample(lhs, rhs.grid)
        residuals[f"transform_conjugated_inverse_{label}"] = (
            l2_difference(lhs_on_dual, rhs) / scale
        )
    return residuals


def small_data_sweep(
    phi: ComplexField, sign: int, p: NLSParams, deltas, dt: float,
    q: QuadratureSpec,
) -> tuple:
    """Small-data expansion of the wave operators against the quadrature
    corrector, for amplitudes ``deltas`` (each delta = epsilon^(n/4)).

    For each delta the forward and inverse operators are computed on the
    lens route (no horizon bias) with time step ``dt``, and the first-order
    term i * mu * delta^(1+4/n) * K is removed, K the oriented half-line
    corrector integral.  Returns the corrector's ``QuadratureResult`` and,
    under ``forward`` and ``inverse``, one row (delta, coefficient error,
    remainder) per delta in the given order: the coefficient error is
    relative to ||K|| and the remainder is absolute.

    Sign convention (validated numerically by the test suite): the forward
    operator carries +i * K and the inverse carries -i * K, for both sign
    branches, with K oriented toward sign*infinity.
    """
    mu = p.mu
    power = 1.0 + 4.0 / phi.grid.dim
    corrector = born_integral(phi, sign, p.sigma, q)
    k = corrector.field
    k_norm = l2_norm(k)
    rows = {"forward": [], "inverse": []}
    for delta in deltas:
        a = phi.with_values(delta * phi.values)
        w = lens_wave_operator(a, sign, p, dt)
        w_inv = lens_inverse_wave_operator(a, sign, p, dt)
        first = mu * delta**power * k.values
        for name, out, orient in (("forward", w, +1.0), ("inverse", w_inv, -1.0)):
            remainder = l2_norm(
                out.with_values(out.values - a.values - orient * 1j * first))
            # the coefficient error ||(out - a) / (mu delta^power) - orient i K||
            # / ||K|| is the remainder over |mu| delta^power ||K||
            coeff_err = remainder / (abs(mu) * delta**power * k_norm)
            rows[name].append((delta, coeff_err, remainder))
    return corrector, rows


def free_return_ladder(
    u0: ComplexField, p: NLSParams, dt: float, ladder_times
) -> list:
    """Finite-horizon form of the first boundary-matching lemma: the
    conformal image v of the solved trajectory satisfies
    || U0(-t) v(t) - F^{-1} u0 || -> 0.  Returns (t, error relative to
    ||u0||) for each of ``ladder_times`` in increasing order, on the grid of
    ``u0``.  The times must be distinct; a repeated one is a ValueError."""
    times = sorted(ladder_times)
    for earlier, later in zip(times, times[1:]):
        if earlier == later:
            raise ValueError(f"ladder times must be distinct; {later!r} is repeated")
    scale = l2_norm(u0)
    # snapshots of u at -1/t for the requested t values, reached by
    # segment-wise evolution (closest to zero first), each segment in at
    # least 4 steps
    taus = sorted((-1.0 / t for t in times), reverse=True)
    snaps = {}
    state, t_now = u0, 0.0
    for tau in taus:
        state = nls_evolve(state, t_now, tau, p, min(dt, abs(tau - t_now) / 4))
        snaps[tau] = state
        t_now = tau
    target = inverse_fourier(u0)
    ladder = []
    for t in times:
        tau = -1.0 / t
        v = pseudo_conformal(SnapshotAtTime(snaps[tau], tau))
        back = free_propagate(v.field, -v.time)
        moved = resample(back, target.grid)
        ladder.append((t, l2_difference(moved, target) / scale))
    return ladder


def asymptotic_state_residuals(
    u0: ComplexField, p: NLSParams, horizon: float, dt: float,
    scattering_grid: GridDescriptor,
) -> dict:
    """Finite-horizon form of the second boundary-matching lemma: on the wide
    ``scattering_grid``, the asymptotic states of u at ``horizon`` match
    F^{-1} R of the one-sided limits of v at 0.  Residuals relative to
    ||u0||, keyed ``asymptotic_state_match_<sign>``; checks as ``wave_operator``."""
    _check_truncated(u0, +1, horizon)
    u0s = resample(u0, scattering_grid)
    scale = l2_norm(u0s)
    residuals = {}
    for stack in _stacks(SIGNS, scattering_grid):
        ends = nls_evolve_rows([u0s] * len(stack),
                               [_graded_schedule(0.0, sign * horizon, dt) for sign, _ in stack], p)
        for (sign, label), u_t in zip(stack, ends):
            u_asym = free_propagate(u_t, -sign * horizon)
            v_limit = pseudo_conformal(SnapshotAtTime(u_t, sign * horizon)).field
            predicted = inverse_fourier(reflect(v_limit))
            moved = resample(u_asym, predicted.grid)
            residuals[f"asymptotic_state_match_{label}"] = (
                l2_difference(moved, predicted) / scale
            )
    return residuals
