"""Numerical wave operators, their inverses, and the two sides of the
operator identities built on them.

The truncated operators replace t -> +-infinity by an evolution to a
horizon T; their bias falls like 1/T, and callers measure it against a
doubled horizon or the lens route.  Along a scattering solution the
critical nonlinearity |u|^(4/n) decays like |t|^-2, so the truncated
evolutions take octave-graded steps (``_graded_schedule``): a base step up
to |t| = T_GRADE, and twice the step on each octave beyond it.  Each step
is Yoshida's fourth-order composition of three Strang steps (``YOSHIDA``),
and the base step is ``YOSHIDA_STEP_RATIO`` dt = 4 dt: three FFT pairs for
the time error of four Strang steps, so a truncated operator's dt still
means the accuracy of Strang steps of dt, where dt is fine enough.  That
was measured at dt <= 0.025 on the thm1, lemmas and benchmark data; a
fourth-order error only falls below a second-order one below some dt, and
at wave_op's dt = 0.04 the Yoshida steps of 4 dt err 2.6 times more than
Strang steps of dt.  The lens route, ``solve`` and
``free_return_ladder`` take Strang steps of dt.  An outward schedule and its
reverse take the same step count, so on a 1D grid all the truncated
evolutions of one identity march as one stack through
``_truncated_operators``, the one owner of the grading, the composition, the
stacking and the datum and horizon checks.  Each row is bitwise its own
evolution.  The lens route is exact for sigma = 2/n: the pseudo-conformal
(lens) transform swaps t = +-infinity with tau = 0, so W+- become
finite-time evolutions joined by the Fourier transform.  The small-data
expansion runs on the lens route; the theorem-1, conjugation and lemma
checks keep the truncated operators as their independent side.
"""

from __future__ import annotations

import math

from .born import ORIENTATIONS
from .core import (
    ComplexField,
    forward_fourier,
    free_propagate,
    inverse_fourier,
    l2_difference,
    l2_norm,
    resample,
)
from .errors import NlslabError
from .solvers import YOSHIDA, NLSParams, nls_evolve, nls_evolve_rows
from .transforms import SnapshotAtTime, conjugate, pseudo_conformal, reflect


SMALL_DATA_THRESHOLD = 0.5

# Lens time T1 of the lens route.  At T1 = 1 the pseudo-conformal dilation
# by |t| = T1 leaves the grid unchanged, so no work grid is needed.
LENS_TIME = 1.0

# End of the first octave of the truncated evolutions' steps: dt on
# [0, T_GRADE), dt 2^k on [T_GRADE 2^(k-1), T_GRADE 2^k) for k >= 1.
T_GRADE = 8.0

# The truncated evolutions take Yoshida steps of YOSHIDA_STEP_RATIO * dt
# where the grading gives dt, so that dt keeps its meaning, the accuracy of
# Strang steps of dt, for dt <= 0.025: there the measured time error of the
# graded operators at 4 dt is at or below Strang's at dt on the thm1,
# lemmas and benchmark data (tests/test_scattering.py holds it on thm1's),
# and three FFT pairs replace four.  Yoshida's error falls like dt^4 and
# Strang's like dt^2, so at a coarser dt the ratio loses: on the light
# wave_op default (dt 0.04) it is 2.2e-7 against Strang's 8.4e-8, still 25x
# below that run's residuals.
YOSHIDA_STEP_RATIO = 4.0

# The two signs of the identities and their labels, in report order: the
# order in which born returns the orientations of its integral pairs.
SIGNS = tuple(zip(ORIENTATIONS, ("plus", "minus")))


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


def _graded_schedule(t0, t1, dt):
    """The octave-graded spans (a, b, dt 2^k) from t0 to t1, one of which
    is 0.  The edges are 0, then +-T_GRADE 2^k for k = 0, 1, ... while
    inside the far end, then the far end, and the k-th octave between them
    takes steps of at most dt 2^k.  A run toward 0 takes the octaves of
    the run away from 0 in reverse, over the same nodes, so the round trip
    of a time-symmetric step stays an exact symmetry.  A span of at most
    T_GRADE is one uniform span."""
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


def _truncated_operators(calls, p, horizon, dt):
    """Yields the truncated operators of ``calls``, each (f, sign, inverse),
    in order: W_sign f, or W_sign^{-1} f when ``inverse``, at the horizon T.
    W_sign evolves the free state U0(sign*T) f from sign*T back to 0;
    W_sign^{-1} evolves f to sign*T and returns U0(-sign*T) of it.  Each
    evolution takes the graded Yoshida steps of YOSHIDA_STEP_RATIO * dt.
    Every datum and the horizon are checked before any evolution.  The
    calls march as one stack on a 1D grid, whose FFTs numpy batches across
    the rows, and one at a time on a grid of more dimensions, whose
    transforms already batch over its own rows.  A stack marches when its
    first operator is asked for, so on a 2D grid a caller that takes the
    operators one at a time holds no more fields than one evolution
    needs."""
    for f, sign, _ in calls:
        _check_datum(f, sign)
    if not (horizon > 0):
        raise ValueError("horizon must be positive")
    stacks = [calls] if calls[0][0].grid.dim == 1 else [[call] for call in calls]
    step = YOSHIDA_STEP_RATIO * dt
    for stack in stacks:
        ends = nls_evolve_rows(
            [f if inverse else free_propagate(f, sign * horizon) for f, sign, inverse in stack],
            [_graded_schedule(0.0, sign * horizon, step) if inverse
             else _graded_schedule(sign * horizon, 0.0, step)
             for _, sign, inverse in stack],
            p, composition=YOSHIDA)
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
    u(sign*T) = U0(sign*T) u_pm evolves back to t = 0, in Yoshida steps of
    4 dt up to |t| = T_GRADE that double on each octave beyond it.  For
    dt <= 0.025 these were measured as accurate as Strang steps of dt, or
    more; at dt = 0.04 they were less (see ``YOSHIDA_STEP_RATIO``).  The
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


def theorem1_sides(u0: ComplexField, p: NLSParams, horizon: float, dt: float):
    """Yields the sides (name, lhs, rhs) of the Fourier exchange
    F W_s^{-1} = W_{-s} F between the inverse and forward wave operators
    truncated at ``horizon``, named ``sign_plus`` and ``sign_minus``: the
    left side F W_s^{-1} u0 on the dual grid, and the right side resampled
    onto it."""
    hosted = resample(forward_fourier(u0), u0.grid)
    # W_s^{-1} u0, then W_{-s} F u0, for each sign
    ops = _truncated_operators(
        [call for sign, _ in SIGNS for call in ((u0, sign, True), (hosted, -sign, False))],
        p, horizon, dt)
    for _, label in SIGNS:
        lhs = forward_fourier(next(ops))
        yield f"sign_{label}", lhs, resample(next(ops), lhs.grid)


def conjugation_sides(u0: ComplexField, p: NLSParams, horizon: float, dt: float):
    """Yields the sides (name, lhs, rhs) of both conjugation identities
    relating W+ and W-, each truncated at ``horizon``: the sandwich
    W_s = C W_{-s} C, named ``conjugation_sandwich_<sign>``, then
    W_s^{-1} = (C F)^{-1} W_s (C F), named
    ``transform_conjugated_inverse_<sign>``, whose left side is resampled
    onto its right side's grid."""
    # W_s = C W_{-s} C on the datum itself, then W_s^{-1} = (C F)^{-1} W_s (C F)
    # with its right side via hosting C F u0, for each sign
    hosted = resample(conjugate(forward_fourier(u0)), u0.grid)
    ops = _truncated_operators(
        [call for sign, _ in SIGNS for call in ((u0, sign, False), (conjugate(u0), -sign, False))]
        + [call for sign, _ in SIGNS for call in ((u0, sign, True), (hosted, sign, False))],
        p, horizon, dt)
    for _, label in SIGNS:
        yield f"conjugation_sandwich_{label}", next(ops), conjugate(next(ops))
    for _, label in SIGNS:
        lhs, rhs = next(ops), inverse_fourier(conjugate(next(ops)))
        yield f"transform_conjugated_inverse_{label}", resample(lhs, rhs.grid), rhs


def small_data_sweep(
    phi: ComplexField, sign: int, p: NLSParams, deltas, dt: float,
    k: ComplexField,
) -> dict:
    """Small-data expansion of the wave operators against the quadrature
    corrector ``k``, for amplitudes ``deltas`` (each delta = epsilon^(n/4)).

    ``k`` is K_sign(phi), the oriented half-line corrector integral of
    ``born.born_integral``.  For each delta the forward and inverse
    operators are computed on the lens route (no horizon bias) with time
    step ``dt``, and the first-order term i * mu * delta^(1+4/n) * K is
    removed.  Returns, under ``forward`` and ``inverse``, one row (delta,
    coefficient error, remainder) per delta in the given order: the
    coefficient error is relative to ||K|| and the remainder is absolute.

    Sign convention (validated numerically by the test suite): the forward
    operator carries +i * K and the inverse carries -i * K, for both sign
    branches, with K oriented toward sign*infinity.
    """
    mu = p.mu
    power = 1.0 + 4.0 / phi.grid.dim
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
    return rows


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


def asymptotic_state_sides(u0: ComplexField, p: NLSParams, horizon: float, dt: float):
    """Yields the sides (name, lhs, rhs) of the finite-horizon form of the
    second boundary-matching lemma, named ``asymptotic_state_match_<sign>``:
    the asymptotic state of u at ``horizon``, the truncated W_sign^{-1} u0,
    resampled onto the grid of F^{-1} R of the one-sided limit of v at 0,
    where u(sign*T) is the free flow of the asymptotic state by sign*T."""
    ops = _truncated_operators([(u0, sign, True) for sign, _ in SIGNS], p, horizon, dt)
    for (sign, label), u_asym in zip(SIGNS, ops):
        u_t = free_propagate(u_asym, sign * horizon)
        v_limit = pseudo_conformal(SnapshotAtTime(u_t, sign * horizon)).field
        predicted = inverse_fourier(reflect(v_limit))
        yield f"asymptotic_state_match_{label}", resample(u_asym, predicted.grid), predicted
