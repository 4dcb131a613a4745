"""Field-valued time quadrature of the explicit scattering integrals.

The first-order correctors, both small-data expansion identities, and the
weighted sub-critical identities all integrate fields of the form
U0(-t) G(U0(t) phi) over a half line.  Direct evaluation needs a domain that
contains the dispersively spread flow, which caps the reachable horizon.
Beyond ``T_SWITCH`` the integrands are therefore evaluated through the
chirp/dilation factorization of the free group, which keeps every
intermediate on the original grid pair and is exact in the continuum: the
dilation factors cancel against the homogeneity |G(c f)| = |c|^(2 sigma) G-
scaling, leaving chirp multiplies, reflections and transforms only.  The two
regimes agree to spectral accuracy in an overlap window, which the tests
pin.

Quadrature is composite Gauss-Legendre on panels graded linearly near zero
and geometrically in the tail.  Each panel's GL_NODES nodes are evaluated
as one (GL_NODES, *counts) block by a row evaluator (``_flow_rows``,
``_lhs_rows``), with batched transforms along the grid axes; one panel is
held at a time, so a temporary costs GL_NODES complex samples per grid
point (~10 MB on a 2D 256^2 grid).  A singular endpoint weight |t|^a with
a in (-1, 0) is removed exactly by the substitution t = s^(1/(1+a)), under
which t^a dt = ds/(1+a).  The part of the half line beyond t_max is
estimated, not bounded: ``_tail_bound`` samples the integrand at 0.5 and
0.995 t_max and extrapolates the algebraic decay with the smaller of the
measured and the assumed exponent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (
    FREQUENCY,
    ComplexField,
    GridDescriptor,
    _density_power,
    _unit_phase,
    forward_fourier,
    free_propagate,
    spectral_plan,
)
from .errors import ConvergenceError

GL_NODES = 10
T_SWITCH = 1.0


@dataclass(frozen=True)
class QuadratureSpec:
    """Half-line quadrature plan.

    singular_exponent is the endpoint weight power a (0 for unweighted
    integrals).
    """

    t_max: float = 400.0
    panels: int = 48
    singular_exponent: float = 0.0

    def __post_init__(self):
        if self.panels < 4:
            raise ValueError("panels must be >= 4")
        if not (self.t_max > 0):
            raise ValueError("t_max must be positive")
        if not (self.singular_exponent > -1.0):
            raise ValueError("singular exponent must exceed -1 for integrability")


@dataclass(frozen=True)
class QuadratureResult:
    """An integral with its error estimates.

    decay_exponent is the decay of the integrand norm measured between the
    two tail samples (nan when both vanish); evaluations counts the
    integrand rows evaluated, tail samples included.
    """

    field: ComplexField
    refinement_delta: float
    tail_bound: float
    decay_exponent: float
    evaluations: int


def nonlinear_flow(phi: ComplexField, t: float, sigma: float) -> ComplexField:
    """|U0(t) phi|^(2 sigma) * U0(t) phi, evaluated directly."""
    u = free_propagate(phi, t)
    return u.with_values(_density_power(u.values, sigma) * u.values)


def _split_rows(ts, near_rows, far_rows, *args):
    """Rows for the times ``ts``: ``near_rows(ts, *args)`` on |t| <= T_SWITCH
    and ``far_rows`` beyond, in the order of ``ts``."""
    ts = np.asarray(ts, dtype=np.float64)
    near = np.abs(ts) <= T_SWITCH
    if near.all():
        return near_rows(ts, *args)
    if not near.any():
        return far_rows(ts, *args)
    first = near_rows(ts[near], *args)
    out = np.empty(ts.shape + first.shape[1:], dtype=first.dtype)
    out[near] = first
    out[~near] = far_rows(ts[~near], *args)
    return out


def _column(ts, dim):
    """``ts`` as a column that broadcasts against rows of a dim-D grid."""
    return ts.reshape((-1,) + (1,) * dim)


def _decay(ts, n_sigma, dim):
    return _column(np.abs(ts) ** -n_sigma, dim)


def _free_rows(plan, phi, ts, sigma):
    """The multipliers U0(t) in FFT order, and the rows G(U0(t) phi).

    The flow acts on phi as a function of its own variable, whatever the
    tag says; conjugation through the transform handles that.
    """
    m = _unit_phase(_column(-0.5 * ts, plan.grid.dim) * plan.xi2)
    u = np.fft.fftn(phi.shaped) * m
    np.fft.ifftn(u, axes=plan.axes, out=u)
    u *= _density_power(u, sigma)
    return m, u


def _chirped_rows(plan, phi, ts, sigma):
    """The chirps M_t on the grid, and the rows G(F M_t phi) on its dual."""
    chirp = _unit_phase(0.5 * plan.r2 / _column(ts, plan.grid.dim))
    g = plan.forward(phi.shaped * chirp)
    g *= _density_power(g, sigma)
    return chirp, g


def _flow_near(ts, phi, sigma):
    plan = spectral_plan(phi.grid)
    m, g = _free_rows(plan, phi, ts, sigma)
    np.fft.fftn(g, axes=plan.axes, out=g)
    g *= np.conj(m, out=m)
    return np.fft.ifftn(g, axes=plan.axes, out=g)


def _flow_far(ts, phi, sigma):
    n = phi.grid.dim
    plan = spectral_plan(phi.grid)
    chirp, g = _chirped_rows(plan, phi, ts, sigma)
    back = spectral_plan(plan.dual).inverse(g)
    back *= np.conj(chirp, out=chirp)
    back *= _decay(ts, n * sigma, n)
    return back


def _flow_rows(phi: ComplexField, ts, sigma):
    """Rows U0(-t) G(U0(t) phi) on phi's grid, one per t in ``ts``.

    For |t| <= T_SWITCH the operators are applied literally.  Beyond that,
    U0(-t) M_t D_t = M_{-t} R F = M_{-t} F^{-1} and the G/D homogeneity
    give |t|^(-n sigma) M_{-t} F^{-1} [ G(F M_t phi) ] with no dilation
    left.  Each row takes one cos/sin array: U0(-t) and M_{-t} are the
    conjugates of U0(t) and M_t.
    """
    return _split_rows(ts, _flow_near, _flow_far, phi, sigma)


def _lhs_near(ts, phi, sigma):
    plan = spectral_plan(phi.grid)
    m, g = _free_rows(plan, phi, ts, sigma)
    ghat = plan.forward(g)
    # M_{1/t} on the dual grid's own coordinates (the identity at t = 0)
    ghat *= np.fft.fftshift(np.conj(m, out=m), axes=plan.axes)
    return ghat


def _lhs_far(ts, phi, sigma):
    n = phi.grid.dim
    plan = spectral_plan(phi.grid)
    chirp, g = _chirped_rows(plan, phi, ts, sigma)
    # U0(1/t) acts on G as a function of its own variable: conjugate
    # through the next transform rather than multiplying on the current
    # coordinates
    np.fft.fftn(g, axes=plan.axes, out=g)
    g *= np.fft.ifftshift(np.conj(chirp, out=chirp), axes=plan.axes)
    np.fft.ifftn(g, axes=plan.axes, out=g)
    g *= _decay(ts, n * sigma, n)
    return g


def _lhs_rows(phi: ComplexField, ts, sigma):
    """Rows exp(i t |xi|^2/2) F[ G(U0(t) phi) ] on phi's dual grid, one per
    t in ``ts``.

    The factorized branch uses M_{1/t} F M_t D_t = U0(1/t) (free-group
    factorization read backwards), giving |t|^(-n sigma) U0(1/t) G(F M_t phi).
    The dual of the dual grid is phi's grid, so the dual grid's |x|^2 and
    |xi|^2 are phi's |xi|^2 and |x|^2 reordered, and each row again takes
    one cos/sin array.
    """
    return _split_rows(ts, _lhs_near, _lhs_far, phi, sigma)


def flow_integrand(phi: ComplexField, t: float, sigma: float) -> ComplexField:
    """U0(-t) G(U0(t) phi) on phi's grid, stable for arbitrarily large |t|."""
    return phi.with_values(_flow_rows(phi, [t], sigma)[0])


def expansion_lhs_integrand(phi: ComplexField, t: float, sigma: float) -> ComplexField:
    """exp(i t |xi|^2/2) F[ G(U0(t) phi) ], a field on phi's dual grid."""
    dual = spectral_plan(phi.grid).dual
    return ComplexField(dual, _lhs_rows(phi, [t], sigma)[0].reshape(-1), FREQUENCY)


def _panel_edges(t_max, panels):
    """Panel edges on [0, t_max]: linear up to min(1, t_max/4), then geometric."""
    if t_max <= 8.0:
        return np.linspace(0.0, t_max, panels + 1)
    t_break = min(1.0, t_max / 4.0)
    n_lin = max(4, panels // 4)
    n_log = panels - n_lin
    lin = np.linspace(0.0, t_break, n_lin + 1)
    log = np.geomspace(t_break, t_max, n_log + 1)[1:]
    return np.concatenate([lin, log])


def _quad_panels(rows, template, sign, spec: QuadratureSpec, panels):
    """sign-oriented integral of |t|^a * rows(sign*t) over [0, t_max], on
    the grid and in the space of ``template``.

    ``rows(ts)`` returns one integrand row per time; each panel's
    GL_NODES times go in one call.
    """
    a = spec.singular_exponent
    p = 1.0 + a
    nodes, weights = np.polynomial.legendre.leggauss(GL_NODES)
    edges_t = _panel_edges(spec.t_max, panels)
    edges_s = edges_t**p
    if a != 0.0:
        # the substituted integrand is bounded but only Hoelder at s = 0;
        # cascade the first panel geometrically so each sub-panel sees a
        # smooth relative variation
        cascade = edges_s[1] * 10.0 ** -np.arange(12.0, 0.0, -1.0)
        edges_s = np.concatenate([[0.0], cascade, edges_s[1:]])
    # a fixed order keeps results bitwise reproducible: nodes are summed
    # within a panel, then panels into a zero total
    total = 0.0
    for sa, sb in zip(edges_s[:-1], edges_s[1:]):
        mid, half = 0.5 * (sa + sb), 0.5 * (sb - sa)
        block = rows(sign * (mid + half * nodes) ** (1.0 / p))
        acc = None
        for w, row in zip(weights, block):
            contrib = (w * half / p) * row
            acc = contrib if acc is None else acc + contrib
        total = total + acc
    return template.with_values(sign * total)


def _tail_bound(rows, template, sign, spec: QuadratureSpec, n_sigma):
    """Estimate of the integral's norm beyond t_max, and the measured decay.

    The integrand norm is sampled at 0.5 and 0.995 t_max; the algebraic
    decay is extrapolated from the later sample with the smaller of the
    measured and the assumed exponent.
    """
    a = spec.singular_exponent
    t_mid, t_cal = 0.5 * spec.t_max, 0.995 * spec.t_max
    block = rows(sign * np.array([t_mid, t_cal]))
    norm_mid, norm_cal = np.sqrt(
        template.grid.cell_volume * np.sum(np.abs(block.reshape(2, -1)) ** 2, axis=1)
    )
    if norm_cal == 0.0:
        return 0.0, float("nan")
    measured = float(np.log(norm_mid / norm_cal) / np.log(t_cal / t_mid))
    q = min(measured, n_sigma) - a
    if not q > 1.0:
        raise ConvergenceError(
            f"measured integrand tail |t|^{a - measured:.3g} is not "
            "integrable: need decay - singular_exponent > 1"
        )
    c = t_cal**a * norm_cal * t_cal**q
    return float(c * spec.t_max ** (1.0 - q) / (q - 1.0)), measured


def _refined_quadrature(rows, template, sign, spec, n_sigma):
    """The integral on ``spec.panels`` and twice as many panels, with its
    tail estimate; an integrand whose assumed decay |t|^-n_sigma leaves the
    weighted tail non-integrable is rejected before any panel runs."""
    a = spec.singular_exponent
    if n_sigma - a <= 1.0:
        raise ConvergenceError(
            f"integrand tail |t|^{a - n_sigma:.3g} is not "
            "integrable: need decay - singular_exponent > 1"
        )
    evaluations = 0

    def counted(ts):
        nonlocal evaluations
        evaluations += len(ts)
        return rows(ts)

    coarse = _quad_panels(counted, template, sign, spec, spec.panels)
    fine = _quad_panels(counted, template, sign, spec, 2 * spec.panels)
    delta = float(
        np.sqrt(fine.grid.cell_volume * np.sum(np.abs(fine.values - coarse.values) ** 2))
    )
    tail, decay = _tail_bound(counted, template, sign, spec, n_sigma)
    return QuadratureResult(fine, delta, tail, decay, evaluations)


def born_integral(
    phi: ComplexField, sign: int, sigma: float, q: QuadratureSpec
) -> QuadratureResult:
    """Oriented integral of U0(-t) G(U0(t) phi) dt from 0 to sign*infinity,
    truncated at t_max with an extrapolated algebraic tail estimate.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    n = phi.grid.dim
    rows = lambda ts: _flow_rows(phi, ts, sigma)
    return _refined_quadrature(rows, phi, sign, q, n * sigma)


def corollary2_sides(phi: ComplexField, sign: int, q: QuadratureSpec) -> tuple:
    """Both sides of the critical expansion identity, independently pipelined.

    Left route: nonlinear flow -> transform -> quadratic-phase multiply.
    Right route: transform first -> backward free flow -> nonlinearity ->
    forward free flow.  Both land on phi's dual grid; the caller compares.
    """
    n = phi.grid.dim
    sigma = 2.0 / n
    phihat = forward_fourier(phi)
    lhs_rows = lambda ts: _lhs_rows(phi, ts, sigma)
    rhs_rows = lambda ts: _flow_rows(phihat, -ts, sigma)
    lhs = _refined_quadrature(lhs_rows, phihat, sign, q, n * sigma)
    rhs = _refined_quadrature(rhs_rows, phihat, sign, q, n * sigma)
    return lhs, rhs


def _check_subcritical_window(n: int, sigma: float):
    """Raise ValueError unless the weighted identities hold for (n, sigma)."""
    if n > 2:
        raise ValueError("sub-critical identities are run for n <= 2 only")
    if not (1.0 / n < sigma < 2.0 / n):
        raise ValueError(f"sigma={sigma} outside validity window (1/n, 2/n)")
    if n == 2 and not (sigma > 2.0 / (n + 2)):
        raise ValueError(f"sigma={sigma} must exceed 2/(n+2) for n=2")


def subcritical_sides(
    phi: ComplexField, sign: int, n: int, sigma: float, q: QuadratureSpec
) -> tuple:
    """The two weighted sub-critical identities, four integrals in all.

    Identity 1 pairs the unweighted left route with the |t|^(n sigma - 2)-
    weighted right route; identity 2 swaps the weight.  Valid for
    1/n < sigma < 2/n (n <= 2), plus sigma > 2/(n+2) when n = 2.
    """
    if phi.grid.dim != n:
        raise ValueError("phi dimension does not match n")
    _check_subcritical_window(n, sigma)
    a = n * sigma - 2.0
    phihat = forward_fourier(phi)
    lhs_rows = lambda ts: _lhs_rows(phi, ts, sigma)
    rhs_rows = lambda ts: _flow_rows(phihat, -ts, sigma)
    plain = replace(q, singular_exponent=0.0)
    weighted = replace(q, singular_exponent=a)
    identity1 = (
        _refined_quadrature(lhs_rows, phihat, sign, plain, n * sigma),
        _refined_quadrature(rhs_rows, phihat, sign, weighted, n * sigma),
    )
    identity2 = (
        _refined_quadrature(lhs_rows, phihat, sign, weighted, n * sigma),
        _refined_quadrature(rhs_rows, phihat, sign, plain, n * sigma),
    )
    return identity1, identity2


def scalar_weighted_integral(fn, a, t_max, panels):
    """Quadrature of t^a * fn(t) over [0, t_max] through the exact same panel
    and substitution machinery, using a constant 8-point field; scalar
    oracles with known closed forms pin the substitution down."""
    grid = GridDescriptor.centered((8,), (1.0,))
    ones = ComplexField(grid, np.ones(8), "position")
    rows = lambda ts: np.array([fn(abs(t)) for t in ts])[:, None] * ones.values
    spec = QuadratureSpec(t_max=t_max, panels=panels, singular_exponent=a)
    out = _quad_panels(rows, ones, +1, spec, panels)
    return complex(out.values[0])
