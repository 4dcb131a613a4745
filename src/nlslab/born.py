"""Field-valued time quadrature of the explicit scattering integrals.

Every half-line integral here, the first-order correctors and both sides of
the critical and the weighted sub-critical expansion identities, is one
quadrature of U0(-t) G(U0(t) psi), with psi the datum phi or its transform
F phi.  An identity F K_s(phi) = -K_{-s}(F phi) compares the transform of
one such integral with another along the backward flow of F phi.
Direct evaluation needs a domain that contains the dispersively spread
flow, which caps the reachable horizon.  Beyond ``T_SWITCH`` the integrand
is therefore evaluated through the chirp/dilation factorization of the free
group, which keeps every intermediate on the original grid pair and is
exact in the continuum: the dilation factors cancel against the
homogeneity |G(c f)| = |c|^(2 sigma) G-scaling, leaving chirp multiplies,
reflections and transforms only.  The two regimes agree to spectral
accuracy in an overlap window, which the tests pin.

Quadrature is composite Gauss-Legendre on panels graded linearly near zero
and geometrically in the tail.  Each panel's GL_NODES nodes are evaluated
as one (GL_NODES, *counts) block by ``_flow_rows``, with batched transforms
along the grid axes; one panel is held at a time, so a temporary costs
GL_NODES complex samples per grid point (~10 MB on a 2D 256^2 grid).  A
singular endpoint weight |t|^a with a in (-1, 0) is removed exactly by the
substitution t = s^(1/(1+a)), under which t^a dt = ds/(1+a).  The part of
the half line beyond t_max is estimated, not bounded: ``_tail_bound``
samples the integrand at 0.5 and 0.995 t_max and extrapolates the algebraic
decay with the smaller of the measured and the assumed exponent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (
    ComplexField,
    GridDescriptor,
    _density_power,
    _unit_phase,
    forward_fourier,
    l2_difference,
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


def _column(ts, dim):
    """``ts`` as a column that broadcasts against rows of a dim-D grid."""
    return ts.reshape((-1,) + (1,) * dim)


def _flow_near(ts, phi, sigma):
    plan = spectral_plan(phi.grid)
    m = _unit_phase(_column(-0.5 * ts, plan.grid.dim) * plan.xi2)
    g = np.fft.fftn(phi.values) * m
    np.fft.ifftn(g, axes=plan.axes, out=g)
    g *= _density_power(g, sigma)
    np.fft.fftn(g, axes=plan.axes, out=g)
    g *= np.conj(m, out=m)
    return np.fft.ifftn(g, axes=plan.axes, out=g)


def _flow_far(ts, phi, sigma):
    n = phi.grid.dim
    plan = spectral_plan(phi.grid)
    chirp = _unit_phase(0.5 * plan.r2 / _column(ts, n))
    g = plan.forward(phi.values * chirp)
    g *= _density_power(g, sigma)
    back = spectral_plan(plan.dual).inverse(g)
    back *= np.conj(chirp, out=chirp)
    back *= _column(np.abs(ts) ** -(n * sigma), n)
    return back


def _flow_rows(phi: ComplexField, ts, sigma):
    """Rows U0(-t) G(U0(t) phi) on phi's grid, one per t in ``ts``.

    For |t| <= T_SWITCH the operators are applied literally.  Beyond that,
    U0(-t) M_t D_t = M_{-t} R F = M_{-t} F^{-1} and the G/D homogeneity
    give |t|^(-n sigma) M_{-t} F^{-1} [ G(F M_t phi) ] with no dilation
    left.  Each row takes one cos/sin array: U0(-t) and M_{-t} are the
    conjugates of U0(t) and M_t.  T_SWITCH is read at call time.
    """
    ts = np.asarray(ts, dtype=np.float64)
    near = np.abs(ts) <= T_SWITCH
    if near.all():
        return _flow_near(ts, phi, sigma)
    if not near.any():
        return _flow_far(ts, phi, sigma)
    first = _flow_near(ts[near], phi, sigma)
    out = np.empty(ts.shape + first.shape[1:], dtype=first.dtype)
    out[near] = first
    out[~near] = _flow_far(ts[~near], phi, sigma)
    return out


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
    the grid of ``template``.

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
    delta = l2_difference(fine, coarse)
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
    rows = lambda ts: _flow_rows(phi, ts, sigma)
    return _refined_quadrature(rows, phi, sign, q, phi.grid.dim * sigma)


def _sides(phi, sign, sigma, q_left, q_right):
    """F K_sign(phi) under ``q_left`` and -K_{-sign}(F phi) under
    ``q_right``, where K_s is the oriented integral of ``born_integral``.

    Both are one quadrature of U0(-t) G(U0(t) psi), with psi = phi and
    psi = F phi: the first applies G along the free flow of phi, the second
    along the backward flow of F phi.  F is unitary, so the refinement
    deltas and tail estimates of K_sign(phi) are those of its transform.
    """
    left = born_integral(phi, sign, sigma, q_left)
    right = born_integral(forward_fourier(phi), -sign, sigma, q_right)
    return (replace(left, field=forward_fourier(left.field)),
            replace(right, field=right.field.with_values(-right.field.values)))


def corollary2_sides(phi: ComplexField, sign: int, q: QuadratureSpec) -> tuple:
    """Both sides of the critical expansion identity F K_s(phi) =
    -K_{-s}(F phi) at sigma = 2/n, the first-order term of Theorem 1's
    F W_s^{-1} = W_{-s} F: F K_sign(phi) and -K_{-sign}(F phi), both on
    phi's dual grid; the caller compares.
    """
    return _sides(phi, sign, 2.0 / phi.grid.dim, q, q)


def _check_subcritical_window(n: int, sigma: float):
    """Raise ValueError unless the weighted identities hold for (n, sigma)."""
    if not (1.0 / n < sigma < 2.0 / n):
        raise ValueError(f"sigma={sigma} outside validity window (1/n, 2/n)")
    if n == 2 and not (sigma > 2.0 / (n + 2)):
        raise ValueError(f"sigma={sigma} must exceed 2/(n+2) for n=2")


def subcritical_sides(
    phi: ComplexField, sign: int, sigma: float, q: QuadratureSpec
) -> tuple:
    """The two weighted sub-critical identities, four integrals in all.

    Each identity pairs F K_sign(phi) with -K_{-sign}(F phi), as
    ``corollary2_sides`` does, with the weight |t|^(n sigma - 2) on one
    side: identity 1 weights the right side, identity 2 the left.  n is the
    dimension of phi's grid.  Valid for 1/n < sigma < 2/n, plus
    sigma > 2/(n+2) when n = 2; any other sigma is a ValueError.
    """
    n = phi.grid.dim
    _check_subcritical_window(n, sigma)
    plain = replace(q, singular_exponent=0.0)
    weighted = replace(q, singular_exponent=n * sigma - 2.0)
    return (_sides(phi, sign, sigma, plain, weighted),
            _sides(phi, sign, sigma, weighted, plain))


def scalar_weighted_integral(fn, a, t_max, panels):
    """Quadrature of t^a * fn(t) over [0, t_max] through the exact same panel
    and substitution machinery, using a constant 8-point field; scalar
    oracles with known closed forms pin the substitution down."""
    grid = GridDescriptor.centered((8,), (1.0,))
    ones = ComplexField(grid, np.ones(8))
    rows = lambda ts: np.array([fn(abs(t)) for t in ts])[:, None] * ones.values
    spec = QuadratureSpec(t_max=t_max, panels=panels, singular_exponent=a)
    out = _quad_panels(rows, ones, +1, spec, panels)
    return complex(out.values[0])
