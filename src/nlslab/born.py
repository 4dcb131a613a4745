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
and geometrically in the tail.  A singular endpoint weight |t|^a with
a in (-1, 0) is removed exactly by the substitution t = s^(1/(1+a)), under
which t^a dt = ds/(1+a).  The part of the half line beyond t_max is
estimated, not bounded: ``_tail_bound`` extrapolates the algebraic decay
from a single sample at 0.995 t_max.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (
    FREQUENCY,
    ComplexField,
    GridDescriptor,
    _reflect_values,
    _unit_phase,
    forward_fourier,
    free_propagate,
    l2_norm,
    spectral_plan,
)
from .errors import ConvergenceError

GL_NODES = 10
T_SWITCH = 1.0


@dataclass(frozen=True)
class QuadratureSpec:
    """Half-line quadrature plan.

    tail_exponent_hint overrides the decay exponent n*sigma used for the
    tail estimate; singular_exponent is the endpoint weight power a
    (0 for unweighted integrals).
    """

    t_max: float = 400.0
    panels: int = 48
    tail_exponent_hint: float | None = None
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
    field: ComplexField
    refinement_delta: float
    tail_bound: float


def nonlinear_flow(phi: ComplexField, t: float, sigma: float) -> ComplexField:
    """|U0(t) phi|^(2 sigma) * U0(t) phi, evaluated directly."""
    u = free_propagate(phi, t)
    return u.with_values(np.abs(u.values) ** (2.0 * sigma) * u.values)


def _power_nonlinearity(values, sigma):
    return np.abs(values) ** (2.0 * sigma) * values


def _chirp_transform(plan, a, t):
    """F(M_t a) on the dual grid, for samples ``a`` on ``plan.grid``."""
    return plan.forward(a * _unit_phase(0.5 * plan.r2 / t))


def flow_integrand(phi: ComplexField, t: float, sigma: float) -> ComplexField:
    """U0(-t) G(U0(t) phi) on phi's grid, stable for arbitrarily large |t|.

    For |t| <= T_SWITCH the operators are applied literally.  Beyond that,
    U0(-t) M_t D_t = M_{-t} R F and the G/D homogeneity give
    |t|^(-n sigma) M_{-t} R F [ G(F M_t phi) ] with no dilation left.
    """
    n = phi.grid.dim
    plan = spectral_plan(phi.grid)
    if abs(t) <= T_SWITCH:
        # the flow acts on phi as a function of its own variable, whatever
        # the tag says; conjugation through the transform handles that
        m = plan.free_multiplier(t)
        u = np.fft.ifftn(np.fft.fftn(phi.shaped) * m)
        g = _power_nonlinearity(u, sigma)
        return phi.with_values(np.fft.ifftn(np.fft.fftn(g) * np.conj(m)))
    inner = _chirp_transform(plan, phi.shaped, t)
    g = _power_nonlinearity(inner, sigma)
    back = _reflect_values(spectral_plan(plan.dual).forward(g))
    scale = abs(t) ** (-n * sigma)
    return phi.with_values(scale * (back * _unit_phase(0.5 * plan.r2 / -t)))


def expansion_lhs_integrand(phi: ComplexField, t: float, sigma: float) -> ComplexField:
    """exp(i t |xi|^2/2) F[ G(U0(t) phi) ], a field on phi's dual grid.

    The factorized branch uses M_{1/t} F M_t D_t = U0(1/t) (free-group
    factorization read backwards), giving |t|^(-n sigma) U0(1/t) G(F M_t phi).
    """
    n = phi.grid.dim
    plan = spectral_plan(phi.grid)
    dual = plan.dual
    if abs(t) <= T_SWITCH:
        g = _power_nonlinearity(plan.propagate(phi.shaped, t), sigma)
        ghat = plan.forward(g)
        if t != 0.0:
            # M_{1/t} on the dual grid's own coordinates
            ghat *= _unit_phase(0.5 * spectral_plan(dual).r2 / (1.0 / t))
        return ComplexField(dual, ghat.reshape(-1), FREQUENCY)
    inner = _chirp_transform(plan, phi.shaped, t)
    g = _power_nonlinearity(inner, sigma)
    # U0(1/t) acts on G as a function of its own variable: conjugate through
    # the next transform rather than multiplying on the current coordinates
    out = spectral_plan(dual).propagate(g, 1.0 / t)
    scale = abs(t) ** (-n * sigma)
    return ComplexField(dual, (scale * out).reshape(-1), FREQUENCY)


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


def _quad_panels(evaluator, sign, spec: QuadratureSpec, panels):
    """sign-oriented integral of |t|^a * evaluator(sign*t) over [0, t_max]."""
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
        acc = None
        for x, w in zip(nodes, weights):
            fld = evaluator(sign * (mid + half * x) ** (1.0 / p))
            contrib = (w * half / p) * fld.values
            acc = contrib if acc is None else acc + contrib
        total = total + acc
    return ComplexField(fld.grid, sign * total, fld.space)


def _tail_bound(evaluator, sign, spec: QuadratureSpec, n_sigma):
    decay = spec.tail_exponent_hint if spec.tail_exponent_hint else n_sigma
    q = decay - spec.singular_exponent
    if q <= 1.0:
        raise ConvergenceError(
            f"integrand tail |t|^{spec.singular_exponent - decay:.3g} is not "
            "integrable: need decay - singular_exponent > 1"
        )
    t_cal = 0.995 * spec.t_max
    w_norm = t_cal**spec.singular_exponent * l2_norm(evaluator(sign * t_cal))
    c = w_norm * t_cal**q
    return c * spec.t_max ** (1.0 - q) / (q - 1.0)


def _refined_quadrature(evaluator, sign, spec, n_sigma):
    coarse = _quad_panels(evaluator, sign, spec, spec.panels)
    fine = _quad_panels(evaluator, sign, spec, 2 * spec.panels)
    delta = float(
        np.sqrt(fine.grid.cell_volume * np.sum(np.abs(fine.values - coarse.values) ** 2))
    )
    tail = _tail_bound(evaluator, sign, spec, n_sigma)
    return QuadratureResult(fine, delta, tail)


def born_integral(
    phi: ComplexField, sign: int, sigma: float, q: QuadratureSpec
) -> QuadratureResult:
    """Oriented integral of U0(-t) G(U0(t) phi) dt from 0 to sign*infinity,
    truncated at t_max with an extrapolated algebraic tail estimate.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    n = phi.grid.dim
    if n * sigma - q.singular_exponent <= 1.0 and q.tail_exponent_hint is None:
        raise ConvergenceError(f"n*sigma = {n * sigma} <= 1 + a: tail diverges")
    ev = lambda t: flow_integrand(phi, t, sigma)
    return _refined_quadrature(ev, sign, q, n * sigma)


def corollary2_sides(phi: ComplexField, sign: int, q: QuadratureSpec) -> tuple:
    """Both sides of the critical expansion identity, independently pipelined.

    Left route: nonlinear flow -> transform -> quadratic-phase multiply.
    Right route: transform first -> backward free flow -> nonlinearity ->
    forward free flow.  Both land on phi's dual grid; the caller compares.
    """
    n = phi.grid.dim
    sigma = 2.0 / n
    phihat = forward_fourier(phi)
    lhs_ev = lambda t: expansion_lhs_integrand(phi, t, sigma)
    rhs_ev = lambda t: flow_integrand(phihat, -t, sigma)
    lhs = _refined_quadrature(lhs_ev, sign, q, n * sigma)
    rhs = _refined_quadrature(rhs_ev, sign, q, n * sigma)
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
    lhs_ev = lambda t: expansion_lhs_integrand(phi, t, sigma)
    rhs_ev = lambda t: flow_integrand(phihat, -t, sigma)
    plain = replace(q, singular_exponent=0.0)
    weighted = replace(q, singular_exponent=a)
    identity1 = (
        _refined_quadrature(lhs_ev, sign, plain, n * sigma),
        _refined_quadrature(rhs_ev, sign, weighted, n * sigma),
    )
    identity2 = (
        _refined_quadrature(lhs_ev, sign, weighted, n * sigma),
        _refined_quadrature(rhs_ev, sign, plain, n * sigma),
    )
    return identity1, identity2


def scalar_weighted_integral(fn, a, t_max, panels):
    """Quadrature of t^a * fn(t) over [0, t_max] through the exact same panel
    and substitution machinery, using a constant 8-point field; scalar
    oracles with known closed forms pin the substitution down."""
    grid = GridDescriptor.centered((8,), (1.0,))
    ones = np.ones(8, dtype=np.complex128)
    ev = lambda t: ComplexField(grid, fn(abs(t)) * ones, "position")
    spec = QuadratureSpec(t_max=t_max, panels=panels, singular_exponent=a)
    out = _quad_panels(ev, +1, spec, panels)
    return complex(out.values[0])
