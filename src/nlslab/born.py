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

Every quadrature integrates both orientations at once, the integral to
+infinity and the one to -infinity, as a +/- pair: the phase of a node at
-t (the free multiplier near zero, the chirp M_t beyond T_SWITCH) is the
conjugate of the phase at +t to the bit, so one cos/sin array serves both
rows.  The pair joins K_+(psi) with K_-(psi), which belong to different
identities; the two sides of one identity, psi = phi and psi = F phi,
share nothing.  Rows are evaluated on raw FFT-order arrays, transformed
by the plan's ``fft``/``ifft`` over the grid axes of the whole block: the
far rows take the transforms' prefactors and no shift or sign multiply,
since the alternating signs of a grid and of its dual are the same array
and cancel, and a shift is a permutation undone before any step that is
not elementwise.

Quadrature is composite Gauss-Legendre in two uniform halves, which meet
at T_SWITCH, so no panel mixes the two row routes.  The near half is
uniform in u = t^(1+a): a singular endpoint weight |t|^a with a in (-1, 0)
is removed exactly, since t^a dt = du/(1+a).  Beyond T_SWITCH the rows are
|t|^(-n sigma) times a function that is smooth in s = 1/t, so the far half
is uniform in r = s^q, q = n sigma - a - 1, which turns t^a times that
decay into a smooth integrand in r; ``panels`` counts the panels of both
halves.  Each panel's GL_NODES nodes are evaluated in both orientations as
one (2, GL_NODES, *counts) block, with batched transforms along the grid
axes; one panel is held at a time, so a temporary costs 2 GL_NODES complex
samples per grid point (~21 MB on a 2D 256^2 grid).  The half line is
truncated at t_max, and the part beyond it is estimated, not bounded:
``_tail_bound`` samples the integrand at 0.5 and 0.995 t_max and
extrapolates the algebraic decay with the smaller of the measured and the
assumed exponent.
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
# Most panels a quadrature may have (256x the default of every experiment,
# 16); the fine pass runs twice as many.  A larger count is a ValueError
# before any panel edge is built.
MAX_PANELS = 4096
# The orientations of every integral pair, in the order results come back.
ORIENTATIONS = (+1, -1)


@dataclass(frozen=True)
class QuadratureSpec:
    """Half-line quadrature plan on [0, t_max].

    panels counts every panel of the rule: panels // 2 near ones, uniform
    in t^(1+a) on [0, T_SWITCH], and the rest far ones, uniform in a power
    of s = 1/t on [1/t_max, 1/T_SWITCH] (all near when t_max <= T_SWITCH).
    A weighted rule adds 12 cascade panels near zero.  singular_exponent is
    the endpoint weight power a (0 for unweighted integrals).
    """

    t_max: float = 400.0
    panels: int = 48
    singular_exponent: float = 0.0

    def __post_init__(self):
        if not 4 <= self.panels <= MAX_PANELS:
            raise ValueError(f"panels must lie in [4, MAX_PANELS = {MAX_PANELS}], "
                             f"got {self.panels}")
        if not (self.t_max > 0):
            raise ValueError("t_max must be positive")
        if not (self.singular_exponent > -1.0):
            raise ValueError("singular exponent must exceed -1 for integrability")


@dataclass(frozen=True)
class QuadratureResult:
    """An integral with its error estimates.

    decay_exponent is the decay of the integrand norm measured between the
    two tail samples (nan when both vanish); evaluations counts the
    integrand rows evaluated in this integral's orientation, tail samples
    included.
    """

    field: ComplexField
    refinement_delta: float
    tail_bound: float
    decay_exponent: float
    evaluations: int


def _column(ts, dim):
    """``ts`` as a column that broadcasts against rows of a dim-D grid."""
    return ts.reshape((-1,) + (1,) * dim)


def _phase_pair(w):
    """exp(i w) and exp(-i w) as one (2, *w.shape) array; the second is the
    conjugate of the first, which is exp(-i w) to the bit (cos is even and
    sin odd in numpy)."""
    pair = np.empty((2,) + w.shape, dtype=np.complex128)
    _unit_phase(w, out=pair[0])
    np.conj(pair[0], out=pair[1])
    return pair


def _apply_density_power(pair, sigma):
    """pair *= |pair|^(2 sigma), one orientation at a time, which halves
    the real temporaries of the density."""
    for part in pair:
        part *= _density_power(part, sigma)


def _flow_near(us, spectrum, plan, sigma):
    # U0(t) = ifftn m_t fftn with m_t = exp(-i t |xi|^2 / 2), and
    # U0(-t) multiplies by the conjugate: phase[::-1] conjugates the pair
    phase = _phase_pair(_column(-0.5 * us, plan.grid.dim) * plan.xi2)
    g = spectrum * phase
    plan.ifft(g, g)
    _apply_density_power(g, sigma)
    return plan.apply_multiplier(g, phase[::-1], g, g)


def _flow_far(us, values, plan, sigma):
    # plan.forward and the dual plan's inverse, less their shifts and sign
    # multiplies, which cancel exactly
    n = plan.grid.dim
    dual = spectral_plan(plan.dual)
    chirp = _phase_pair(0.5 * plan.r2 / _column(us, n))
    g = values * chirp
    plan.fft(g, g)
    g *= plan.prefactor
    _apply_density_power(g, sigma)
    plan.ifft(g, g)
    g *= dual.prefactor * dual.grid.size
    g *= chirp[::-1]
    g *= _column(us ** -(n * sigma), n)
    return g


def _flow_rows(phi: ComplexField, sigma):
    """The row evaluator of U0(-t) G(U0(t) phi) on phi's grid.

    ``rows(us)`` takes times us >= 0 and returns a (2, len(us), *counts)
    block: the rows at t = +u, then at t = -u.  For |t| <= T_SWITCH the
    operators are applied literally.  Beyond that, U0(-t) M_t D_t =
    M_{-t} R F = M_{-t} F^{-1} and the G/D homogeneity give
    |t|^(-n sigma) M_{-t} F^{-1} [ G(F M_t phi) ] with no dilation left.
    One cos/sin array serves the four phases of a node: U0(-t) and M_{-t}
    are the conjugates of U0(t) and M_t.  The datum's transform is taken
    once per evaluator.  T_SWITCH is read at call time.
    """
    plan = spectral_plan(phi.grid)
    spectrum = plan.fft(phi.values)

    def rows(us):
        us = np.asarray(us, dtype=np.float64)
        near = us <= T_SWITCH
        if near.all():
            return _flow_near(us, spectrum, plan, sigma)
        if not near.any():
            return _flow_far(us, phi.values, plan, sigma)
        out = np.empty((2,) + us.shape + phi.grid.counts, dtype=np.complex128)
        out[:, near] = _flow_near(us[near], spectrum, plan, sigma)
        out[:, ~near] = _flow_far(us[~near], phi.values, plan, sigma)
        return out

    return rows


def _panels(t_max, panels, a, n_sigma):
    """The panels of the rule for |t|^a f(t) on [0, t_max], each as the
    GL_NODES times and weights of its nodes, with |t|^a and every Jacobian
    folded into the weights; f is assumed to decay like |t|^(-n_sigma).

    The near half, panels // 2 of them, is uniform in u = t^(1+a) on
    [0, T_SWITCH], where t^a dt = du/(1+a); for a != 0 its first panel is
    cascaded geometrically into 13.  The far half, the rest, is uniform in
    r = s^q on [(1/t_max)^q, (1/T_SWITCH)^q], with s = 1/t and
    q = n_sigma - a - 1 > 0: there t^a dt = s^(-a-2) ds, and
    f = s^n_sigma H(s) with H smooth in s turns into H/q dr.  No panel
    straddles T_SWITCH, so each takes one row route.  When
    t_max <= T_SWITCH every panel is near, on [0, t_max].
    """
    nodes, weights = np.polynomial.legendre.leggauss(GL_NODES)
    p = 1.0 + a
    n_near = panels if t_max <= T_SWITCH else panels // 2
    edges = np.linspace(0.0, min(t_max, T_SWITCH) ** p, n_near + 1)
    if a != 0.0:
        # the substituted integrand is bounded but only Hoelder at u = 0;
        # cascade the first panel geometrically so each sub-panel sees a
        # smooth relative variation
        cascade = edges[1] * 10.0 ** -np.arange(12.0, 0.0, -1.0)
        edges = np.concatenate([[0.0], cascade, edges[1:]])
    for ua, ub in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (ua + ub), 0.5 * (ub - ua)
        yield (mid + half * nodes) ** (1.0 / p), weights * half / p
    if n_near == panels:
        return
    q = n_sigma - a - 1.0
    edges = np.linspace(t_max ** -q, T_SWITCH ** -q, panels - n_near + 1)
    for ra, rb in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (ra + rb), 0.5 * (rb - ra)
        s = (mid + half * nodes) ** (1.0 / q)
        # s^(-a-2) ds/dr = s^(-n_sigma) / q
        yield 1.0 / s, weights * half * s ** -n_sigma / q


def _panel_sum(block, weights):
    """Sum over the nodes of a (2, GL_NODES, *counts) ``block`` with the
    node ``weights``, in node order, in place on the block."""
    block *= _column(weights, block.ndim - 2)
    for j in range(1, len(weights)):
        block[:, 0] += block[:, j]
    return block[:, 0]


def _quad_panels(rows, template, spec: QuadratureSpec, panels, n_sigma):
    """Both oriented integrals of |t|^a * rows over [0, t_max] on the
    ``panels`` of ``_panels``, on the grid of ``template``: for each sign of
    ORIENTATIONS, sign times the integral of that orientation's rows.

    ``rows(us)`` returns a (2, len(us), *counts) block, the rows at +u and
    at -u; each panel's GL_NODES times go in one call, and the block is
    consumed in place.
    """
    # a fixed order keeps results bitwise reproducible: nodes are summed
    # within a panel, then panels into a zero total
    total = 0.0
    for ts, ws in _panels(spec.t_max, panels, spec.singular_exponent, n_sigma):
        # the block is dropped before the next panel's rows are built
        total = total + _panel_sum(rows(ts), ws)
    return tuple(template.with_values(sign * part)
                 for sign, part in zip(ORIENTATIONS, total))


def _tail_bound(rows, template, spec: QuadratureSpec, n_sigma):
    """Estimate of each orientation's norm beyond t_max, with its measured
    decay, as (tail, decay) per sign of ORIENTATIONS.

    The integrand norm is sampled at 0.5 and 0.995 t_max; the algebraic
    decay is extrapolated from the later sample with the smaller of the
    measured and the assumed exponent.
    """
    a = spec.singular_exponent
    t_mid, t_cal = 0.5 * spec.t_max, 0.995 * spec.t_max
    block = rows(np.array([t_mid, t_cal]))
    out = []
    for part in block:
        norm_mid, norm_cal = np.sqrt(
            template.grid.cell_volume * np.sum(np.abs(part.reshape(2, -1)) ** 2, axis=1)
        )
        if norm_cal == 0.0:
            out.append((0.0, float("nan")))
            continue
        measured = float(np.log(norm_mid / norm_cal) / np.log(t_cal / t_mid))
        q = min(measured, n_sigma) - a
        if not q > 1.0:
            raise ConvergenceError(
                f"measured integrand tail |t|^{a - measured:.3g} is not "
                "integrable: need decay - singular_exponent > 1"
            )
        c = t_cal**a * norm_cal * t_cal**q
        out.append((float(c * spec.t_max ** (1.0 - q) / (q - 1.0)), measured))
    return out


def _refined_quadrature(rows, template, spec, n_sigma):
    """Both oriented integrals on ``spec.panels`` and twice as many panels,
    with their tail estimates; an integrand whose assumed decay
    |t|^-n_sigma leaves the weighted tail non-integrable is rejected before
    any panel runs."""
    a = spec.singular_exponent
    if n_sigma - a <= 1.0:
        raise ConvergenceError(
            f"integrand tail |t|^{a - n_sigma:.3g} is not "
            "integrable: need decay - singular_exponent > 1"
        )
    evaluations = 0

    def counted(us):
        # one time is one row in each orientation
        nonlocal evaluations
        evaluations += len(us)
        return rows(us)

    coarse = _quad_panels(counted, template, spec, spec.panels, n_sigma)
    fine = _quad_panels(counted, template, spec, 2 * spec.panels, n_sigma)
    tails = _tail_bound(counted, template, spec, n_sigma)
    return tuple(QuadratureResult(f, l2_difference(f, c), tail, decay, evaluations)
                 for f, c, (tail, decay) in zip(fine, coarse, tails))


def born_integral(phi: ComplexField, sigma: float, q: QuadratureSpec) -> tuple:
    """The oriented integrals of U0(-t) G(U0(t) phi) dt from 0 to
    sign*infinity, for each sign of ORIENTATIONS (K_+, then K_-), each
    truncated at t_max with an extrapolated algebraic tail estimate.
    """
    return _refined_quadrature(_flow_rows(phi, sigma), phi, q, phi.grid.dim * sigma)


def _sides(phi, sigma, q_left, q_right):
    """For each sign s of ORIENTATIONS, F K_s(phi) under ``q_left`` and
    -K_{-s}(F phi) under ``q_right``, where K_s is the oriented integral of
    ``born_integral``.

    Both are one quadrature of U0(-t) G(U0(t) psi), with psi = phi and
    psi = F phi: the first applies G along the free flow of phi, the second
    along the backward flow of F phi.  F is unitary, so the refinement
    deltas and tail estimates of K_s(phi) are those of its transform.
    """
    left = born_integral(phi, sigma, q_left)
    right = born_integral(forward_fourier(phi), sigma, q_right)
    return tuple((replace(lhs, field=forward_fourier(lhs.field)),
                  replace(rhs, field=rhs.field.with_values(-rhs.field.values)))
                 for lhs, rhs in zip(left, right[::-1]))


def corollary2_sides(phi: ComplexField, q: QuadratureSpec) -> tuple:
    """Both sides of the critical expansion identity F K_s(phi) =
    -K_{-s}(F phi) at sigma = 2/n, the first-order term of Theorem 1's
    F W_s^{-1} = W_{-s} F: for each sign s of ORIENTATIONS, the pair
    (F K_s(phi), -K_{-s}(F phi)), both on phi's dual grid; the caller
    compares.
    """
    return _sides(phi, 2.0 / phi.grid.dim, q, q)


def _check_subcritical_window(n: int, sigma: float):
    """Raise ValueError unless the weighted identities hold for (n, sigma)."""
    if not (1.0 / n < sigma < 2.0 / n):
        raise ValueError(f"sigma={sigma} outside validity window (1/n, 2/n)")
    if n == 2 and not (sigma > 2.0 / (n + 2)):
        raise ValueError(f"sigma={sigma} must exceed 2/(n+2) for n=2")


def subcritical_sides(phi: ComplexField, sigma: float, q: QuadratureSpec) -> tuple:
    """The two weighted sub-critical identities, for each sign of
    ORIENTATIONS: ((identity 1 sides), (identity 2 sides)) per sign.

    Each identity pairs F K_s(phi) with -K_{-s}(F phi), as
    ``corollary2_sides`` does, with the weight |t|^(n sigma - 2) on one
    side: identity 1 weights the right side, identity 2 the left.  n is the
    dimension of phi's grid.  Valid for 1/n < sigma < 2/n, plus
    sigma > 2/(n+2) when n = 2; any other sigma is a ValueError.
    """
    n = phi.grid.dim
    _check_subcritical_window(n, sigma)
    plain = replace(q, singular_exponent=0.0)
    weighted = replace(q, singular_exponent=n * sigma - 2.0)
    return tuple(zip(_sides(phi, sigma, plain, weighted),
                     _sides(phi, sigma, weighted, plain)))


def scalar_weighted_integral(fn, a, t_max, panels, decay=2.0):
    """Quadrature of t^a * fn(t) over [0, t_max] through the exact same panel
    and substitution machinery, using a constant 8-point field; scalar
    oracles with known closed forms pin the substitution down.  ``decay`` is
    the exponent n_sigma of the far half's substitution, which is exact for
    an fn that decays like t^-decay times a smooth function of 1/t; the
    default is that of every critical integrand."""
    grid = GridDescriptor.centered((8,), (1.0,))
    ones = ComplexField(grid, np.ones(8))

    def rows(us):
        column = np.array([fn(t) for t in us])[:, None] * ones.values
        return np.stack([column, column])

    spec = QuadratureSpec(t_max=t_max, panels=panels, singular_exponent=a)
    plus, _ = _quad_panels(rows, ones, spec, panels, decay)
    return complex(plus.values[0])
