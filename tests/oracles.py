"""Independent oracles used by the test suite.

Everything here deliberately avoids the package's FFT pipeline: transforms
are dense sums, integrals are trapezoid sums, free-flow references come
from closed-form Gaussian solutions, and nonlinear references from the
focusing quintic's ground state, its Galilean boosts and its
pseudo-conformal blow-up, all in closed form.  The one exception is
``graded_quadrature``, the half-line panel layout that the package used
before its far panels moved to s = 1/t: it takes the package's row
evaluator, so it is a reference for the layout, not for the rows.
"""

import numpy as np

SQRT_PI = float(np.sqrt(np.pi))
PI_QUARTER = float(np.pi**0.25)  # L2 norm of exp(-x^2/2)


def direct_transform_1d(x, fx, xi, oversample_from=None):
    """(2pi)^{-1/2} * h * sum_j f(x_j) exp(-i x_j xi_k), dense summation.

    If ``oversample_from`` is (fn, factor), the sum instead uses ``fn``
    sampled on a ``factor`` times finer grid covering the same domain, which
    gives an FFT-free reference at higher resolution.
    """
    if oversample_from is not None:
        fn, factor = oversample_from
        n = len(x) * factor
        h = (x[1] - x[0]) / factor
        x = x[0] + h * np.arange(n)
        fx = fn(x)
    h = x[1] - x[0]
    kernel = np.exp(-1j * np.outer(xi, x))
    return (2.0 * np.pi) ** -0.5 * h * kernel.dot(fx)


def direct_inverse_transform_1d(xi, fxi, x):
    dxi = xi[1] - xi[0]
    kernel = np.exp(1j * np.outer(x, xi))
    return (2.0 * np.pi) ** -0.5 * dxi * kernel.dot(fxi)


def gaussian_free_solution(x, t, width=1.0, amplitude=1.0, wavenumber=0.0):
    """Closed-form free flow of a*exp(-x^2/(2 w^2))*exp(i k x) (1d).

    Obtained by completing the square in the Fourier integral; the complex
    square root is principal.
    """
    w2 = width * width
    a = w2 + 1j * t
    envelope = width * a ** -0.5 * np.exp(-((x - wavenumber * t) ** 2) / (2.0 * a))
    carrier = np.exp(1j * (wavenumber * x - 0.5 * wavenumber**2 * t))
    return amplitude * envelope * carrier


def gaussian_free_solution_nd(coords, t, width=1.0, amplitude=1.0):
    """Product closed form in n dimensions for a radial Gaussian."""
    out = amplitude
    for c in coords:
        out = out * gaussian_free_solution(c, t, width=width)
    return out


def ground_state(x):
    """Q(x) = 3^{1/4} sech^{1/2}(2 sqrt(2) x), which solves Q'' = 2Q - 2Q^5:
    e^{it} Q solves i u_t + u_xx / 2 = mu |u|^4 u at mu = -1 (1d)."""
    return 3.0**0.25 / np.sqrt(np.cosh(2.0 * np.sqrt(2.0) * x))


GROUND_STATE_MASS = float(np.pi * np.sqrt(3.0) / (2.0 * np.sqrt(2.0)))  # ||Q||^2


def boosted_soliton(x, t, wavenumber=0.0, start=0.0):
    """The Galilean boost of e^{it} Q: it starts at ``start`` and moves at
    speed ``wavenumber``, with the carrier exp(i (k x - k^2 t / 2))."""
    k = wavenumber
    return np.exp(1j * (k * x - 0.5 * k * k * t + t)) * ground_state(x - start - k * t)


def blowup_solution(x, t):
    """The pseudo-conformal image of e^{i tau} Q, tau = -1/t:
    (it)^{-1/2} exp(i x^2 / (2t) - i / t) Q(x / t), an exact solution of the
    same equation for t != 0, which blows up as t -> 0."""
    return ((1j * t) ** -0.5 * np.exp(1j * (0.5 * x * x / t - 1.0 / t))
            * ground_state(x / t))


def trapezoid_l2(x, fx):
    return float(np.sqrt(np.trapezoid(np.abs(fx) ** 2, x)))


def cumulative_trapezoid(y, dx):
    out = np.zeros_like(np.asarray(y, dtype=float))
    out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1])) * dx
    return out


def graded_quadrature(rows, a, t_max, panels):
    """Both oriented integrals of |t|^a rows(t) over [0, t_max] on the
    linear-then-geometric panels: linear on [0, t_max] when t_max <= 8,
    otherwise max(4, panels // 4) linear panels up to min(1, t_max / 4) and
    geometric ones beyond, each of 10 Gauss-Legendre nodes and mapped to
    u = t^(1+a), where t^a dt = du/(1+a), and the first one cascaded
    geometrically into 13 when a != 0.  ``rows(us)`` returns the
    (2, len(us), ...) block of the rows at +u and -u; the result is
    (integral at +, -(integral at -)).
    """
    if t_max <= 8.0:
        edges = np.linspace(0.0, t_max, panels + 1)
    else:
        t_break = min(1.0, t_max / 4.0)
        n_lin = max(4, panels // 4)
        lin = np.linspace(0.0, t_break, n_lin + 1)
        log = np.geomspace(t_break, t_max, panels - n_lin + 1)[1:]
        edges = np.concatenate([lin, log])
    p = 1.0 + a
    edges = edges**p
    if a != 0.0:
        edges = np.concatenate([[0.0], edges[1] * 10.0 ** -np.arange(12.0, 0.0, -1.0),
                                edges[1:]])
    x, w = np.polynomial.legendre.leggauss(10)
    total = 0.0
    for ua, ub in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (ua + ub), 0.5 * (ub - ua)
        block = rows((mid + half * x) ** (1.0 / p))
        total = total + np.tensordot(w * half / p, block, axes=([0], [1]))
    return total[0], -total[1]
