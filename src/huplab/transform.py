"""Fourier transforms of measures under the pi-exponent convention.

The transform of a measure d mu = g(t) dt on a parametrized curve is

    mu_hat(xi, eta) = sum_components integral e^{-i pi (x(t) xi + y(t) eta)} g(t) dt

note the factor pi, not 2 pi, in the exponent: it is contractual for every
identity downstream (circle coefficients carry J_k(pi r), annihilating radii
are Bessel zeros divided by pi, and so on).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .expr import EVEN, UNKNOWN, band, parity
from .geometry import CURVE_KINDS, Measure, density_fn, exp_curve, hyperbola_branch, hyperbola_full, spiral
from .quadrature import QuadOpts, QuadratureError, Rows, integrate, integrate_rows, truncate_interval

__all__ = [
    "FTValue",
    "PointFailure",
    "mu_hat",
    "mu_hat_at_points",
    "circle_coeff",
    "lines_mu_hat",
    "convolution_identity",
    "substitution_identity",
    "translation_phase_check",
    "total_variation",
]


@dataclass(frozen=True)
class FTValue:
    value: complex
    err_estimate: float
    truncation_window: tuple[float, float]


class PointFailure(QuadratureError):
    """Quadrature failure tagged with the (xi, eta) point that triggered it."""

    def __init__(self, point: tuple[float, float], inner: Exception):
        super().__init__(f"at point (xi, eta) = ({point[0]:.17g}, {point[1]:.17g}): {inner}")
        self.point = point


def _rows(measure: Measure, comp: int, xi: np.ndarray, eta: np.ndarray, offset) -> Rows:
    """One component's integrands at every point (xi_p, eta_p), on the curve shifted by ``offset``.

    A shifted coordinate keeps its parity if even, or odd with no offset.
    The rows carry the density's band and, on a closed curve, its strip
    growth, which a shift leaves as it is.
    """
    curve, ox, oy = measure.curve, offset[0], offset[1]
    kind, density = CURVE_KINDS[curve.kind], measure.densities[comp]

    def xy(t: np.ndarray):
        x, y = curve.xy(comp, t)
        return x + ox, y + oy

    px, py = kind.parity(curve)
    pu = px if px == EVEN or ox == 0.0 else UNKNOWN
    pv = py if py == EVEN or oy == 0.0 else UNKNOWN
    deriv_sup = lambda lo, hi: curve.deriv_sup(comp, lo, hi)  # noqa: E731
    return Rows(xi, eta, xy, measure.density(comp), deriv_sup, (pu, pv, parity(density)), band(density), kind.strip)


def _transform(
    measure: Measure,
    points: Sequence[tuple[float, float]],
    opts: QuadOpts,
    offset: tuple[float, float] = (0.0, 0.0),
) -> tuple[np.ndarray, np.ndarray, tuple[float, float], Optional[tuple[int, QuadratureError]]]:
    """The transform's values and errors at every point as arrays, its truncation window,
    and the first failure in input order as (index, error), or None."""
    n = len(points)
    xi = np.array([p[0] for p in points], dtype=float)
    eta = np.array([p[1] for p in points], dtype=float)
    bad = np.flatnonzero(~(np.isfinite(xi) & np.isfinite(eta)))
    if bad.size:
        raise ValueError(f"point (xi, eta) = ({xi[bad[0]]:.17g}, {eta[bad[0]]:.17g}) is not finite")
    value, err = np.zeros(n, dtype=np.complex128), np.zeros(n)
    first, failure, windows = n, None, []
    for comp in range(measure.curve.n_components):
        # only the first failure in input order is reported: the points from it on stop
        live = np.arange(first)
        if not live.size:
            break
        rows = _rows(measure, comp, xi[live], eta[live], offset)
        v, e, _, failed, window = integrate_rows(rows, measure.curve.domain(comp), opts, measure.decay)
        if failed:
            first, failure = int(live[failed[0]]), failed[1]
        value[live] += v
        err[live] += e
        windows += [window] if window else []
    lo, hi = min((w[0] for w in windows), default=0.0), max((w[1] for w in windows), default=0.0)
    return value, err, (lo, hi), None if failure is None else (first, failure)


def _one_point(measure: Measure, xi: float, eta: float, opts: QuadOpts, offset=(0.0, 0.0)) -> FTValue:
    value, err, window, failure = _transform(measure, [(xi, eta)], opts, offset)
    if failure:
        raise failure[1]
    return FTValue(value.item(), err.item(), window)


def mu_hat(measure: Measure, xi: float, eta: float, opts: QuadOpts = QuadOpts()) -> FTValue:
    """Evaluate the transform of the measure at one frequency point (a batch of one)."""
    return _one_point(measure, xi, eta, opts)


def total_variation(measure: Measure, opts: QuadOpts = QuadOpts()) -> float:
    """Numerical total variation: the integral of |g| over every component."""
    tv = 0.0
    for comp in range(measure.curve.n_components):
        g = measure.density(comp)

        def integrand(t: np.ndarray, g=g) -> np.ndarray:
            return np.abs(g(t)).astype(np.complex128)

        res = integrate(integrand, measure.curve.domain(comp), opts, envelope=measure.decay)
        tv += res.value.real
    return tv


def mu_hat_columns(
    measure: Measure,
    points: Sequence[tuple[float, float]],
    opts: QuadOpts = QuadOpts(),
) -> tuple[np.ndarray, np.ndarray, tuple[float, float]]:
    """:func:`mu_hat_at_points` as columns: the values (complex128) and the
    error estimates (float64) in input order, and the truncation window.

    For callers that reduce or print many points and need no object per
    point.  Raises as :func:`mu_hat_at_points` does.
    """
    value, err, window, failure = _transform(measure, points, opts)
    if failure:
        first, exc = failure
        raise PointFailure(points[first], exc) from exc
    return value, err, window


def mu_hat_at_points(
    measure: Measure,
    points: Sequence[tuple[float, float]],
    opts: QuadOpts = QuadOpts(),
) -> list[FTValue]:
    """The transform at many points, evaluated together.

    Each component is integrated for all points at once, as one
    :class:`quadrature.Rows` over its whole domain, by
    :func:`quadrature.integrate_rows`.  That engine truncates the domain by
    the measure's decay, chooses the trapezoid rule on a whole period of a
    closed curve, and returns without evaluating a node a component whose
    density is the constant 0, and the points where the parity of its
    expression tree and of the curve show it to integrate to exactly 0;
    tabulated and callable densities are never taken as odd.  Its docstring
    gives how the points share nodes, pre-splits and phase factors, and its
    memory limits.
    ``oscillation_hint``, if set, is a floor on every point's rate.

    Output order matches the input order.  A point's bits depend on the
    point alone, unless the points fill a grid of their distinct xi and eta
    and share one pre-split: then they depend on the set of points, but
    not on their order.  A quadrature failure is raised as a
    :class:`PointFailure` for the first failing point in input order.
    The :class:`FTValue` list is built from the arrays that
    :func:`mu_hat_columns` returns, so the two agree bit for bit.
    """
    value, err, window = mu_hat_columns(measure, points, opts)
    return [FTValue(v, e, window) for v, e in zip(value.tolist(), err.tolist())]


def circle_coeff(
    f,
    k: int,
    opts: QuadOpts = QuadOpts(),
) -> FTValue:
    """k-th Fourier coefficient (1/2pi) integral_{-pi}^{pi} f(theta) e^{-ik theta} dtheta.

    ``f`` is a density on [-pi, pi): an expression tree, tabulated samples,
    or a vectorized callable.
    """
    fn = density_fn(f)
    hint = float(abs(k)) + (opts.oscillation_hint or 0.0)

    def integrand(theta: np.ndarray) -> np.ndarray:
        return np.asarray(fn(theta), dtype=np.complex128) * np.exp(-1j * k * theta)

    res = integrate(integrand, (-math.pi, math.pi), replace(opts, oscillation_hint=hint))
    norm = 2.0 * math.pi
    return FTValue(res.value / norm, res.err_estimate / norm, res.window)


def lines_mu_hat(
    fhat: Sequence[Callable[[float], complex]],
    p: int,
    xi: float,
    eta: float,
) -> complex:
    """Four-lines transform fhat0 + e^{i pi eta} fhat1 + e^{2 i pi eta} fhat2 + e^{i p pi eta} fhat3."""
    if p < 3:
        raise ValueError("p must be an integer >= 3")
    if len(fhat) != 4:
        raise ValueError("need exactly four evaluators")
    phases = (1.0, cmath.exp(1j * math.pi * eta), cmath.exp(2j * math.pi * eta), cmath.exp(1j * p * math.pi * eta))
    return sum(w * complex(h(xi)) for w, h in zip(phases, fhat))


def convolution_identity(
    measure: Measure, s: float, opts: QuadOpts = QuadOpts()
) -> tuple[complex, complex]:
    """Transform on the mirror-curve point versus the convolution form.

    For a spiral measure the evaluation point is (e^s cos s, e^s sin s) and
    the kernel is K(u) = e^{-i pi e^u cos u}; for a hyperbola branch the
    point is (cosh s, -sinh s) and K(u) = e^{-i pi cosh u}.  Both sides equal
    integral_0^inf K(s - t) g(t) dt analytically; they are computed by
    independent quadratures here.
    """
    curve = measure.curve
    if curve == spiral():
        point = (math.exp(s) * math.cos(s), math.exp(s) * math.sin(s))

        def kernel(u: np.ndarray) -> np.ndarray:
            return np.exp(-1j * math.pi * np.exp(u) * np.cos(u))

        def kernel_rate(u_lo: float, u_hi: float) -> float:
            return math.sqrt(2.0) * math.pi * math.exp(u_hi)

    elif curve == hyperbola_branch():
        point = (math.cosh(s), -math.sinh(s))

        def kernel(u: np.ndarray) -> np.ndarray:
            return np.exp(-1j * math.pi * np.cosh(u))

        def kernel_rate(u_lo: float, u_hi: float) -> float:
            return math.pi * math.sinh(max(abs(u_lo), abs(u_hi)))

    else:
        raise ValueError(f"convolution identity needs a spiral or hyperbola-branch measure, got {curve.kind}")
    direct = mu_hat(measure, point[0], point[1], opts)
    window = truncate_interval(measure.curve.domain(0), measure.decay, opts)
    if window is None:
        return direct.value, 0j
    g = measure.density(0)

    def conv_integrand(t: np.ndarray) -> np.ndarray:
        return kernel(s - t) * g(t)

    local = replace(opts, oscillation_hint=kernel_rate(s - window[1], s - window[0]))
    conv = integrate(conv_integrand, measure.curve.domain(0), local, envelope=measure.decay)
    return direct.value, conv.value


def _arccosh1p(v: np.ndarray) -> np.ndarray:
    # arccosh(1 + v^2), accurate for small v
    return np.log1p(v * v + v * np.sqrt(2.0 + v * v))


def substitution_identity(
    measure: Measure, y: float, opts: QuadOpts = QuadOpts()
) -> tuple[complex, complex]:
    """One-frequency transform versus its u = alpha(t) substituted form.

    For the exponential curve (alpha = e^{t^2}) and the full hyperbola
    (alpha = cosh t), the direct side integral e^{-i pi y alpha(t)} g(t) dt,
    which is mu_hat(0, y) and mu_hat(y, 0) respectively,
    equals integral_1^inf e^{-i pi y u} phi(u) du with
    phi(u) = F(alpha^{-1}(u)) / alpha'(alpha^{-1}(u)), F(t) = g(t) + g(-t).
    The substituted side is computed under u = 1 + v^2, which removes the
    u -> 1+ endpoint singularity analytically.
    """
    curve = measure.curve
    if curve not in (exp_curve(), hyperbola_full()):
        raise ValueError(f"substitution identity needs exp-curve or hyperbola-full, got {curve.kind}")
    g = measure.density(0)
    window = truncate_interval((-math.inf, math.inf), measure.decay, opts)
    t_max = max(abs(window[0]), abs(window[1]))

    if curve == exp_curve():
        direct = mu_hat(measure, 0.0, y, opts)
        v_max = math.sqrt(max(math.expm1(min(t_max * t_max, 700.0)), 1e-30))

        def sub_integrand(v: np.ndarray) -> np.ndarray:
            u = 1.0 + v * v
            lg = np.log1p(v * v)
            root = np.sqrt(lg)
            f_val = g(root) + g(-root)
            return np.exp(-1j * math.pi * y * u) * f_val * v / (u * root)

    else:
        direct = mu_hat(measure, y, 0.0, opts)
        v_max = math.sqrt(max(math.cosh(t_max) - 1.0, 1e-30))

        def sub_integrand(v: np.ndarray) -> np.ndarray:
            tt = _arccosh1p(v)
            f_val = g(tt) + g(-tt)
            return np.exp(-1j * math.pi * y * (1.0 + v * v)) * 2.0 * f_val / np.sqrt(2.0 + v * v)

    substituted = integrate(sub_integrand, (0.0, v_max), replace(opts, oscillation_hint=2.0 * math.pi * abs(y) * v_max))
    return direct.value, substituted.value


def translation_phase_check(
    measure: Measure,
    shift: tuple[float, float],
    xi: float,
    eta: float,
    opts: QuadOpts = QuadOpts(),
) -> tuple[complex, complex]:
    """Transform of the shifted measure versus phase times the original.

    lhs integrates over the translated curve; rhs multiplies mu_hat by
    e^{-i pi (shift . (xi, eta))}.  They agree within quadrature tolerance.
    """
    lhs = _one_point(measure, xi, eta, opts, offset=shift).value
    phase = cmath.exp(-1j * math.pi * (shift[0] * xi + shift[1] * eta))
    rhs = phase * mu_hat(measure, xi, eta, opts).value
    return lhs, rhs
