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
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .geometry import Measure, density_fn, exp_curve, hyperbola_branch, hyperbola_full, spiral
from .quadrature import QuadOpts, QuadratureError, QuadResult, integrate, truncate_interval

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


def _component_quad(
    measure: Measure,
    component: int,
    xi: float,
    eta: float,
    opts: QuadOpts,
    offset: tuple[float, float] = (0.0, 0.0),
) -> QuadResult:
    curve = measure.curve
    interval = curve.domain(component)
    window = truncate_interval(interval, measure.decay, opts)
    if window is None:
        return QuadResult(0j, 0.0, (0.0, 0.0), 0)
    dx_sup, dy_sup = curve.deriv_sup(component, *window)
    hint = math.pi * (abs(xi) * dx_sup + abs(eta) * dy_sup)
    g = measure.density(component)
    ox, oy = offset

    def integrand(t: np.ndarray) -> np.ndarray:
        x, y = curve.xy(component, t)
        return np.exp(-1j * math.pi * ((x + ox) * xi + (y + oy) * eta)) * g(t)

    local = replace(opts, oscillation_hint=hint if hint > 0 else None)
    return integrate(integrand, interval, local, envelope=measure.decay)


def mu_hat(measure: Measure, xi: float, eta: float, opts: QuadOpts = QuadOpts()) -> FTValue:
    """Evaluate the transform of the measure at one frequency point."""
    value = 0j
    err = 0.0
    lo, hi = math.inf, -math.inf
    for comp in range(measure.curve.n_components):
        res = _component_quad(measure, comp, xi, eta, opts)
        value += res.value
        err += res.err_estimate
        if res.panels:
            lo, hi = min(lo, res.window[0]), max(hi, res.window[1])
    if lo > hi:
        lo = hi = 0.0
    return FTValue(value, err, (lo, hi))


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


def _thread_count() -> int:
    raw = os.environ.get("HUPLAB_THREADS", "")
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        cap = os.cpu_count() or 1
    return cap


def mu_hat_at_points(
    measure: Measure,
    points: Sequence[tuple[float, float]],
    opts: QuadOpts = QuadOpts(),
) -> list[FTValue]:
    """Transform at many points; parallelism capped by HUPLAB_THREADS.

    Output order always matches the input order, so results do not depend on
    the thread count.  A quadrature failure is raised as a
    :class:`PointFailure` for the first failing point in input order.
    """

    def at(point: tuple[float, float]) -> FTValue:
        try:
            return mu_hat(measure, point[0], point[1], opts)
        except QuadratureError as exc:
            raise PointFailure(point, exc) from exc

    workers = min(_thread_count(), max(1, len(points)))
    if workers == 1 or len(points) < 4:
        return [at(p) for p in points]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(at, points))


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

    local = replace(opts, oscillation_hint=hint if hint > 0 else None)
    res = integrate(integrand, (-math.pi, math.pi), local)
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

    hint = kernel_rate(s - window[1], s - window[0])
    local = replace(opts, oscillation_hint=hint if hint > 0 else None)
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
    (alpha = cosh t), the direct side integral e^{-i pi y alpha(t)} g(t) dt
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
    if window is None:
        return 0j, 0j
    t_max = max(abs(window[0]), abs(window[1]))

    if curve == exp_curve():
        def alpha(t):
            return np.exp(t * t)

        direct_rate = math.pi * abs(y) * 2.0 * t_max * math.exp(min(t_max * t_max, 700.0))
        v_max = math.sqrt(max(math.expm1(min(t_max * t_max, 700.0)), 1e-30))

        def sub_integrand(v: np.ndarray) -> np.ndarray:
            u = 1.0 + v * v
            lg = np.log1p(v * v)
            root = np.sqrt(lg)
            f_val = g(root) + g(-root)
            return np.exp(-1j * math.pi * y * u) * f_val * v / (u * root)

    else:
        def alpha(t):
            return np.cosh(t)

        direct_rate = math.pi * abs(y) * math.sinh(t_max)
        v_max = math.sqrt(max(math.cosh(t_max) - 1.0, 1e-30))

        def sub_integrand(v: np.ndarray) -> np.ndarray:
            tt = _arccosh1p(v)
            f_val = g(tt) + g(-tt)
            return np.exp(-1j * math.pi * y * (1.0 + v * v)) * 2.0 * f_val / np.sqrt(2.0 + v * v)

    def direct_integrand(t: np.ndarray) -> np.ndarray:
        return np.exp(-1j * math.pi * y * alpha(t)) * g(t)

    local_direct = replace(opts, oscillation_hint=direct_rate if direct_rate > 0 else None)
    direct = integrate(direct_integrand, (-math.inf, math.inf), local_direct, envelope=measure.decay)
    sub_rate = 2.0 * math.pi * abs(y) * v_max
    local_sub = replace(opts, oscillation_hint=sub_rate if sub_rate > 0 else None)
    substituted = integrate(sub_integrand, (0.0, v_max), local_sub)
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
    lhs = 0j
    for comp in range(measure.curve.n_components):
        lhs += _component_quad(measure, comp, xi, eta, opts, offset=shift).value
    phase = cmath.exp(-1j * math.pi * (shift[0] * xi + shift[1] * eta))
    rhs = phase * mu_hat(measure, xi, eta, opts).value
    return lhs, rhs
