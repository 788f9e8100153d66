"""Curve catalog, measures, and planar test sets.

Curves are closed-form parametrizations; densities live against the
parameter (d mu = g(t) dt), so any arc-length Jacobian is already absorbed
into g.  Measures on unbounded curves must declare a decay envelope, which
is the only truncation authority for downstream quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Union, get_args

import numpy as np

from . import expr as expr_mod
from .expr import EVEN, ODD, UNKNOWN, Expr
from .fourlines import Fiber

__all__ = [
    "CURVE_KINDS",
    "CurveKind",
    "CompactSupport",
    "ExpDecay",
    "GaussianDecay",
    "Decay",
    "ParamCurve",
    "circle",
    "hyperbola_branch",
    "hyperbola_full",
    "spiral",
    "anti_spiral",
    "exp_curve",
    "parabola",
    "parallel_lines",
    "expr_curve",
    "curve_point",
    "Density",
    "TabulatedDensity",
    "Measure",
    "Line",
    "CircleSet",
    "LatticeCross",
    "CurveSet",
    "FiberList",
    "Lines",
    "PlanarSet",
    "Window",
    "sample_set",
    "POINTS_MAX",
    "EmptyIntersectionError",
]

Window = tuple[float, float, float, float]  # xmin, xmax, ymin, ymax

INF = math.inf


# ---------------------------------------------------------------------------
# decay envelopes


@dataclass(frozen=True)
class CompactSupport:
    """g(t) = 0 outside the open interval (lo, hi)."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"support bounds must be finite, got ({self.lo}, {self.hi})")
        if not self.lo < self.hi:
            raise ValueError(f"empty support ({self.lo}, {self.hi})")

    def clip(self, a: float, b: float) -> tuple[float, float]:
        """The part of [a, b] where g may be nonzero; empty (lo >= hi) when there is none."""
        return max(a, self.lo), min(b, self.hi)

    def sample_range(self) -> tuple[float, float]:
        span = self.hi - self.lo
        return self.lo - 0.5 * span, self.hi + 0.5 * span

    def bound(self, t: np.ndarray) -> np.ndarray:
        return np.where((t > self.lo) & (t < self.hi), np.inf, 0.0)


class _DecayLaw:
    """A decay envelope |g(t)| <= amplitude * exp(-exponent(t)).

    Each law states ``exponent(t)`` (array-safe), ``tail(T)``, a bound on the
    envelope's integral beyond T, ``cutoff(budget)``, the T >= 1 at which
    that tail meets ``budget``, and ``e_fold()``, the |t| at which the
    exponent reaches 1.
    """

    def __post_init__(self):
        if not (0 < self.rate < INF and 0 < self.amplitude < INF):
            raise ValueError(f"rate and amplitude must be finite and positive, got {self.rate} and {self.amplitude}")

    def sample_range(self) -> tuple[float, float]:
        reach = 16.0 * self.e_fold()
        return -reach, reach

    def bound(self, t: np.ndarray) -> np.ndarray:
        return self.amplitude * np.exp(-self.exponent(t))


@dataclass(frozen=True)
class ExpDecay(_DecayLaw):
    """|g(t)| <= amplitude * exp(-rate*|t|)."""

    rate: float
    amplitude: float = 1.0

    def exponent(self, t):
        return self.rate * abs(t)

    def e_fold(self) -> float:
        return 1.0 / self.rate

    def tail(self, t: float) -> float:
        # integral_T^inf amp*e^{-rate t} dt = amp e^{-rate T}/rate, T >= 0
        return self.amplitude * math.exp(-self.exponent(t)) / self.rate

    def cutoff(self, budget: float) -> float:
        t = -math.log(max(budget * self.rate / self.amplitude, 1e-300)) / self.rate
        return max(t, 1.0)


@dataclass(frozen=True)
class GaussianDecay(_DecayLaw):
    """|g(t)| <= amplitude * exp(-rate*t^2)."""

    rate: float = 1.0
    amplitude: float = 1.0

    def exponent(self, t):
        return self.rate * t * t

    def e_fold(self) -> float:
        return 1.0 / math.sqrt(self.rate)

    def tail(self, t: float) -> float:
        # integral_T^inf amp*e^{-rate t^2} dt <= amp e^{-rate T^2}/(2 rate T), T >= 1
        return self.amplitude * math.exp(-self.exponent(t)) / (2.0 * self.rate * max(t, 1.0))

    def cutoff(self, budget: float) -> float:
        t = 1.0
        for _ in range(8):
            inner = self.amplitude / (2.0 * self.rate * max(t, 1.0) * max(budget, 1e-300))
            t = math.sqrt(max(math.log(max(inner, 2.0)), 1.0) / self.rate)
        return max(t, 1.0)


Decay = Union[CompactSupport, ExpDecay, GaussianDecay]


# ---------------------------------------------------------------------------
# parametric curves


@dataclass(frozen=True)
class ParamCurve:
    """A curve of one of the kinds in ``CURVE_KINDS``; ``kind`` selects its record."""

    kind: str
    heights: tuple[float, ...] = ()
    x_expr: Optional[Expr] = None
    y_expr: Optional[Expr] = None
    expr_domain: Optional[tuple[float, float]] = None

    def __post_init__(self):
        if self.kind not in CURVE_KINDS:
            raise ValueError(f"unknown curve kind {self.kind!r}")
        needs = CURVE_KINDS[self.kind].fields
        for name in ("heights", "x_expr", "y_expr", "expr_domain"):
            if bool(getattr(self, name)) != (name in needs):
                raise ValueError(f"{self.kind} curve {'needs' if name in needs else 'takes no'} {name}")
        if not all(map(math.isfinite, self.heights)):
            raise ValueError(f"heights must be finite, got {list(self.heights)}")
        # an infinite domain is allowed: a decay envelope truncates it
        if self.expr_domain and any(map(math.isnan, self.expr_domain)):
            raise ValueError(f"domain must not be NaN, got {list(self.expr_domain)}")

    @property
    def n_components(self) -> int:
        return len(self.heights) or 1

    def _kind(self, component: int) -> CurveKind:
        if not 0 <= component < self.n_components:
            raise ValueError(f"component {component} out of range for {self.kind}")
        return CURVE_KINDS[self.kind]

    def domain(self, component: int = 0) -> tuple[float, float]:
        return self._kind(component).domain(self)

    def xy(self, component: int, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized curve coordinates; t is trusted to lie in the domain."""
        return self._kind(component).xy(self, component, t)

    def deriv_sup(self, component: int, lo: float, hi: float) -> tuple[float, float]:
        """Upper bounds for |x'| and |y'| over [lo, hi] (oscillation hints)."""
        return self._kind(component).deriv_sup(self, component, lo, hi)


@dataclass(frozen=True)
class CurveKind:
    """Everything that depends on a curve's kind; ``c`` is the curve, ``k`` a component index."""

    domain: Callable  # (c) -> parameter interval
    xy: Callable  # (c, k, t) -> vectorized coordinates
    deriv_sup: Callable  # (c, k, lo, hi) -> upper bounds for |x'| and |y'| over [lo, hi]
    # (c, k, w) -> for the window w = (xmin, xmax, ymin, ymax), a parameter interval, before
    # clipping to the domain, that holds every parameter whose point lies in w; empty
    # (lo > hi) when there is none
    window_range: Callable
    fields: tuple[str, ...] = ()  # the optional ParamCurve fields the kind needs; the rest stay unset
    # (c) -> the expr.parity of x and of y in t, for a component whose domain is symmetric
    parity: Callable = lambda c: (UNKNOWN, UNKNOWN)
    # for a closed kind, whose domain is one period 2 pi long: (a) -> sup_t |Im (x, y)(t + ia)|,
    # the strip growth of the coordinates, on arrays of a >= 0; None for the other kinds
    strip: Optional[Callable] = None


def _hyperbola(domain: tuple[float, float]) -> CurveKind:
    """(cosh t, sinh t): the right branch of x^2 - y^2 = 1 over the given domain."""

    def deriv_sup(c, k, lo, hi):
        m = max(abs(lo), abs(hi))
        return math.sinh(m), math.cosh(m)

    def window_range(c, k, w):
        xmin, xmax, ymin, ymax = w
        if xmax < 1.0:
            return INF, -INF
        tx = math.acosh(xmax)
        return max(-tx, math.asinh(ymin)), min(tx, math.asinh(ymax))

    return CurveKind(lambda c: domain, lambda c, k, t: (np.cosh(t), np.sinh(t)), deriv_sup, window_range)


def _log_spiral(s: int, domain: tuple[float, float]) -> CurveKind:
    """e^{s t} (cos t, sin t): the spiral for s = -1, the anti-spiral for s = +1."""

    def xy(c, k, t):
        r = np.exp(s * t)
        return r * np.cos(t), r * np.sin(t)

    def deriv_sup(c, k, lo, hi):
        peak = math.sqrt(2.0) * math.exp(max(s * lo, s * hi))
        return peak, peak

    def window_range(c, k, w):
        xmin, xmax, ymin, ymax = w
        gap_x = 0.0 if xmin <= 0.0 <= xmax else min(abs(xmin), abs(xmax))
        gap_y = 0.0 if ymin <= 0.0 <= ymax else min(abs(ymin), abs(ymax))
        t_near = s * math.log(max(math.hypot(gap_x, gap_y), 1e-8))
        t_far = s * math.log(max(math.hypot(cx, cy) for cx in (xmin, xmax) for cy in (ymin, ymax)))
        return (t_near, t_far) if s > 0 else (t_far, t_near)

    return CurveKind(lambda c: domain, xy, deriv_sup, window_range)


def _exp_curve_deriv_sup(c: ParamCurve, k: int, lo: float, hi: float) -> tuple[float, float]:
    m = max(abs(lo), abs(hi))
    return 1.0, 2.0 * m * math.exp(min(m * m, 700.0))


def _height_range(radius: Callable[[float], float]) -> Callable:
    """The window_range of a curve (t, y(t)) with y even and growing in |t|: |t| <= radius(ymax), within the
    x bounds; ``radius`` gives None where y exceeds ymax everywhere."""

    def window_range(c, k, w):
        r = radius(w[3])
        return (INF, -INF) if r is None else (max(w[0], -r), min(w[1], r))

    return window_range


def _expr_deriv_sup(c: ParamCurve, k: int, lo: float, hi: float) -> tuple[float, float]:
    # coarse sampled finite-difference bound
    ts = np.linspace(lo, hi, 257)
    xs, ys = c.xy(k, ts)
    dt = ts[1] - ts[0]
    return float(np.max(np.abs(np.diff(xs)) / dt)) * 2.0, float(np.max(np.abs(np.diff(ys)) / dt)) * 2.0


CURVE_KINDS: dict[str, CurveKind] = {
    "circle": CurveKind(
        lambda c: (-math.pi, math.pi),
        lambda c, k, t: (np.cos(t), np.sin(t)),
        lambda c, k, lo, hi: (1.0, 1.0),
        lambda c, k, w: (-INF, INF),
        parity=lambda c: (EVEN, ODD),
        strip=np.sinh,  # (cos, sin)(t + ia) has imaginary part sinh(a) (-sin t, cos t)
    ),
    "hyperbola-branch": _hyperbola((0.0, INF)),
    "hyperbola-full": replace(_hyperbola((-INF, INF)), parity=lambda c: (EVEN, ODD)),
    "spiral": _log_spiral(-1, (0.0, INF)),
    "anti-spiral": _log_spiral(1, (-INF, 0.0)),
    "exp-curve": CurveKind(
        lambda c: (-INF, INF),
        lambda c, k, t: (np.asarray(t, dtype=float), np.exp(t * t)),
        _exp_curve_deriv_sup,
        _height_range(lambda ymax: math.sqrt(math.log(ymax)) if ymax >= 1.0 else None),
        parity=lambda c: (ODD, EVEN),
    ),
    "parabola": CurveKind(
        lambda c: (-INF, INF),
        lambda c, k, t: (np.asarray(t, dtype=float), np.asarray(t, dtype=float) ** 2),
        lambda c, k, lo, hi: (1.0, 2.0 * max(abs(lo), abs(hi))),
        _height_range(lambda ymax: math.sqrt(ymax) if ymax >= 0.0 else None),
        parity=lambda c: (ODD, EVEN),
    ),
    "parallel-lines": CurveKind(
        lambda c: (-INF, INF),
        lambda c, k, t: (np.asarray(t, dtype=float), np.full(np.shape(t), c.heights[k])),
        lambda c, k, lo, hi: (1.0, 0.0),
        lambda c, k, w: (w[0], w[1]) if w[2] <= c.heights[k] <= w[3] else (INF, -INF),
        fields=("heights",),
        parity=lambda c: (ODD, EVEN),
    ),
    "expr": CurveKind(
        lambda c: c.expr_domain,
        lambda c, k, t: (expr_mod.evaluate_array(c.x_expr, t).real,
                         expr_mod.evaluate_array(c.y_expr, t).real),
        _expr_deriv_sup,
        lambda c, k, w: (-INF, INF),
        fields=("x_expr", "y_expr", "expr_domain"),
        parity=lambda c: (expr_mod.parity(c.x_expr), expr_mod.parity(c.y_expr)),
    ),
}


def circle() -> ParamCurve:
    return ParamCurve("circle")


def hyperbola_branch() -> ParamCurve:
    return ParamCurve("hyperbola-branch")


def hyperbola_full() -> ParamCurve:
    return ParamCurve("hyperbola-full")


def spiral() -> ParamCurve:
    return ParamCurve("spiral")


def anti_spiral() -> ParamCurve:
    return ParamCurve("anti-spiral")


def exp_curve() -> ParamCurve:
    return ParamCurve("exp-curve")


def parabola() -> ParamCurve:
    return ParamCurve("parabola")


def parallel_lines(heights: Sequence[float]) -> ParamCurve:
    return ParamCurve("parallel-lines", heights=tuple(float(h) for h in heights))


def expr_curve(x_expr: Expr, y_expr: Expr, domain: tuple[float, float]) -> ParamCurve:
    return ParamCurve("expr", x_expr=x_expr, y_expr=y_expr, expr_domain=(float(domain[0]), float(domain[1])))


def curve_point(curve: ParamCurve, component: int, t: float) -> tuple[float, float]:
    """Point on the curve at parameter t; t must lie in the component domain."""
    lo, hi = curve.domain(component)
    if not lo <= t <= hi:
        raise ValueError(f"t={t} outside domain [{lo}, {hi}] of {curve.kind}")
    x, y = curve.xy(component, np.asarray([t], dtype=float))
    return float(x[0]), float(y[0])


# ---------------------------------------------------------------------------
# densities and measures


@dataclass(frozen=True)
class TabulatedDensity:
    """Complex samples on a sorted grid, linearly interpolated, 0 outside."""

    ts: tuple[float, ...]
    values: tuple[complex, ...]

    def __post_init__(self):
        if len(self.ts) != len(self.values) or len(self.ts) < 2:
            raise ValueError("need matching ts/values with at least two samples")
        if any(b <= a for a, b in zip(self.ts, self.ts[1:])):
            raise ValueError("ts must be strictly increasing")

    def __call__(self, t: np.ndarray) -> np.ndarray:
        ts = np.asarray(self.ts)
        vals = np.asarray(self.values, dtype=np.complex128)
        re = np.interp(t, ts, vals.real, left=0.0, right=0.0)
        im = np.interp(t, ts, vals.imag, left=0.0, right=0.0)
        return re + 1j * im


Density = Union[Expr, TabulatedDensity, Callable[[np.ndarray], np.ndarray]]

# Measure.check_envelope samples this many points and lets |g| exceed the envelope by this much
_ENVELOPE_SAMPLES = 4096
_ENVELOPE_SLACK = 1e-12


def density_fn(density: Density) -> Callable[[np.ndarray], np.ndarray]:
    if isinstance(density, get_args(Expr)):
        return lambda t: expr_mod.evaluate_array(density, t)
    return density


@dataclass(frozen=True)
class Measure:
    """Curve plus one complex parameter density per component.

    ``decay`` bounds every component density and is mandatory whenever any
    component domain is unbounded.
    """

    curve: ParamCurve
    densities: tuple[Density, ...]
    decay: Optional[Decay] = None

    def __post_init__(self):
        if len(self.densities) != self.curve.n_components:
            raise ValueError(
                f"{self.curve.kind} has {self.curve.n_components} component(s), "
                f"got {len(self.densities)} densities"
            )

    def density(self, component: int) -> Callable[[np.ndarray], np.ndarray]:
        return density_fn(self.densities[component])

    def check_envelope(self) -> None:
        """Spot-check |g(t)| <= envelope(t) on _ENVELOPE_SAMPLES points of the decay's sample range.

        Once every component passes, the rest of its widest truncation window,
        out to the decay law's ``cutoff(0)``, is checked on as many points.
        Raises ValueError on the first violating component, or when a
        component domain is unbounded and no decay is declared.  With a
        compact support the density must vanish outside it.
        """
        decay = self.decay
        domains = [self.curve.domain(comp) for comp in range(self.curve.n_components)]
        if decay is None:
            if any(math.isinf(end) for domain in domains for end in domain):
                raise ValueError(f"the {self.curve.kind} curve is unbounded: it needs a decay envelope")
            return
        grid_lo, grid_hi = decay.sample_range()
        samples = [np.linspace(max(lo, grid_lo), min(hi, grid_hi), _ENVELOPE_SAMPLES) for lo, hi in domains]
        if not isinstance(decay, CompactSupport):  # a support's windows lie inside its sample range
            reach = decay.cutoff(0.0)  # cutoff floors its budget: no tolerance truncates further out
            for lo, hi in domains:
                ts = np.linspace(-reach if math.isinf(lo) else lo, reach if math.isinf(hi) else hi, _ENVELOPE_SAMPLES)
                samples.append(ts[(ts < grid_lo) | (ts > grid_hi)])
        for k, ts in enumerate(samples):
            comp = k % len(domains)  # every component's grid first, then every window
            excess = np.abs(self.density(comp)(ts)) - decay.bound(ts)
            if np.any(excess > _ENVELOPE_SLACK):
                idx = int(np.argmax(excess))
                raise ValueError(
                    f"component {comp} density exceeds its declared envelope near t={ts[idx]:.6g}"
                )


# ---------------------------------------------------------------------------
# planar test sets


class EmptyIntersectionError(ValueError):
    pass


# A test set's ``_plan(n, window)`` reckons the index ranges of ``sample_set``'s points once. It
# gives their count (a bound on it for lines, circles and curves; inf where a range overflows)
# and a function that makes the points from those same ranges.
_Plan = tuple[float, Callable[[], list[tuple[float, float]]]]


def _inside(x: float, y: float, window: Window) -> bool:
    xmin, xmax, ymin, ymax = window
    return xmin <= x <= xmax and ymin <= y <= ymax


def _per_part(n: int, parts: int) -> int:
    """The samples of each line of a ``Lines``, or each component of a curve: at least 2, so none is one point."""
    return max(2, -(-n // parts))


def _multiples(lo: float, hi: float, step: float) -> Optional[range]:
    """The integers k with lo <= k step <= hi; None where lo / step, hi / step or their difference overflows."""
    k_lo, k_hi = lo / step, hi / step
    if not math.isfinite(k_hi - k_lo):
        return None
    return range(math.ceil(k_lo), math.floor(k_hi) + 1)


def _size(ranges: list[Optional[range]]) -> float:
    """How many integers the ranges hold together; inf where one of them is None."""
    return INF if None in ranges else sum(float(r.stop - r.start) for r in ranges)


@dataclass(frozen=True)
class Line:
    point: tuple[float, float]
    direction: tuple[float, float]

    def __post_init__(self):
        if not all(map(math.isfinite, (*self.point, *self.direction))):
            raise ValueError(f"line point {self.point} and direction {self.direction} must be finite")
        if self.direction == (0.0, 0.0):
            raise ValueError("line direction must be nonzero")

    def _plan(self, n: int, window: Window) -> _Plan:
        """n points spaced evenly over the line's chord in the window (its midpoint for n = 1), or none."""
        (px, py), (dx, dy) = self.point, self.direction
        xmin, xmax, ymin, ymax = window
        s_lo, s_hi = -INF, INF
        for p, d, lo, hi in ((px, dx, xmin, xmax), (py, dy, ymin, ymax)):
            if d == 0:
                if not lo <= p <= hi:
                    return 0, list
                continue
            s0, s1 = (lo - p) / d, (hi - p) / d
            s_lo, s_hi = max(s_lo, min(s0, s1)), min(s_hi, max(s0, s1))
        if s_lo > s_hi:
            return 0, list

        def points():
            ss = [0.5 * (s_lo + s_hi)] if n == 1 else [s_lo + (s_hi - s_lo) * j / (n - 1) for j in range(n)]
            return [(px + s * dx, py + s * dy) for s in ss]

        return n, points


@dataclass(frozen=True)
class Lines:
    """Finite union of straight lines."""

    lines: tuple[Line, ...]

    def __post_init__(self):
        if not self.lines:
            raise ValueError("need at least one line")

    def _plan(self, n: int, window: Window) -> _Plan:
        plans = [line._plan(_per_part(n, len(self.lines)), window) for line in self.lines]
        return sum(count for count, _ in plans), lambda: [p for _, points in plans for p in points()]


@dataclass(frozen=True)
class CircleSet:
    radius: float

    def __post_init__(self):
        if not 0 < self.radius < INF:
            raise ValueError(f"radius must be finite and positive, got {self.radius}")

    def _plan(self, n: int, window: Window) -> _Plan:
        """The points of n uniform angles from (radius, 0) that lie in the window."""
        def points():
            thetas = (2.0 * math.pi * j / n for j in range(n))
            xys = ((self.radius * math.cos(a), self.radius * math.sin(a)) for a in thetas)
            return [p for p in xys if _inside(*p, window)]

        return n, points


@dataclass(frozen=True)
class LatticeCross:
    alpha: float
    beta: float

    def __post_init__(self):
        if not (0 < self.alpha < INF and 0 < self.beta < INF):
            raise ValueError(f"alpha and beta must be finite and positive, got {self.alpha} and {self.beta}")

    def _plan(self, n: int, window: Window) -> _Plan:
        """Every lattice point in the window, those of the x-axis (the origin among them) first."""
        xmin, xmax, ymin, ymax = window
        on_x, on_y = ymin <= 0.0 <= ymax, xmin <= 0.0 <= xmax  # the axis meets the window
        xs = _multiples(xmin, xmax, self.alpha) if on_x else range(0)
        ys = _multiples(ymin, ymax, self.beta) if on_y else range(0)
        count = _size([xs, ys]) - (on_x and on_y)
        return count, lambda: [(k * self.alpha, 0.0) for k in xs] + [(0.0, k * self.beta) for k in ys if k or not on_x]


@dataclass(frozen=True)
class CurveSet:
    curve: ParamCurve

    def _plan(self, n: int, window: Window) -> _Plan:
        """The points in the window of each component sampled uniformly over its parameter range there."""
        curve = self.curve
        spans = []
        for comp in range(curve.n_components):
            (lo, hi), (w_lo, w_hi) = curve.domain(comp), CURVE_KINDS[curve.kind].window_range(curve, comp, window)
            lo, hi = max(lo, w_lo), min(hi, w_hi)
            if lo >= hi:
                continue
            if not math.isfinite(hi - lo):
                raise ValueError(
                    f"{curve.kind} curve component {comp} has the parameter range [{lo}, {hi}] in window {window}, "
                    "whose length is not finite"
                )
            spans.append((comp, lo, hi))
        per = _per_part(n, curve.n_components)

        def points():
            out = []
            for comp, lo, hi in spans:
                xs, ys = curve.xy(comp, np.linspace(lo, hi, per))
                out.extend((x, y) for x, y in zip(xs.tolist(), ys.tolist()) if _inside(x, y, window))
            return out

        return per * len(spans), points


@dataclass(frozen=True)
class FiberList:
    fibers: tuple[Fiber, ...]
    periodic2: bool = False

    def _plan(self, n: int, window: Window) -> _Plan:
        """The heights of the fibers in the window, each repeated every 2 along the fiber when ``periodic2``."""
        xmin, xmax, ymin, ymax = window
        heights = [(fiber.xi, eta) for fiber in self.fibers if xmin <= fiber.xi <= xmax for eta in fiber.sigma]
        if not self.periodic2:
            points = [(xi, eta) for xi, eta in heights if ymin <= eta <= ymax]
            return len(points), lambda: points
        rows = [(xi, eta, _multiples(ymin - eta, ymax - eta, 2.0)) for xi, eta in heights]
        return _size([ks for _, _, ks in rows]), lambda: [(xi, eta + 2.0 * k) for xi, eta, ks in rows for k in ks]


PlanarSet = Union[Line, Lines, CircleSet, LatticeCross, CurveSet, FiberList]

# the most points that sample_set gives, or that an ``ft`` grid has: their
# count is reckoned, and a larger one rejected, before any point is made
POINTS_MAX = 100_000


def sample_set(lam: PlanarSet, n: int, window: Window) -> list[tuple[float, float]]:
    """Deterministic sample of the set intersected with a closed window.

    Curves are sampled uniformly in parameter, each line of a ``Lines`` and
    each curve component at 2 points at least, the lattice cross is
    enumerated, periodic fiber lists are expanded height-by-height.  The
    set's plan counts the points from the same index ranges that it then
    enumerates, so an axis or fiber outside the window costs nothing.  A
    count over POINTS_MAX raises ValueError before any point is made, as
    does a curve component whose parameter range in the window is not finite.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    xmin, xmax, ymin, ymax = window
    if not (xmin < xmax and ymin < ymax):
        raise ValueError(f"degenerate window {window}")
    count, make_points = lam._plan(n, window)
    if count > POINTS_MAX:
        kind = type(lam).__name__
        raise ValueError(f"{kind} in window {window} takes {float(count):.7g} points, more than {POINTS_MAX}")
    points = make_points()
    if not points:
        raise EmptyIntersectionError(f"{type(lam).__name__} does not meet window {window}")
    return points
