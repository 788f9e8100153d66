"""Annihilating-measure certificates and the uniqueness-pair verdict catalog.

A certificate packages a nonzero measure whose transform vanishes on a test
set: the measure, the set, a measured residual over set samples, and one
off-set witness point where the transform is demonstrably large.  Passing
certificates constructively refute the uniqueness-pair property; they are
re-verifiable from scratch with fresh samples.

Verdicts answer HUP / NotHUP / Unknown for cataloged (curve, set) pairs,
recording the decisive condition.  Rationality conditions are decided only
for exact ``fractions.Fraction`` inputs; floating-point angles are reported
Unknown, since rationality is not numerically decidable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Union

import numpy as np

from . import bessel as bessel_mod
from .bessel import AllIntegers, EvenHalfIntegers, bessel_zero
from .expr import parse
from .geometry import (
    POINTS_MAX,
    CircleSet,
    CompactSupport,
    CurveSet,
    GaussianDecay,
    Line,
    Lines,
    Measure,
    PlanarSet,
    Window,
    circle,
    exp_curve,
    hyperbola_full,
    parallel_lines,
    sample_set,
)
from .quadrature import QuadOpts
from .transform import mu_hat_at_points

__all__ = [
    "Certificate",
    "VerifyReport",
    "Verdict",
    "WITNESS_THRESHOLD",
    "RESIDUAL_TOL",
    "circle_line_annihilator",
    "circle_rational_lines_annihilator",
    "circle_bessel_circle_annihilator",
    "hyperbola_line_annihilator",
    "expcurve_vertical_line_annihilator",
    "fourlines_annihilator",
    "all_annihilators",
    "anti_certificate_midpoint_radius",
    "check_verify_args",
    "verify_certificate",
    "known_pair_verdict",
]

WITNESS_THRESHOLD = 0.05
RESIDUAL_TOL = 1e-6
_BUILD_SAMPLES = 256


@dataclass(frozen=True)
class Certificate:
    measure: Measure
    lam: PlanarSet
    window: Window
    witness_point: tuple[float, float]
    residual_on_lambda: float
    witness_magnitude: float
    samples_used: int
    basis: str


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    residual: float
    witness_magnitude: float
    samples_used: int
    tol: float
    message: str = ""


@dataclass(frozen=True)
class Verdict:
    answer: str  # HUP | NotHUP | Unknown
    source: str
    condition: str


def _quad_opts(tol: float) -> QuadOpts:
    # two orders below the verification tolerance, floored at what float64
    # quadrature can deliver
    return QuadOpts(abs_tol=min(1e-9, max(tol / 100.0, 1e-13)), rel_tol=1e-9)


def _measure_certificate(
    measure: Measure,
    lam: PlanarSet,
    window: Window,
    witness_point: tuple[float, float],
    basis: str,
    n_samples: int = _BUILD_SAMPLES,
    tol: float = RESIDUAL_TOL,
) -> Certificate:
    points = sample_set(lam, n_samples, window)
    # one batch: a point's value is the same as in a batch of its own, unless
    # the points fill a grid that shares one pre-split (the fourlines Lambda,
    # xi x fiber heights): there it depends on the set of points, not their order
    *on_lambda, witness = mu_hat_at_points(measure, points + [witness_point], _quad_opts(tol))
    residual = max(abs(ft.value) for ft in on_lambda)
    return Certificate(measure, lam, window, witness_point, residual, abs(witness.value), len(points), basis)


def circle_line_annihilator() -> Certificate:
    """sin(theta) on the unit circle annihilates the horizontal axis."""
    measure = Measure(circle(), (parse("sin(t)"),))
    return _measure_certificate(
        measure,
        Line((0.0, 0.0), (1.0, 0.0)),
        (-10.0, 10.0, -1.0, 1.0),
        (0.0, 1.0),
        "odd circle density against the even cos(theta) phase on the x-axis",
    )


def circle_rational_lines_annihilator(j: int) -> Certificate:
    """sin(j theta) on the circle annihilates j concurrent lines pi/j apart.

    Each line takes 2 samples at least, so j is at most POINTS_MAX / 2,
    checked before any line is built."""
    if j < 1:
        raise ValueError("j must be >= 1")
    if 2 * j > POINTS_MAX:
        raise ValueError(f"j must be at most {POINTS_MAX // 2}: its lines take 2 samples each, got {j}")
    measure = Measure(circle(), (parse("sin(t)" if j == 1 else f"sin({j}*t)"),))
    lines = tuple(
        Line((0.0, 0.0), (math.cos(m * math.pi / j), math.sin(m * math.pi / j))) for m in range(j)
    )
    rho_w = (j + 1) / math.pi
    phi_w = math.pi / (2.0 * j)
    return _measure_certificate(
        measure,
        Lines(lines),
        (-10.0, 10.0, -10.0, 10.0),
        (rho_w * math.cos(phi_w), rho_w * math.sin(phi_w)),
        f"sin({j} phi) factor of the transform vanishes on lines at angles m pi/{j}",
    )


def _circle_bessel(k: int, n: int, n_max: int):
    """The measure e^{ik theta} on the circle, its zeros j_{k,n} and j_{k,n+1}, the radius
    halfway between them over pi, and the window of a certificate for it.

    k >= 0 and 1 <= n <= ``n_max`` are checked before any zero is computed.
    """
    if k < 0 or not 1 <= n <= n_max:
        raise ValueError(f"need k >= 0 and 1 <= n <= {n_max}, got k = {k}, n = {n}")
    zeros = bessel_zero(k, n), bessel_zero(k, n + 1)
    mid = 0.5 * (zeros[0] + zeros[1]) / math.pi
    extent = mid + 1.0
    return Measure(circle(), (parse(f"exp({k}*i*t)"),)), zeros, mid, (-extent, extent, -extent, extent)


def circle_bessel_circle_annihilator(k: int, n: int) -> Certificate:
    """e^{ik theta} on the circle annihilates the circle of radius j_{k,n}/pi; the witness needs j_{k,n+1}."""
    measure, (zero, _), rho_w, window = _circle_bessel(k, n, bessel_mod.ZERO_INDEX_MAX - 1)
    return _measure_certificate(
        measure,
        CircleSet(zero / math.pi),
        window,
        (rho_w, 0.0),
        f"single surviving circle coefficient carries J_{k}(pi rho) = 0 at rho = j_{{{k},{n}}}/pi",
    )


def hyperbola_line_annihilator() -> Certificate:
    """Odd compactly supported density on the hyperbola annihilates the x-axis."""
    measure = Measure(
        hyperbola_full(),
        (parse("sqrt(cosh(2*t))*sin(t)*chi(-pi,pi)(t)"),),
        CompactSupport(-math.pi, math.pi),
    )
    return _measure_certificate(
        measure,
        Line((0.0, 0.0), (1.0, 0.0)),
        (-8.0, 8.0, -1.0, 1.0),
        (0.0, 0.5),
        "odd density against the even cosh phase: the transform vanishes on eta = 0",
    )


def expcurve_vertical_line_annihilator() -> Certificate:
    """Odd Gaussian-windowed density on (t, e^{t^2}) annihilates the y-axis."""
    measure = Measure(exp_curve(), (parse("sin(t)*exp(-(t^2))"),), GaussianDecay(1.0, 1.0))
    return _measure_certificate(
        measure,
        Line((0.0, 0.0), (0.0, 1.0)),
        (-1.0, 1.0, -8.0, 8.0),
        (1.0, 0.0),
        "odd density against the even e^{t^2} phase: the transform vanishes at xi = 0",
    )


def _complex_literal(z: complex) -> str:
    return f"({z.real!r}+({z.imag!r})*i)"


def fourlines_annihilator(p: int, eta0: float) -> Certificate:
    """Triangle density on lines 0 and p with weights that cancel at eta0 mod 2.

    With c = e^{i pi eta0}, the height-0 component carries weight -c^{-p} and
    the height-p component weight 1, so the four-term transform vanishes on
    every line eta = eta0 + 2k; at eta0 + 1/p its magnitude is 2|fhat3(xi)|.
    """
    if p < 3:
        raise ValueError("p must be an integer >= 3")
    if not 0.0 <= eta0 < 2.0:
        raise ValueError("eta0 must lie in [0, 2)")
    w0 = -np.exp(-1j * math.pi * eta0 * p)
    triangle = "(1-abs(t))*chi(-1,1)(t)"
    measure = Measure(
        parallel_lines([0.0, 1.0, 2.0, float(p)]),
        (
            parse(f"{_complex_literal(complex(w0))}*{triangle}"),
            parse("0"),
            parse("0"),
            parse(triangle),
        ),
        CompactSupport(-1.0, 1.0),
    )
    heights = [eta0 + 2.0 * k for k in range(-4, 5)]
    return _measure_certificate(
        measure,
        CurveSet(parallel_lines(heights)),
        (-10.0, 10.0, eta0 - 8.5, eta0 + 8.5),
        (0.0, eta0 + 1.0 / p),
        "weighted triangle densities on lines 0 and p cancel exactly on eta = eta0 + 2k",
    )


def all_annihilators() -> list[Certificate]:
    """One passing certificate per constructor, at default parameters."""
    return [
        circle_line_annihilator(),
        circle_rational_lines_annihilator(3),
        circle_bessel_circle_annihilator(0, 1),
        hyperbola_line_annihilator(),
        expcurve_vertical_line_annihilator(),
        fourlines_annihilator(3, 0.0),
    ]


def anti_certificate_midpoint_radius(k: int, n: int) -> Certificate:
    """Deliberately broken variant: the test circle radius is moved to the
    midpoint between consecutive Bessel zeros, where the transform does not
    vanish.  Verification of this certificate must fail.  Its witness takes
    j_{k,n+2}, so n is at most ZERO_INDEX_MAX - 2."""
    measure, (_, next_zero), mid_radius, window = _circle_bessel(k, n, bessel_mod.ZERO_INDEX_MAX - 2)
    witness = (0.5 * (next_zero + bessel_zero(k, n + 2)) / math.pi, 0.0)
    return _measure_certificate(
        measure,
        CircleSet(mid_radius),
        window,
        witness,
        "anti-certificate: radius between zeros, residual must not vanish",
    )


def check_verify_args(n_lambda: int, tol: float) -> None:
    """Raise ValueError unless 1 <= ``n_lambda`` <= POINTS_MAX and ``tol`` is finite and positive."""
    if n_lambda < 1:
        raise ValueError("n_lambda must be >= 1")
    if n_lambda > POINTS_MAX:
        raise ValueError(f"n_lambda must be at most {POINTS_MAX}, got {n_lambda}")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")


def verify_certificate(cert: Certificate, n_lambda: int = 512, tol: float = RESIDUAL_TOL) -> VerifyReport:
    """Recompute the certificate's residual and witness from fresh samples.

    Passes iff the residual over ``n_lambda`` set samples stays below ``tol``
    and the witness magnitude exceeds the 0.05 floor.  Quadrature failures
    propagate; a failing certificate is reported, never silently accepted.
    """
    check_verify_args(n_lambda, tol)
    fresh = _measure_certificate(
        cert.measure, cert.lam, cert.window, cert.witness_point, cert.basis, n_samples=n_lambda, tol=tol
    )
    residual, witness = fresh.residual_on_lambda, fresh.witness_magnitude
    ok = residual < tol and witness > WITNESS_THRESHOLD
    msg = ""
    if residual >= tol:
        msg = f"residual {residual:.3g} >= tol {tol:.3g}"
    elif witness <= WITNESS_THRESHOLD:
        msg = f"witness magnitude {witness:.3g} <= {WITNESS_THRESHOLD}"
    return VerifyReport(ok, residual, witness, fresh.samples_used, tol, msg)


# ---------------------------------------------------------------------------
# verdict catalog: a pair maps to a constant Verdict or to a function of the
# parameters; a missing parameter is a KeyError, and extra parameters are ignored


def _finite(params: dict, *names: str) -> list:
    """The named parameters as floats, or as tuples of floats where they are vectors."""
    values = [tuple(map(float, v)) if np.ndim(v) else float(v) for v in map(params.__getitem__, names)]
    if not np.all(np.isfinite(np.hstack(values))):
        raise ValueError(f"{' and '.join(names)} must be finite")
    return values


def _lattice_cross(params: dict) -> Verdict:
    alpha, beta = _finite(params, "alpha", "beta")
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")
    product = alpha * beta
    hup = product <= 1.0
    condition = f"alpha*beta = {product:.17g} {'<=' if hup else '>'} 1"
    return Verdict("HUP" if hup else "NotHUP", "Hedenmalm-Montes-Rodriguez lattice-cross characterization", condition)


# pi times the largest radius stays within bessel.X_MAX
_RADIUS_MAX = 1e5


def _bessel_criterion(params: dict, parity: Callable, symbol: str, criterion: str) -> Verdict:
    """HUP iff J_nu(pi r) vanishes for no order nu that ``parity()`` requires, for 0 < r <= _RADIUS_MAX."""
    (radius,) = _finite(params, "radius")
    if radius <= 0:
        raise ValueError("radius must be positive")
    if radius > _RADIUS_MAX:
        raise ValueError(f"radius must be at most {_RADIUS_MAX:g}, got {radius}")
    arg, orders = math.pi * radius, parity()
    ok = bessel_mod.all_orders_nonzero(arg, orders)
    if isinstance(orders, AllIntegers):
        checked = f"integer orders 0..{math.ceil(arg)}"
    else:
        start = (orders.n - 2) / 2.0
        checked = f"orders {start}, {start + 1}, ... up to {math.ceil(arg)}"
    condition = f"{symbol}({arg:.17g}) {'all nonzero' if ok else 'vanishes'} over {checked}"
    source = f"{criterion} (argument pi*r under the pi-convention transform)"
    return Verdict("HUP" if ok else "NotHUP", source, condition)


def _parallel(source: str, vector: tuple, axis: int, subject: str, target: str) -> Verdict:
    """HUP iff ``vector`` is nonzero at ``axis`` only: the test set is parallel to ``target``."""
    parallel = [i for i, v in enumerate(vector) if v != 0.0] == [axis]
    word = "parallel" if parallel else "not parallel"
    return Verdict("HUP" if parallel else "NotHUP", source, f"{subject} is {word} to {target}")


def _parabola_line(params: dict) -> Verdict:
    dx, dy = params["direction"]
    (direction,) = _finite(params, "direction")
    return _parallel("Sjolin parabola results", direction, 0, f"line direction ({dx}, {dy})", "the x-axis")


def _paraboloid_hyperplane(params: dict) -> Verdict:
    (normal,) = _finite(params, "normal")
    subject = f"hyperplane with normal {normal}"
    return _parallel("Gonzalez Vieli paraboloid criterion", normal, len(normal) - 1, subject, "the base hyperplane")


def _circle_lines(params: dict) -> Verdict:
    angle, source = params["angle"], "Lev-Sjolin concurrent-lines criterion"
    if isinstance(angle, (Fraction, int)):
        return Verdict("NotHUP", source, f"angle/pi = {Fraction(angle)} is rational: sin(j theta) annihilator exists")
    undecided = "rationality of a floating-point angle is not decidable; pass a Fraction for an exact verdict"
    return Verdict("Unknown", source, undecided)


def _hyperbola_angled_lines(params: dict) -> Verdict:
    (alpha,) = _finite(params, "alpha")
    if 0.0 < alpha < math.pi / 4.0:
        return Verdict("HUP", "reflection argument: the density becomes periodic and integrable, hence zero",
                       f"angle {alpha:.17g} lies in (0, pi/4)")
    return Verdict("Unknown", "reflection argument covers angles in (0, pi/4) only",
                   f"angle {alpha:.17g} outside (0, pi/4)")


def _constant_fiber(params: dict) -> Verdict:
    p, (eta0,) = int(params["p"]), _finite({"eta0": 0.0, **params}, "eta0")
    if p < 3:  # as fourlines_annihilator, which builds this measure
        raise ValueError("p must be an integer >= 3")
    return Verdict("NotHUP", "constant-fiber cancellation on four parallel lines",
                   f"constructive annihilator with weights (-e^(-i pi {eta0} {p}), 0, 0, 1)")


_HALF_LINE_KERNEL = "kernel supported on a half-line has full spectral support"
_CATALOG: dict[str, Union[Verdict, Callable[[dict], Verdict]]] = {
    "lattice-cross": _lattice_cross,
    "hyperbola-lattice-cross": _lattice_cross,
    "circle-circle": lambda params: _bessel_criterion(params, AllIntegers, "J_k", "Lev-Sjolin circle criterion"),
    "circle-line": Verdict("NotHUP", "Lev-Sjolin: a single line never suffices for the circle",
                           "constructive annihilator: sin(theta) density"),
    "circle-parallel-lines": Verdict("HUP", "Lev-Sjolin: two parallel lines suffice for the circle",
                                     "two distinct parallel lines"),
    "circle-lines": _circle_lines,
    "circle-spiral": Verdict("HUP", "real-analytic continuation from the spiral accumulation point",
                             "spiral reaches the origin: zero set forces the analytic transform to vanish"),
    "parabola-line": _parabola_line,
    "parabola-two-lines": Verdict("HUP", "Sjolin parabola results",
                                  "two distinct lines always suffice for the parabola"),
    # dim is read before radius, so a call missing both names dim
    "sphere-sphere": lambda params: _bessel_criterion(
        params, partial(EvenHalfIntegers, int(params["dim"])), "J_nu", "Gonzalez Vieli sphere criterion"
    ),
    "paraboloid-hyperplane": _paraboloid_hyperplane,
    "spiral-antispiral": Verdict("HUP", "one-sided convolution support argument for the spiral pair",
                                 _HALF_LINE_KERNEL),
    "expcurve-hline": Verdict("HUP", "horizontal line reads off the full one-dimensional transform of the density",
                              "line parallel to the x-axis"),
    "expcurve-vline": Verdict("NotHUP", "odd-density argument against the even e^{t^2} phase",
                              "constructive annihilator: sin(t) e^{-t^2} density"),
    "expcurve-two-vlines": Verdict("HUP", "two vertical lines force oddness twice, leaving only the zero density",
                                   "two distinct vertical lines"),
    "hyperbola-branch-reflected": Verdict("HUP", "one-sided convolution support argument on the reflected branch",
                                          _HALF_LINE_KERNEL),
    "hyperbola-hline": Verdict("NotHUP", "odd-density argument against the even cosh phase",
                               "constructive annihilator: sqrt(cosh 2t) sin(t) chi_(-pi,pi) density"),
    "hyperbola-two-hlines": Verdict("HUP", "two horizontal lines force oddness twice, leaving only the zero density",
                                    "two distinct horizontal lines"),
    "hyperbola-angled-lines": _hyperbola_angled_lines,
    "fourlines-constant-fiber": _constant_fiber,
}


def known_pair_verdict(pair: str, **params) -> Verdict:
    """HUP / NotHUP / Unknown for a cataloged (curve, test-set) pair.

    The pairs are the keys of ``_CATALOG``; underscores and case in ``pair``
    are ignored.  Parameters: alpha, beta (lattice-cross); radius
    (circle-circle, and sphere-sphere with dim); angle (circle-lines: a
    Fraction or int for N concurrent lines at angle*pi); direction=(dx, dy)
    (parabola-line); normal (paraboloid-hyperplane); alpha in radians
    (hyperbola-angled-lines); p, eta0 (fourlines-constant-fiber).  A missing
    parameter raises ``KeyError``; a non-finite alpha, beta, radius, eta0 or
    component of direction or normal, and p < 3, raise ``ValueError``.
    """
    entry = _CATALOG.get(pair.replace("_", "-").lower())
    if entry is None:
        return Verdict("Unknown", "", f"pair {pair!r} is outside the verdict catalog")
    return entry if isinstance(entry, Verdict) else entry(params)
