"""Pointwise algebra for measures on four parallel lines R x {0, 1, 2, p}.

A 2-periodic test set is described by fibers: a projection point xi together
with its image set of heights reduced mod 2 into [0, 2).  Each height eta
maps to the unit-circle point a = e^{i pi eta}; the solvability of the
four-term exponential sum at a fiber is controlled by small Vandermonde
systems in those points.  This module provides the complete homogeneous
symmetric polynomials H_k by their defining recurrence, the degree-p
coefficients tau as minus the remainder of x^p modulo (x - a)(x - b)(x - c),
the closed forms of degree 2 and 3, the discriminant used in the three-point
analysis, the fiber classification P1-P4, periodization of raw points, and
the polynomial lift that raises a degree-2 relation to higher degree.

The fourth-line height p is bounded, 3 <= p <= P_MAX = 1500, and checked
before any work: ``classify`` makes one O(p) ``homog_sym`` call for each
ordered 4-tuple of a fiber's heights.  ``FourLinesConfig``, ``solve_tau`` and
``lift_to_degree`` raise ``ValueError`` outside that range.  A fiber has at
most HEIGHTS_MAX = 8 distinct heights, at most 1,680 ordered 4-tuples:
``check_heights`` raises ``ValueError`` past that, and ``classify`` checks
its fiber.  The slowest fiber accepted, eight heights of a P3 fiber at
p = 1500, where every tuple is tried, takes about 1.7 s.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field
from itertools import permutations
from typing import Sequence

import numpy as np

__all__ = [
    "UnitPoint",
    "Fiber",
    "FourLinesConfig",
    "P_MAX",
    "Classification",
    "homog_sym",
    "vandermonde3_det",
    "solve_tau",
    "solve_delta",
    "solve_e",
    "rho",
    "delta_bound",
    "classify",
    "check_heights",
    "periodize",
    "lift_relation",
    "lift_to_degree",
]

DISTINCT_TOL = 1e-12
WITNESS_TOL = 1e-10
WITNESS_EPS = 32
P_MAX = 1500
HEIGHTS_MAX = 8


def _check_p(p: int) -> None:
    if p < 3:
        raise ValueError(f"p must be an integer >= 3, got {p}")
    if p > P_MAX:
        raise ValueError(f"p must be at most {P_MAX}, got {p}")


@dataclass(frozen=True)
class UnitPoint:
    """A height eta in [0, 2) with its unit-circle image a = e^{i pi eta}."""

    eta: float
    a: complex = field(init=False)

    def __post_init__(self):
        if not 0.0 <= self.eta < 2.0:
            raise ValueError(f"eta must lie in [0, 2), got {self.eta}")
        object.__setattr__(self, "a", cmath.exp(1j * math.pi * self.eta))


@dataclass(frozen=True)
class Fiber:
    """Projection point xi with its sorted set of distinct heights in [0, 2)."""

    xi: float
    sigma: tuple[float, ...]

    def __post_init__(self):
        if not math.isfinite(self.xi):
            raise ValueError(f"xi must be finite, got {self.xi}")
        if not self.sigma:
            raise ValueError("fiber needs at least one height")
        sig = tuple(sorted(float(s) for s in self.sigma))
        for s in sig:
            if not 0.0 <= s < 2.0:
                raise ValueError(f"height {s} outside [0, 2)")
        for prev, cur in zip(sig, sig[1:]):
            if cur - prev <= DISTINCT_TOL:
                raise ValueError(f"heights {prev} and {cur} are not separated by more than {DISTINCT_TOL}")
        # separation is circular: 0 and 2-epsilon name the same unit point
        if len(sig) >= 2 and 2.0 - (sig[-1] - sig[0]) <= DISTINCT_TOL:
            raise ValueError(f"heights {sig[-1]} and {sig[0]} coincide modulo 2")
        object.__setattr__(self, "sigma", sig)

    def unit_points(self) -> tuple[UnitPoint, ...]:
        return tuple(UnitPoint(s) for s in self.sigma)


@dataclass(frozen=True)
class FourLinesConfig:
    p: int

    def __post_init__(self):
        _check_p(self.p)


@dataclass(frozen=True)
class Classification:
    tag: str  # P1 | P2 | P3 | P4
    witness: tuple[float, ...]


def homog_sym(k: int, vals: Sequence[complex]) -> complex:
    """Complete homogeneous symmetric polynomial H_k of the inputs.

    Adds one input x at a time through H_j(..., x) = H_j(...) + x H_{j-1}(..., x),
    the sum of every degree-k monomial without cancellation: O(k) per input.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if not vals:
        raise ValueError("vals must be nonempty")
    h = [1 + 0j] + [0j] * k
    for v in vals:
        x = complex(v)
        for j in range(1, k + 1):
            h[j] += x * h[j - 1]
    return h[k]


def vandermonde3_det(a: complex, b: complex, c: complex) -> complex:
    """Determinant of the 3x3 power matrix with rows (1, x, x^2)."""
    return (a - b) * (b - c) * (c - a)


def _require_distinct3(a: complex, b: complex, c: complex) -> None:
    if abs(vandermonde3_det(a, b, c)) <= DISTINCT_TOL:
        raise ValueError(f"near-degenerate triple ({a}, {b}, {c})")


def solve_tau(a: complex, b: complex, c: complex, p: int) -> tuple[complex, complex, complex]:
    """Closed-form solution (tau0, tau1, tau2) of the degree-p system.

    The returned coefficients satisfy x^p + tau2 x^2 + tau1 x + tau0 = 0 at
    each of the three (pairwise distinct) inputs: they are minus the
    remainder of x^p modulo (x - a)(x - b)(x - c), tau2 = -H_{p-2},
    tau1 = (a + b + c) H_{p-2} - H_{p-1} and tau0 = -abc H_{p-3}.
    """
    _check_p(p)
    _require_distinct3(a, b, c)
    h2 = homog_sym(p - 2, (a, b, c))
    tau1 = (a + b + c) * h2 - homog_sym(p - 1, (a, b, c))
    return -a * b * c * homog_sym(p - 3, (a, b, c)), tau1, -h2


def solve_delta(chi0: complex, chi1: complex) -> tuple[complex, complex]:
    """(delta0, delta1) with x^2 + delta1 x + delta0 = 0 at both inputs."""
    if abs(chi0 - chi1) <= DISTINCT_TOL:
        raise ValueError(f"coincident points {chi0} and {chi1}")
    return chi0 * chi1, -(chi0 + chi1)


def solve_e(a: complex, b: complex, c: complex) -> tuple[complex, complex, complex]:
    """(e0, e1, e2): signed elementary symmetric coefficients of the cubic."""
    _require_distinct3(a, b, c)
    return -a * b * c, a * b + b * c + c * a, -(a + b + c)


def rho(a: complex, b: complex, c: complex) -> complex:
    """Squared alternating cubic form; zero iff two arguments coincide."""
    inner = a**3 * (b - c) + b**3 * (c - a) + c**3 * (a - b)
    return inner * inner


def delta_bound(p0: UnitPoint, p1: UnitPoint) -> float:
    """|a0 + a1| for two unit points; strictly below 2 when they differ."""
    return abs(p0.a + p1.a)


def check_heights(fibers: Sequence[Fiber]) -> None:
    """Raise ``ValueError`` if some fiber has more than HEIGHTS_MAX distinct heights."""
    for fiber in fibers:
        if len(fiber.sigma) > HEIGHTS_MAX:
            raise ValueError(
                f"fiber at xi = {fiber.xi} has {len(fiber.sigma)} distinct heights, more than {HEIGHTS_MAX}"
            )


def classify(fiber: Fiber, cfg: FourLinesConfig) -> Classification:
    """Sort a fiber into P1-P4.

    Singleton and two-point fibers are P1/P2.  A fiber with >= 3 points is
    P4 when some ordered 4-tuple of its distinct unit points (a0, a1, a2, a3)
    separates H_{p-2}(a0, a1, a2) from H_{p-2}(a0, a1, a3).  Their difference
    is the divided difference (a2 - a3) H_{p-3}(a0, a1, a2, a3), one O(p)
    ``homog_sym`` call per tuple.  On unit points each partial derivative of
    H_{p-2} of three points is at most C(p, 3), so moving the four points by
    d moves the difference by up to 6 C(p, 3) d, and rounding a height and
    its exponential moves a point by about 4 eps.  A tuple separates where
    the difference exceeds max(WITNESS_TOL, WITNESS_EPS eps C(p, 3)): 1e-10
    up to p = 44 and 4e-6 at p = 1500, where a smaller difference is within
    the rounding of the heights.  The first separating tuple
    (in index order) is recorded as the witness.  Otherwise P3.  A fiber with
    more than HEIGHTS_MAX heights raises ``ValueError``.
    """
    check_heights((fiber,))
    sigma = fiber.sigma
    if len(sigma) <= 2:
        return Classification(f"P{len(sigma)}", sigma)
    points = [cmath.exp(1j * math.pi * s) for s in sigma]
    tol = max(WITNESS_TOL, WITNESS_EPS * sys.float_info.epsilon * math.comb(cfg.p, 3))
    for idx in permutations(range(len(sigma)), 4):
        a0, a1, a2, a3 = (points[i] for i in idx)
        if abs((a2 - a3) * homog_sym(cfg.p - 3, (a0, a1, a2, a3))) > tol:
            return Classification("P4", tuple(sigma[i] for i in idx))
    return Classification("P3", sigma[:3])


def periodize(points: Sequence[tuple[float, float]]) -> list[Fiber]:
    """Group raw (xi, eta) points into fibers with eta reduced mod 2.

    Grouping is by exact xi match; heights closer than the distinctness
    tolerance are merged.  Fibers come back sorted by xi.
    """
    groups: dict[float, list[float]] = {}
    for xi, eta in points:
        # a height just below 0 leaves the remainder 2.0, the unit point of 0.0
        groups.setdefault(float(xi), []).append(float(eta) % 2.0 % 2.0)
    fibers = []
    for xi in sorted(groups):
        etas = sorted(groups[xi])
        merged = [etas[0]]
        for eta in etas[1:]:
            if eta - merged[-1] > DISTINCT_TOL:
                merged.append(eta)
        if len(merged) >= 2 and 2.0 - (merged[-1] - merged[0]) <= DISTINCT_TOL:
            merged.pop()
        fibers.append(Fiber(xi, tuple(merged)))
    return fibers


def _residual(psi, coeffs):
    acc = psi ** len(coeffs)
    for j, c in enumerate(coeffs):
        acc = acc + c * psi**j
    return np.max(np.abs(acc)) if np.ndim(acc) else abs(acc)


def lift_relation(psi, coeffs, f0hat):
    """Lift a pointwise quadratic relation on a sample grid by one degree.

    ``coeffs = (c1, c0)`` with psi^2 + c1 psi + c0 = 0 (residual < 1e-10
    required); returns (phi2, phi1, phi0) with
    psi^3 + phi2 psi^2 + phi1 psi + phi0 = 0, namely
    (f0hat + c1, f0hat*c1 + c0, f0hat*c0).
    """
    c1, c0 = (np.asarray(c, dtype=np.complex128) for c in coeffs)
    psi = np.asarray(psi, dtype=np.complex128)
    f0hat = np.asarray(f0hat, dtype=np.complex128)
    res = _residual(psi, (c0, c1))
    if res >= 1e-10:
        raise ValueError(f"input relation violated: residual {res:.3g} >= 1e-10")
    return f0hat + c1, f0hat * c1 + c0, f0hat * c0


def lift_to_degree(psi, coeffs, f0hat, p: int):
    """Iterate the lift to a degree-p relation psi^p + b2 psi^2 + b1 psi + b0.

    The first step is :func:`lift_relation`; each later degree multiplies the
    current relation by psi and reduces the psi^3 term through the degree-3
    relation.
    """
    _check_p(p)
    base2, base1, base0 = lift_relation(psi, coeffs, f0hat)
    cur2, cur1, cur0 = base2, base1, base0
    for _ in range(3, p):
        cur2, cur1, cur0 = (
            cur1 - cur2 * base2,
            cur0 - cur2 * base1,
            -cur2 * base0,
        )
    return cur2, cur1, cur0
