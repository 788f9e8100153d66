"""Pointwise algebra for measures on four parallel lines R x {0, 1, 2, p}.

A 2-periodic test set is described by fibers: a projection point xi together
with its image set of heights reduced mod 2 into [0, 2).  Each height eta
maps to the unit-circle point a = e^{i pi eta}; the solvability of the
four-term exponential sum at a fiber is controlled by small Vandermonde
systems in those points.  This module provides the complete homogeneous
symmetric polynomials H_k, the closed-form solutions of the degree-2/3/p
coefficient systems, the discriminant used in the three-point analysis, the
fiber classification P1-P4, periodization of raw points, and the polynomial
lift that raises a degree-2 relation to higher degree.

The fourth-line height p is bounded, 3 <= p <= P_MAX = 1500, and checked
before any work: ``classify`` makes two O(p) ``homog_sym`` calls for each
ordered 4-tuple of a fiber's heights.  ``FourLinesConfig``, ``solve_tau`` and
``lift_to_degree`` raise ``ValueError`` outside that range.
"""

from __future__ import annotations

import cmath
import math
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
    "elem_sym",
    "vandermonde3_det",
    "solve_tau",
    "solve_delta",
    "solve_e",
    "rho",
    "delta_bound",
    "classify",
    "periodize",
    "lift_relation",
    "lift_to_degree",
]

DISTINCT_TOL = 1e-12
WITNESS_TOL = 1e-10
P_MAX = 1500


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


def elem_sym(vals: Sequence[complex]) -> list[complex]:
    """All elementary symmetric polynomials e_0..e_n of the inputs."""
    n = len(vals)
    e = [0j] * (n + 1)
    e[0] = 1 + 0j
    for v in vals:
        for j in range(n, 0, -1):
            e[j] = e[j] + complex(v) * e[j - 1]
    return e


def homog_sym(k: int, vals: Sequence[complex]) -> complex:
    """Complete homogeneous symmetric polynomial H_k of the inputs.

    Computed through the Newton-style recurrence
    H_k = sum_{i>=1} (-1)^{i-1} e_i H_{k-i}.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if not vals:
        raise ValueError("vals must be nonempty")
    if k == 0:
        return 1 + 0j
    e = elem_sym(vals)
    n = len(vals)
    h = [1 + 0j]
    for kk in range(1, k + 1):
        acc = 0j
        for i in range(1, min(kk, n) + 1):
            acc += (-1) ** (i - 1) * e[i] * h[kk - i]
        h.append(acc)
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
    each of the three (pairwise distinct) inputs.
    """
    _check_p(p)
    _require_distinct3(a, b, c)
    tau0 = -a * b * c * homog_sym(p - 3, (a, b, c))
    powers = a ** (p - 1) + b ** (p - 1) + c ** (p - 1)
    # the monomials a^l b^m c^n of degree p - 1 with l, m, n >= 1: abc H_{p-4}, none at p = 3
    constrained = a * b * c * homog_sym(p - 4, (a, b, c)) if p > 3 else 0j
    tau1 = homog_sym(p - 1, (a, b, c)) - powers + constrained
    tau2 = -homog_sym(p - 2, (a, b, c))
    return tau0, tau1, tau2


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


def classify(fiber: Fiber, cfg: FourLinesConfig) -> Classification:
    """Sort a fiber into P1-P4.

    Singleton and two-point fibers are P1/P2.  A fiber with >= 3 points is
    P4 when some ordered 4-tuple of its distinct unit points (a0, a1, a2, a3)
    separates H_{p-2}(a0, a1, a2) from H_{p-2}(a0, a1, a3); the first such
    tuple (in index order) is recorded as the witness.  Otherwise P3.
    """
    sigma = fiber.sigma
    if len(sigma) == 1:
        return Classification("P1", sigma)
    if len(sigma) == 2:
        return Classification("P2", sigma)
    points = [cmath.exp(1j * math.pi * s) for s in sigma]
    if len(sigma) >= 4:
        for i0, i1, i2, i3 in permutations(range(len(sigma)), 4):
            h2 = homog_sym(cfg.p - 2, (points[i0], points[i1], points[i2]))
            h3 = homog_sym(cfg.p - 2, (points[i0], points[i1], points[i3]))
            if abs(h2 - h3) > WITNESS_TOL:
                return Classification("P4", (sigma[i0], sigma[i1], sigma[i2], sigma[i3]))
    return Classification("P3", sigma[:3])


def periodize(points: Sequence[tuple[float, float]]) -> list[Fiber]:
    """Group raw (xi, eta) points into fibers with eta reduced mod 2.

    Grouping is by exact xi match; heights closer than the distinctness
    tolerance are merged.  Fibers come back sorted by xi.
    """
    groups: dict[float, list[float]] = {}
    for xi, eta in points:
        groups.setdefault(float(xi), []).append(float(eta) % 2.0)
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
