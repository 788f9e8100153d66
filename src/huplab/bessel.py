"""Bessel functions J_nu for integer and half-integer orders, and their zeros.

Evaluation strategy: the ascending power series (summed with ``math.fsum``)
for x <= 12; for larger x, one normalized downward (Miller) recurrence,
which yields every order of the same parity at once.  Integer orders are
normalized by J_0 + 2 sum J_2k = 1, half-integer orders by the closed forms
of J_{1/2} and J_{3/2}.  Targets 1e-12 accuracy relative to max(1, |J|) for
x <= 50, nu <= 40.

Zeros are bracketed by a pi/4 scan starting at max(nu, 0.5) and bisected to
1e-13, or to adjacent floats above 512.  The finiteness of the all-orders
nonvanishing check rests on the classical bound j_{nu,1} > nu: orders above x
cannot vanish at x.

Inputs are bounded before any work starts, so that no call runs for long:
nu <= ORDER_MAX = 1000, x <= X_MAX = 1e6 and, for zeros, n <= ZERO_INDEX_MAX
= 300.  The slowest accepted calls take about a second on one core (J at
nu = 1000, x = 1e6: 0.3 s; the 300th zero of J_1000: 0.7 s; every order at
x = 1e6: 0.4 s).  Larger inputs raise ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

__all__ = [
    "ORDER_MAX",
    "X_MAX",
    "ZERO_INDEX_MAX",
    "Order",
    "AllIntegers",
    "EvenHalfIntegers",
    "bessel_j",
    "bessel_zero",
    "all_orders_nonzero",
    "BesselError",
]

_SERIES_MAX_TERMS = 400
_SERIES_MAX_X = 12.0
_ZERO_SCAN_STEP = math.pi / 4.0
_ZERO_BISECT_TOL = 1e-13
# orders above max(x, nu) where the Miller recurrence starts: the smallest margin
# that keeps integer orders n <= 40 at 12 < x <= 50 within 1e-12 of mpmath
# (worst 5.7e-13 on a 41 x 400 grid; 22 gave 1.4e-11, 24 gave 1.5e-12)
_MILLER_MARGIN = 25
NONZERO_THRESHOLD = 1e-9
# the input bounds of the module docstring: the recurrence costs O(max(x, nu)) per call,
# and a zero O(n) such calls
ORDER_MAX = 1000
X_MAX = 1e6
ZERO_INDEX_MAX = 300


class BesselError(ArithmeticError):
    pass


@dataclass(frozen=True)
class Order:
    """Integer or half-integer order, stored as twice its value."""

    twice_nu: int

    def __post_init__(self):
        if self.twice_nu < 0:
            raise ValueError("order must be nonnegative")

    @property
    def nu(self) -> float:
        return self.twice_nu / 2.0

    @property
    def is_integer(self) -> bool:
        return self.twice_nu % 2 == 0

    @staticmethod
    def of(value: Union["Order", int, float, str, Fraction]) -> "Order":
        if isinstance(value, Order):
            return value
        try:
            exact = Fraction(value)
            float(exact)  # an order too large for a float overflows
        except OverflowError:
            raise ValueError(f"order must be finite, got {value}") from None
        frac = exact.limit_denominator(2)
        if frac != exact or frac.denominator not in (1, 2):
            raise ValueError(f"order must be an integer or half-integer, got {value}")
        return Order(int(frac * 2))

    def __str__(self) -> str:
        return str(self.twice_nu // 2) if self.is_integer else f"{self.twice_nu}/2"


@dataclass(frozen=True)
class AllIntegers:
    """Check every integer order 0, 1, 2, ..."""


@dataclass(frozen=True)
class EvenHalfIntegers:
    """Orders (n + 2k - 2)/2 for k = 0, 1, 2, ... (ambient dimension n >= 2)."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("ambient dimension must be >= 2")


def _series(twice_nu: int, x: float) -> float:
    nu = twice_nu / 2.0
    if x == 0.0:
        return 1.0 if twice_nu == 0 else 0.0
    if twice_nu % 2 == 0 and twice_nu <= 300:
        term = (0.5 * x) ** (twice_nu // 2) / math.factorial(twice_nu // 2)
    else:
        term = math.exp(nu * math.log(x / 2.0) - math.lgamma(nu + 1.0))
    q = 0.25 * x * x
    terms = [term]
    for k in range(1, _SERIES_MAX_TERMS):
        term = -term * q / (k * (k + nu))
        terms.append(term)
        if abs(term) < 1e-20 * max(1.0, abs(terms[0])) and k > 4:
            break
    return math.fsum(terms)


def _downward(twice_nu: int, x: float) -> list[float]:
    """J at every order of the parity of ``twice_nu`` up to nu, lowest first, for x > 0.

    One downward recurrence J_{mu-1} = (2 mu / x) J_mu - J_{mu+1} from a tiny
    value well above max(x, nu) (Miller's algorithm), normalized by
    J_0 + 2 sum J_{2k} = 1 at integer orders and by the closed forms of
    J_{1/2} and J_{3/2} at half-integer orders.
    """
    half = twice_nu % 2
    start = int(max(x, twice_nu // 2)) + _MILLER_MARGIN + int(1.3 * math.sqrt(x))
    start += start % 2
    prev, cur = 0.0, 1e-300
    values = []  # from twice order 2 * start + half - 2 down to half
    for twice in range(2 * start + half, half + 1, -2):
        prev, cur = cur, (twice / x) * cur - prev
        values.append(cur)
        if abs(cur) > 1e280:
            prev *= 1e-280
            values = [v * 1e-280 for v in values]
            cur = values[-1]
    values.reverse()
    if half:
        s = math.sqrt(2.0 / (math.pi * x))
        anchors = (s * math.sin(x), s * (math.sin(x) / x - math.cos(x)))
        k = 0 if abs(anchors[0]) >= abs(anchors[1]) else 1
        scale = anchors[k] / values[k]
        return [v * scale for v in values[: twice_nu // 2 + 1]]
    norm = math.fsum([values[0], *(2.0 * v for v in values[2::2])])
    if norm == 0.0:  # pragma: no cover
        raise BesselError(f"Miller normalization vanished at x={x}")
    return [v / norm for v in values[: twice_nu // 2 + 1]]


def _bounded(order: Union[Order, int, float, str]) -> Order:
    o = Order.of(order)
    if o.twice_nu > 2 * ORDER_MAX:
        raise ValueError(f"order must be at most {ORDER_MAX}, got {float(Fraction(o.twice_nu, 2)):g}")
    return o


def _check_x(x: float) -> None:
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    if x > X_MAX:
        raise ValueError(f"x must be at most {X_MAX:g}, got {x}")


def bessel_j(order: Union[Order, int, float, str], x: float) -> float:
    """J_nu(x) for 0 <= x <= X_MAX and nu a nonnegative integer or half-integer up to ORDER_MAX."""
    o = _bounded(order)
    _check_x(x)
    if x < 0:
        raise ValueError(f"x must be nonnegative, got {x}")
    if x <= _SERIES_MAX_X:
        return _series(o.twice_nu, x)
    return _downward(o.twice_nu, x)[-1]


def bessel_zero(order: Union[Order, int, float, str], n: int) -> float:
    """The n-th positive zero j_{nu,n} (1 <= n <= ZERO_INDEX_MAX, nu <= ORDER_MAX), accurate to ~1e-13."""
    o = _bounded(order)
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > ZERO_INDEX_MAX:
        raise ValueError(f"n must be at most {ZERO_INDEX_MAX}, got {n}")
    f = lambda x: bessel_j(o, x)
    x_prev = max(o.nu, 0.5)
    f_prev = f(x_prev)
    found = 0
    # J_nu > 0 on (0, j_{nu,1}), so the scan starts strictly before the first zero
    max_steps = int((n * math.pi + o.nu + 40.0) / _ZERO_SCAN_STEP) + 8
    for _ in range(max_steps):
        x_next = x_prev + _ZERO_SCAN_STEP
        f_next = f(x_next)
        if f_prev == 0.0:
            found += 1
            if found == n:
                return x_prev
        elif f_prev * f_next < 0.0:
            found += 1
            if found == n:
                lo, hi = x_prev, x_next
                f_lo = f_prev
                while hi - lo > _ZERO_BISECT_TOL:
                    mid = 0.5 * (lo + hi)
                    if mid in (lo, hi):  # above 512 adjacent floats lie more than the tolerance apart
                        break
                    f_mid = f(mid)
                    if f_mid == 0.0:
                        return mid
                    if f_lo * f_mid < 0.0:
                        hi = mid
                    else:
                        lo, f_lo = mid, f_mid
                root = 0.5 * (lo + hi)
                if abs(f(root)) >= 1e-11:
                    raise BesselError(f"zero refinement stalled at x={root} for order {o}")
                return root
        x_prev, f_prev = x_next, f_next
    raise BesselError(f"could not bracket zero #{n} of J_{o}")


def all_orders_nonzero(x: float, parity: Union[AllIntegers, EvenHalfIntegers]) -> bool:
    """True iff J_nu(x) is bounded away from zero for every required order.

    Only orders nu <= ceil(x) are evaluated, all by one downward recurrence:
    the first positive zero of J_nu exceeds nu, so larger orders cannot
    vanish at x.  x must not exceed X_MAX.
    """
    _check_x(x)
    if x <= 0:
        raise ValueError("x must be positive")
    first = 0 if isinstance(parity, AllIntegers) else parity.n - 2  # twice the lowest order
    top = 2 * math.ceil(x) - first % 2  # twice the highest order of that parity <= ceil(x)
    if top < first:
        return True
    # below x = 1e-20 every answer is the one at 1e-20 (J_0 ~ 1, and J_{1/2}, J_1 are far
    # below the threshold); the floor keeps each step's factor 2 mu / x below 1e28, so a
    # single step cannot overflow past the 1e280 rescaling
    values = _downward(top, max(x, 1e-20))[first // 2 :]
    return all(abs(v) > NONZERO_THRESHOLD for v in values)
