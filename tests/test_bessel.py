import math
import random
import re

import numpy as np
import pytest

from huplab.bessel import (
    AllIntegers,
    EvenHalfIntegers,
    Order,
    all_orders_nonzero,
    bessel_j,
    bessel_zero,
)
from huplab.quadrature import QuadOpts, integrate

from conftest import bessel_series


class TestOrder:
    def test_parsing(self):
        assert Order.of(3).twice_nu == 6
        assert Order.of("1/2").twice_nu == 1
        assert Order.of(0.5).twice_nu == 1
        assert Order.of(Order(4)).twice_nu == 4
        assert str(Order.of("3/2")) == "3/2"
        assert str(Order.of(2)) == "2"

    def test_rejects_other_orders(self):
        with pytest.raises(ValueError):
            Order.of(1 / 3)
        with pytest.raises(ValueError):
            Order(-1)

    @pytest.mark.parametrize("order", ["1e400", math.inf, -math.inf, 10**400])
    def test_rejects_orders_not_finite_as_floats(self, order):
        # "1e400" and 10**400 overflowed in nu, the infinities in Fraction
        with pytest.raises(ValueError, match=re.escape(f"order must be finite, got {order}")):
            Order.of(order)


class TestValues:
    def test_at_zero(self):
        assert bessel_j(0, 0.0) == 1.0
        assert bessel_j(1, 0.0) == 0.0
        assert bessel_j("1/2", 0.0) == 0.0

    def test_half_integer_closed_form(self):
        # J_{1/2}(x) = sqrt(2/(pi x)) sin x
        for x in (0.3, 1.0, math.pi, 7.7, 20.0, 43.0):
            want = math.sqrt(2.0 / (math.pi * x)) * math.sin(x)
            assert bessel_j("1/2", x) == pytest.approx(want, abs=1e-13, rel=1e-12)

    def test_half_at_pi_vanishes(self):
        assert abs(bessel_j("1/2", math.pi)) < 1e-12

    def test_three_halves_closed_form(self):
        # J_{3/2}(x) = sqrt(2/(pi x)) (sin x / x - cos x)
        for x in (0.5, 2.0, 9.0, 31.0):
            want = math.sqrt(2.0 / (math.pi * x)) * (math.sin(x) / x - math.cos(x))
            assert bessel_j("3/2", x) == pytest.approx(want, abs=1e-13, rel=1e-11)

    def test_against_series_oracle_small_x(self):
        for k in range(0, 12):
            for x in (0.1, 0.7, 2.0, 5.5, 9.0, 12.0):
                assert bessel_j(k, x) == pytest.approx(bessel_series(k, x), abs=1e-13)

    def test_miller_matches_series_oracle_above_threshold(self):
        # oracle precision degrades with x through cancellation; 1e-7 at x=20
        for k in range(0, 6):
            for x in (12.5, 16.0, 20.0):
                assert bessel_j(k, x) == pytest.approx(bessel_series(k, x), abs=1e-7)

    def test_integer_orders_match_mpmath_in_miller_range(self):
        # the documented target, 1e-12 relative to max(1, |J|), where the
        # Miller recurrence runs: integer orders n <= 40 at max(12, n) < x <= 50
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(20261018)
        worst = 0.0
        with mpmath.workdps(30):
            for _ in range(2000):
                n = rng.randint(0, 40)
                x = rng.uniform(max(12.0, n), 50.0)
                want = float(mpmath.besselj(n, x))
                worst = max(worst, abs(bessel_j(n, x) - want) / max(1.0, abs(want)))
        assert worst <= 1e-12

    def test_both_parities_match_mpmath(self):
        # the documented target over its whole range: nu <= 40 in both parities,
        # 0 < x <= 50.  J_{71/2}(35.42179100127359) was 1.4e-10 off when the power
        # series ran up to x = nu; it is the first point.
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(20261019)
        points = [(71, 35.42179100127359), (80, 12.0), (79, 12.000000001), (1, 50.0)]
        points += [(rng.randint(0, 80), rng.uniform(1e-3, 50.0)) for _ in range(1500)]
        worst = (0.0, (0, 0.0))
        with mpmath.workdps(30):
            for twice_nu, x in points:
                want = float(mpmath.besselj(mpmath.mpf(twice_nu) / 2, x))
                error = abs(bessel_j(Order(twice_nu), x) - want) / max(1.0, abs(want))
                worst = max(worst, (error, (twice_nu, x)))
        assert worst[0] <= 1e-12, worst

    def test_negative_x_rejected(self):
        with pytest.raises(ValueError):
            bessel_j(0, -1.0)


def test_recurrence_residual():
    # |J_{nu-1} + J_{nu+1} - (2 nu / x) J_nu| < 1e-10
    xs = [0.1, 0.5, 1.0, 2.5, 5.0, 8.0, 12.0, 13.0, 17.0, 21.0, 26.0, 30.0]
    worst = 0.0
    for twice_nu in range(2, 41):  # nu = 1 .. 20
        nu = twice_nu / 2.0
        for x in xs:
            lhs = bessel_j(Order(twice_nu - 2), x) + bessel_j(Order(twice_nu + 2), x)
            rhs = (2.0 * nu / x) * bessel_j(Order(twice_nu), x)
            worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-10


def test_integral_representation():
    # J_k(x) = (1/pi) integral_0^pi cos(k theta - x sin theta) d theta
    opts = QuadOpts(oscillation_hint=40.0)
    for k in (0, 1, 3, 7):
        for x in (0.5, 3.0, 11.0, 25.0):
            res = integrate(lambda th: np.cos(k * th - x * np.sin(th)) + 0j, (0.0, math.pi), opts)
            assert bessel_j(k, x) == pytest.approx(res.value.real / math.pi, abs=1e-9)


class TestZeros:
    def test_first_zero_of_j0(self):
        assert bessel_zero(0, 1) == pytest.approx(2.404825557695773, abs=1e-12)

    def test_second_zero_of_j0(self):
        assert bessel_zero(0, 2) == pytest.approx(5.5200781102863106, abs=1e-11)

    def test_half_integer_zeros_are_multiples_of_pi(self):
        for n in (1, 2, 3, 7):
            assert bessel_zero("1/2", n) == pytest.approx(n * math.pi, abs=1e-11)

    def test_ordering(self):
        assert bessel_zero(0, 2) > bessel_zero(0, 1)

    def test_residual_at_zero(self):
        for order, n in ((0, 1), (1, 1), (2, 3), ("3/2", 2), (5, 1)):
            assert abs(bessel_j(order, bessel_zero(order, n))) < 1e-11

    def test_interlacing(self):
        for twice_nu in (0, 1, 2, 3, 7, 10):
            for n in (1, 2, 3):
                z = bessel_zero(Order(twice_nu), n)
                assert z < bessel_zero(Order(twice_nu + 2), n) < bessel_zero(Order(twice_nu), n + 1)

    def test_n_validation(self):
        with pytest.raises(ValueError):
            bessel_zero(0, 0)


class TestAllOrdersNonzero:
    def test_small_x_true(self):
        # only orders 0 and 1 matter at x=1; both are far from zero
        assert all_orders_nonzero(1.0, AllIntegers()) is True

    def test_at_first_zero_false(self):
        assert all_orders_nonzero(bessel_zero(0, 1), AllIntegers()) is False

    def test_half_integer_small(self):
        assert all_orders_nonzero(0.5, EvenHalfIntegers(3)) is True

    def test_half_integer_at_sine_zero(self):
        assert all_orders_nonzero(math.pi, EvenHalfIntegers(3)) is False

    def test_x_validation(self):
        with pytest.raises(ValueError):
            all_orders_nonzero(0.0, AllIntegers())
        with pytest.raises(ValueError):
            EvenHalfIntegers(1)
