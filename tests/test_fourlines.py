import cmath
import math
import random
from itertools import combinations_with_replacement, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from huplab import fourlines
from huplab.fourlines import (
    P_MAX,
    Classification,
    Fiber,
    FourLinesConfig,
    UnitPoint,
    classify,
    delta_bound,
    homog_sym,
    lift_relation,
    lift_to_degree,
    periodize,
    rho,
    solve_delta,
    solve_e,
    solve_tau,
    vandermonde3_det,
)


def homog_enumeration(k, vals):
    """Independent oracle: direct sum over all degree-k monomial multisets."""
    if k == 0:
        return 1 + 0j
    total = 0j
    for combo in combinations_with_replacement(range(len(vals)), k):
        prod = 1 + 0j
        for idx in combo:
            prod *= vals[idx]
        total += prod
    return total


def unit(eta):
    return cmath.exp(1j * math.pi * eta)


def random_unit_triple(rng, min_sep=1e-3):
    while True:
        pts = [unit(rng.uniform(0.0, 2.0)) for _ in range(3)]
        if min(abs(pts[0] - pts[1]), abs(pts[1] - pts[2]), abs(pts[2] - pts[0])) > min_sep:
            return pts


class TestHomogSym:
    def test_degree_zero(self):
        assert homog_sym(0, [3 + 1j, 2.0]) == 1

    def test_degree_one(self):
        a, b, c = 1.5, 2j, -0.5 + 1j
        assert homog_sym(1, [a, b, c]) == pytest.approx(a + b + c)

    def test_h2_of_1_2(self):
        assert homog_sym(2, [1.0, 2.0]) == pytest.approx(7.0)
        assert homog_enumeration(2, [1.0, 2.0]) == pytest.approx(7.0)

    def test_recurrence_matches_enumeration(self):
        rng = random.Random(42)
        for _ in range(50):
            n = rng.randint(1, 4)
            vals = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)]
            for k in range(0, 9):
                got = homog_sym(k, vals)
                want = homog_enumeration(k, vals)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            homog_sym(-1, [1.0])
        with pytest.raises(ValueError):
            homog_sym(2, [])


class TestVandermondeDet:
    def test_integer_triple(self):
        assert vandermonde3_det(1, 2, 3) == pytest.approx(2.0)
        direct = np.linalg.det(np.array([[1, 1, 1], [1, 2, 4], [1, 3, 9]], dtype=complex))
        assert direct == pytest.approx(2.0)

    def test_repeated_row(self):
        assert vandermonde3_det(0.5j, 0.5j, 1.0) == 0

    def test_unit_triple(self):
        assert vandermonde3_det(1, 1j, -1) == pytest.approx(-4.0)

    def test_matches_numpy_random(self):
        rng = random.Random(3)
        for _ in range(100):
            a, b, c = random_unit_triple(rng)
            direct = np.linalg.det(np.array([[1, a, a * a], [1, b, b * b], [1, c, c * c]]))
            assert vandermonde3_det(a, b, c) == pytest.approx(direct, rel=1e-10, abs=1e-12)


class TestSolveTau:
    def test_p3_is_elementary(self):
        rng = random.Random(11)
        for _ in range(200):
            a, b, c = random_unit_triple(rng)
            assert solve_tau(a, b, c, 3) == pytest.approx(solve_e(a, b, c), abs=1e-13)

    def test_hand_example(self):
        t0, t1, t2 = solve_tau(1, -1, 1j, 3)
        assert (t0, t1, t2) == pytest.approx((1j, -1, -1j))
        # root check at x = 1: 1 + tau2 + tau1 + tau0 = 1 - i - 1 + i = 0
        assert 1 + t2 + t1 + t0 == pytest.approx(0)

    def test_matches_dense_solve(self):
        rng = random.Random(13)
        for _ in range(100):
            a, b, c = random_unit_triple(rng)
            p = rng.choice([4, 5, 7, 11])
            tau = solve_tau(a, b, c, p)
            A = np.array([[1, a, a * a], [1, b, b * b], [1, c, c * c]])
            B = -np.array([a**p, b**p, c**p])
            dense = np.linalg.solve(A, B)
            for got, want in zip(tau, dense):
                assert got == pytest.approx(want, rel=1e-10, abs=1e-10)

    def test_root_property(self):
        rng = random.Random(17)
        for _ in range(100):
            a, b, c = random_unit_triple(rng)
            p = rng.choice([3, 4, 5, 7, 11])
            t0, t1, t2 = solve_tau(a, b, c, p)
            for x in (a, b, c):
                assert abs(x**p + t2 * x * x + t1 * x + t0) < 1e-10

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            solve_tau(1.0, 1.0 + 1e-15, 1j, 5)


class TestSolveDelta:
    def test_plus_minus_one(self):
        assert solve_delta(1, -1) == pytest.approx((-1, 0))

    def test_one_i(self):
        d0, d1 = solve_delta(1, 1j)
        assert (d0, d1) == pytest.approx((1j, -(1 + 1j)))

    def test_root_property_bulk(self):
        rng = random.Random(19)
        for _ in range(10_000):
            x0 = unit(rng.uniform(0, 2))
            x1 = unit(rng.uniform(0, 2))
            if abs(x0 - x1) < 1e-9:
                continue
            d0, d1 = solve_delta(x0, x1)
            assert abs(x0 * x0 + d1 * x0 + d0) < 1e-12
            assert abs(x1 * x1 + d1 * x1 + d0) < 1e-12

    def test_coincident_rejected(self):
        with pytest.raises(ValueError):
            solve_delta(1j, 1j)


class TestSolveE:
    def test_hand_example(self):
        e0, e1, e2 = solve_e(1, -1, 1j)
        assert (e0, e1, e2) == pytest.approx((1j, -1, -1j))
        assert 1 + e2 + e1 + e0 == pytest.approx(0)

    def test_integer_roots_factorization(self):
        e0, e1, e2 = solve_e(1.0, 2.0, 3.0)
        assert (e0, e1, e2) == pytest.approx((-6.0, 11.0, -6.0))
        roots = np.sort(np.roots([1.0, e2, e1, e0]).real)
        assert roots == pytest.approx([1.0, 2.0, 3.0], abs=1e-10)


class TestRho:
    def test_degenerate_zero(self):
        a, c = unit(0.3), unit(1.2)
        assert rho(a, a, c) == 0

    def test_hand_example(self):
        assert rho(1, -1, 1j) == pytest.approx(-16.0)

    def test_permutation_invariance(self):
        rng = random.Random(23)
        for _ in range(200):
            a, b, c = random_unit_triple(rng)
            base = rho(a, b, c)
            for perm in permutations((a, b, c)):
                assert rho(*perm) == pytest.approx(base, rel=1e-12, abs=1e-12)

    def test_zero_iff_coincident(self):
        rng = random.Random(29)
        for _ in range(200):
            a, b, c = random_unit_triple(rng, min_sep=1e-2)
            assert abs(rho(a, b, c)) > 1e-10


class TestDeltaBound:
    def test_antipodal(self):
        assert delta_bound(UnitPoint(0.0), UnitPoint(1.0)) == pytest.approx(0.0)

    def test_quarter_turn(self):
        assert delta_bound(UnitPoint(0.0), UnitPoint(0.5)) == pytest.approx(math.sqrt(2.0))

    @given(
        st.floats(min_value=0.0, max_value=2.0, exclude_max=True),
        st.floats(min_value=0.0, max_value=2.0, exclude_max=True),
    )
    @settings(max_examples=300)
    def test_strictly_below_two_when_distinct(self, e0, e1):
        # 2 cos(pi*gap/2) is distinguishable from 2 in float64 only for
        # circular gaps above ~1.4e-8; below that the bound saturates
        gap = abs(e0 - e1)
        if min(gap, 2.0 - gap) < 1e-7:
            return
        assert delta_bound(UnitPoint(e0), UnitPoint(e1)) < 2.0

    def test_two_only_in_coincident_limit(self):
        assert delta_bound(UnitPoint(0.7), UnitPoint(0.7 + 1e-8)) > 2.0 - 1e-7


class TestClassify:
    def test_singleton_p1(self):
        assert classify(Fiber(0.0, (0.5,)), FourLinesConfig(3)).tag == "P1"

    def test_pair_p2(self):
        assert classify(Fiber(0.0, (0.5, 1.25)), FourLinesConfig(5)).tag == "P2"

    def test_triple_p3(self):
        assert classify(Fiber(0.0, (0.1, 0.9, 1.4)), FourLinesConfig(4)).tag == "P3"

    def test_p3_quadruple_at_p3_is_p4(self):
        # H_1 is injective in its last argument, so any 4 distinct points witness
        cls = classify(Fiber(0.0, (0.0, 0.5, 1.0, 1.5)), FourLinesConfig(3))
        assert cls.tag == "P4"
        assert len(cls.witness) == 4

    def test_fourth_roots_at_p4_are_p3(self):
        cls = classify(Fiber(0.0, (0.0, 0.5, 1.0, 1.5)), FourLinesConfig(4))
        assert cls.tag == "P3"
        # independent exhaustive confirmation via the enumeration oracle
        pts = [unit(e) for e in (0.0, 0.5, 1.0, 1.5)]
        for i0, i1, i2, i3 in permutations(range(4), 4):
            h2 = homog_enumeration(2, [pts[i0], pts[i1], pts[i2]])
            h3 = homog_enumeration(2, [pts[i0], pts[i1], pts[i3]])
            assert abs(h2 - h3) < 1e-12

    def test_random_quadruples_at_p3_are_p4(self):
        rng = random.Random(31)
        for _ in range(100):
            etas = sorted(rng.uniform(0.0, 2.0) for _ in range(4))
            if min(b - a for a, b in zip(etas, etas[1:])) < 1e-6:
                continue
            assert classify(Fiber(0.0, tuple(etas)), FourLinesConfig(3)).tag == "P4"

    def test_permutation_and_mod2_invariance(self):
        etas = (0.2, 0.8, 1.1, 1.7)
        base = classify(Fiber(0.0, etas), FourLinesConfig(4)).tag
        shuffled = Fiber(0.0, (1.1, 0.2, 1.7, 0.8))
        assert classify(shuffled, FourLinesConfig(4)).tag == base
        relabeled = periodize([(0.0, e + 2.0) for e in etas])[0]
        assert classify(relabeled, FourLinesConfig(4)).tag == base


class TestPeriodize:
    def test_reduce_mod_two(self):
        fibers = periodize([(0.0, 3.5)])
        assert fibers == [Fiber(0.0, (1.5,))]

    def test_dedup(self):
        fibers = periodize([(0.0, 0.5), (0.0, 2.5)])
        assert fibers == [Fiber(0.0, (0.5,))]

    def test_negative_heights(self):
        assert periodize([(0.0, -0.5)]) == [Fiber(0.0, (1.5,))]

    def test_groups_by_xi_sorted(self):
        fibers = periodize([(1.0, 0.1), (-1.0, 0.2), (1.0, 1.3)])
        assert [f.xi for f in fibers] == [-1.0, 1.0]
        assert fibers[1].sigma == (0.1, 1.3)


class TestFiberValidation:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Fiber(0.0, ())

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Fiber(0.0, (2.5,))

    def test_near_coincident_rejected(self):
        with pytest.raises(ValueError):
            Fiber(0.0, (0.5, 0.5 + 1e-14))

    @pytest.mark.parametrize("xi", [math.nan, math.inf, -math.inf])
    def test_nonfinite_xi_rejected(self, xi):
        with pytest.raises(ValueError, match=f"xi must be finite, got {xi}"):
            Fiber(xi, (0.5,))

    def test_unit_point_range(self):
        with pytest.raises(ValueError):
            UnitPoint(2.0)
        assert abs(abs(UnitPoint(1.37).a) - 1.0) < 1e-14


class TestLift:
    def test_trivial_example(self):
        phi2, phi1, phi0 = lift_relation(np.array([1.0 + 0j]), (np.array([-1.0 + 0j]), np.array([0j])), np.array([0j]))
        assert (phi2[0], phi1[0], phi0[0]) == (-1, 0, 0)
        # degree-3 relation at psi = 1: 1 - 1 = 0
        assert abs(1.0 + phi2[0] + phi1[0] + phi0[0]) < 1e-15

    def test_lift_from_vieta_grid(self):
        rng = random.Random(37)
        psi, c1, c0, f0 = [], [], [], []
        for _ in range(200):
            x0, x1 = unit(rng.uniform(0, 2)), unit(rng.uniform(0, 2))
            if abs(x0 - x1) < 1e-6:
                continue
            d0, d1 = solve_delta(x0, x1)
            psi.append(x0)
            c1.append(d1)
            c0.append(d0)
            f0.append(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
        psi, c1, c0, f0 = map(np.asarray, (psi, c1, c0, f0))
        phi2, phi1, phi0 = lift_relation(psi, (c1, c0), f0)
        residual = np.max(np.abs(psi**3 + phi2 * psi**2 + phi1 * psi + phi0))
        assert residual < 1e-9

    def test_iterated_lift_reaches_degree_five(self):
        rng = random.Random(41)
        psi, c1, c0, f0 = [], [], [], []
        for _ in range(200):
            x0, x1 = unit(rng.uniform(0, 2)), unit(rng.uniform(0, 2))
            if abs(x0 - x1) < 1e-6:
                continue
            d0, d1 = solve_delta(x0, x1)
            psi.append(x1)
            c1.append(d1)
            c0.append(d0)
            f0.append(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
        psi, c1, c0, f0 = map(np.asarray, (psi, c1, c0, f0))
        b2, b1, b0 = lift_to_degree(psi, (c1, c0), f0, 5)
        residual = np.max(np.abs(psi**5 + b2 * psi**2 + b1 * psi + b0))
        assert residual < 1e-8

    @pytest.mark.parametrize(
        "call",
        [
            lambda: FourLinesConfig(P_MAX + 1),
            lambda: solve_tau(1, -1, 1j, P_MAX + 1),
            lambda: lift_to_degree(np.ones(1), (np.zeros(1), np.zeros(1)), np.zeros(1), 10**9),
        ],
        ids=["config", "tau", "lift"],
    )
    def test_p_is_bounded_before_any_work(self, monkeypatch, call):
        def refuse(*args):
            raise AssertionError("p was not checked first")

        monkeypatch.setattr(fourlines, "homog_sym", refuse)
        monkeypatch.setattr(fourlines, "lift_relation", refuse)
        with pytest.raises(ValueError, match=f"p must be at most {P_MAX}, got "):
            call()

    def test_violated_input_relation_rejected(self):
        psi = np.array([1.0 + 0j])
        with pytest.raises(ValueError, match="relation violated"):
            lift_relation(psi, (np.array([0j]), np.array([0.5 + 0j])), np.array([0j]))
