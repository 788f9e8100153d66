import cmath
import math
import random
import re
import sys
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


# clustered heights, where H_k by Newton's signed recurrence through e_1..e_3
# lost 5.9e-8 at k = 1000 on the first triple and 1.5e-9 at k = 1498 on the second
ACCURACY_TRIPLES = [(0.03, 0.032, 0.12), (1.0, 1.003, 1.01)]


def mp_homog(mpmath, k, vals):
    """H_k of distinct inputs at 50 digits: sum_i x_i^{k+n-1} / prod_{j != i} (x_i - x_j)."""
    with mpmath.workdps(50):
        xs = [mpmath.mpc(v.real, v.imag) for v in vals]
        total = mpmath.mpc(0)
        for i, x in enumerate(xs):
            total += x ** (k + len(xs) - 1) / mpmath.fprod(x - y for j, y in enumerate(xs) if j != i)
        return complex(total)


def witness_tol(p):
    """The separation threshold of ``classify``: 1e-10, or 32 eps C(p, 3) above p = 44."""
    return max(fourlines.WITNESS_TOL, fourlines.WITNESS_EPS * sys.float_info.epsilon * math.comb(p, 3))


def mp_tau(mpmath, a, b, c, p):
    """(tau0, tau1, tau2) from the 3x3 Vandermonde system solved at 50 digits."""
    with mpmath.workdps(50):
        xs = [mpmath.mpc(v.real, v.imag) for v in (a, b, c)]
        tau = mpmath.lu_solve(mpmath.matrix([[1, x, x * x] for x in xs]), mpmath.matrix([-(x**p) for x in xs]))
        return [complex(t) for t in tau]


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

    @pytest.mark.parametrize("k", [1000, 1498])
    def test_high_degree_matches_mpmath(self, k):
        mpmath = pytest.importorskip("mpmath")
        for etas in ACCURACY_TRIPLES:
            pts = [unit(e) for e in etas]
            want = mp_homog(mpmath, k, pts)
            assert abs(homog_sym(k, pts) - want) <= 1e-10 * max(1.0, abs(want)), etas

    def test_divided_difference_identity(self):
        # (a2 - a3) H_{p-3}(a0, a1, a2, a3) = H_{p-2}(a0, a1, a2) - H_{p-2}(a0, a1, a3),
        # the identity classify scores a tuple by; a third of the points are
        # roots of unity of order p (4 at p = 3), a third lie within 0.05 of each other
        rng = random.Random(43)
        for case in range(150):
            p = rng.choice([3, 4, 5, 7, 11, 100, 1000, 1500])
            if case % 3 == 0:
                etas = rng.sample([2.0 * j / max(p, 4) for j in range(max(p, 4))], 4)
            elif case % 3 == 1:
                base = rng.uniform(0.0, 2.0)
                etas = [base + rng.uniform(0.0, 0.05) for _ in range(4)]
            else:
                etas = [rng.uniform(0.0, 2.0) for _ in range(4)]
            a0, a1, a2, a3 = (unit(e) for e in etas)
            h2, h3 = homog_sym(p - 2, (a0, a1, a2)), homog_sym(p - 2, (a0, a1, a3))
            got = (a2 - a3) * homog_sym(p - 3, (a0, a1, a2, a3))
            assert abs(got - (h2 - h3)) <= 1e-10 * max(1.0, abs(h2), abs(h3)), (p, etas)

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

    @pytest.mark.parametrize("p", [1002, 1500])
    def test_high_degree_matches_mpmath(self, p):
        mpmath = pytest.importorskip("mpmath")
        for etas in ACCURACY_TRIPLES:
            pts = [unit(e) for e in etas]
            for got, want in zip(solve_tau(*pts, p), mp_tau(mpmath, *pts, p)):
                assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), etas

    def test_tau_is_three_homog_sym_calls(self, monkeypatch):
        # minus the remainder of x^p modulo (x - a)(x - b)(x - c): H_{p-3}, H_{p-2} and H_{p-1}
        calls, original = [], fourlines.homog_sym
        monkeypatch.setattr(fourlines, "homog_sym", lambda k, vals: calls.append((k, vals)) or original(k, vals))
        a, b, c = unit(0.1), unit(0.7), unit(1.9)
        solve_tau(a, b, c, 7)
        assert sorted(calls, key=lambda call: call[0]) == [(4, (a, b, c)), (5, (a, b, c)), (6, (a, b, c))]


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

    def test_one_homog_sym_call_per_ordered_tuple(self, monkeypatch):
        calls, original = [], fourlines.homog_sym
        monkeypatch.setattr(fourlines, "homog_sym", lambda k, vals: calls.append((k, len(vals))) or original(k, vals))
        assert classify(Fiber(0.0, (0.0, 0.5, 1.0, 1.5)), FourLinesConfig(6)).tag == "P3"
        assert calls == [(3, 4)] * 24

    def test_matches_the_two_h_test_on_seeded_fibers(self):
        # the first ordered tuple whose H_{p-2}(a0, a1, a2) and H_{p-2}(a0, a1, a3)
        # differ by more than the witness tolerance is the witness; a third of the fibers
        # are p-th roots of unity, where many fibers are P3
        rng = random.Random(47)
        for case in range(60):
            p = rng.choice([3, 4, 5, 6, 8, 12, 30])
            n = rng.choice([3, 4, 5])
            if case % 3 == 0:
                etas = rng.sample([2.0 * j / p for j in range(p)], min(n, p))
            else:
                etas = [rng.uniform(0.0, 2.0) for _ in range(n)]
            fiber = periodize([(0.0, e) for e in etas])[0]
            sigma, pts = fiber.sigma, [unit(e) for e in fiber.sigma]
            want, tol = Classification("P3", sigma[:3]), witness_tol(p)
            for idx in permutations(range(len(sigma)), 4):
                q = [pts[i] for i in idx]
                if abs(homog_sym(p - 2, q[:3]) - homog_sym(p - 2, q[:2] + q[3:])) > tol:
                    want = Classification("P4", tuple(sigma[i] for i in idx))
                    break
            assert classify(fiber, FourLinesConfig(p)) == want, (p, sigma)

    def test_clustered_roots_of_unity_at_p1500_are_p3(self):
        # a^p = 1 at every height, so every divided difference is 0; at
        # p = 1500 the tuple (1.116, 1.6933..., 1.1173..., 1.848) rounded to
        # 1.7e-10, above an absolute tolerance of 1e-10, and was taken as a
        # P4 witness
        sigma = (1.116, 1.1173333333333333, 1.6933333333333334, 1.848, 1.9826666666666666)
        assert all(abs(cmath.exp(1j * math.pi * s * 1500) - 1.0) < 1e-9 for s in sigma)
        assert classify(Fiber(0.0, sigma), FourLinesConfig(1500)) == Classification("P3", sigma[:3])

    @pytest.mark.parametrize("p", [200, 1500])
    def test_neighbouring_roots_of_unity_are_p3(self, p):
        # the heights 2k/p round, and the divided differences of the rounded
        # heights of four neighbours reach 1.3 eps C(p, 3) at p = 1500 for
        # start = p - 3, the largest of all starts; the tolerance is 32 eps C(p, 3)
        for start in (0, p // 7, p // 2, p - 3):
            sigma = tuple(sorted(2.0 * ((start + j) % p) / p for j in range(4)))
            assert classify(Fiber(0.0, sigma), FourLinesConfig(p)) == Classification("P3", sigma[:3])

    @pytest.mark.parametrize("p, offset", [(100, 1e-8), (1500, 1e-5)])
    def test_p4_just_off_the_roots_of_unity(self, p, offset):
        # three heights are p-th roots of unity and the fourth is moved by
        # offset: every divided difference is nonzero at 50 digits, at least
        # 100 times the tolerance, yet below 1e-10 C(p, 3), which read them as P3
        mpmath = pytest.importorskip("mpmath")
        sigma = (0.0, 0.5, 1.0, 1.5 + offset)
        pts = [unit(e) for e in sigma]
        exact = [abs((pts[i2] - pts[i3]) * mp_homog(mpmath, p - 3, [pts[i] for i in (i0, i1, i2, i3)]))
                 for i0, i1, i2, i3 in permutations(range(4), 4)]
        assert 100 * witness_tol(p) < min(exact) <= max(exact) < fourlines.WITNESS_TOL * math.comb(p, 3)
        assert classify(Fiber(0.0, sigma), FourLinesConfig(p)) == Classification("P4", sigma)

    @pytest.mark.parametrize("p", [3, 4, 5, 6, 7, 8, 100, 1500])
    def test_matches_mpmath_on_seeded_fibers(self, p):
        # the tag and witness of the divided differences at 50 digits against
        # the same tolerance: random heights, p-th roots of unity (P3), roots
        # of unity clustered as neighbours, where rounding is largest, and
        # roots of unity with one height moved a little, near the P3/P4 line
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(p)
        fibers = [[rng.uniform(0.0, 2.0) for _ in range(rng.choice([3, 4, 5]))] for _ in range(3)]
        fibers.append([2.0 * j / p for j in rng.sample(range(p), min(p, 5))])
        start = rng.randrange(p)
        fibers.append([2.0 * ((start + j) % p) / p for j in {0, 1, 2, p // 3, p // 3 + 1}])
        moved = [2.0 * j / p for j in rng.sample(range(p), min(p, 4))]
        fibers.append(moved[:-1] + [moved[-1] + rng.choice([1e-9, 1e-7, 1e-5])])
        tol = witness_tol(p)
        for etas in fibers:
            fiber = periodize([(0.0, e) for e in etas])[0]
            sigma, pts = fiber.sigma, [unit(e) for e in fiber.sigma]
            want = Classification("P3", sigma[:3])
            for idx in permutations(range(len(sigma)), 4):
                q = [pts[i] for i in idx]
                if abs((q[2] - q[3]) * mp_homog(mpmath, p - 3, q)) > tol:
                    want = Classification("P4", tuple(sigma[i] for i in idx))
                    break
            assert classify(fiber, FourLinesConfig(p)) == want, (p, sigma)

    def test_heights_are_bounded_before_any_work(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a fiber past HEIGHTS_MAX was classified")

        sigma = tuple(0.2 * j for j in range(fourlines.HEIGHTS_MAX + 1))
        monkeypatch.setattr(fourlines, "homog_sym", refuse)
        message = f"fiber at xi = 0.5 has {len(sigma)} distinct heights, more than {fourlines.HEIGHTS_MAX}"
        with pytest.raises(ValueError, match=re.escape(message)):
            classify(Fiber(0.5, sigma), FourLinesConfig(3))
        monkeypatch.undo()
        assert classify(Fiber(0.5, sigma[1:]), FourLinesConfig(3)).tag == "P4"

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

    def test_heights_just_below_zero_are_zero(self):
        # -1e-17 % 2.0 is 2.0, which no fiber takes: the same unit point as 0.0
        fibers = periodize([(0.0, -1e-17), (0.0, 0.5)])
        assert fibers == [Fiber(0.0, (0.0, 0.5))]
        assert classify(fibers[0], FourLinesConfig(3)).tag == "P2"

    def test_heights_just_below_two_are_zero(self):
        # 2 - 1e-13 lies within the distinctness tolerance of 0.0 modulo 2, and is merged into it
        assert periodize([(0, 0), (0, 2 - 1e-13), (0, 0.5)]) == [Fiber(0.0, (0.0, 0.5))]

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

    def test_heights_coinciding_modulo_two_rejected(self):
        with pytest.raises(ValueError, match=f"^heights {2.0 - 1e-13} and 0.0 coincide modulo 2$"):
            Fiber(0.0, (0.0, 2.0 - 1e-13))

    @pytest.mark.parametrize("xi", [math.nan, math.inf, -math.inf])
    def test_nonfinite_xi_rejected(self, xi):
        with pytest.raises(ValueError, match=f"xi must be finite, got {xi}"):
            Fiber(xi, (0.5,))

    def test_unit_points_in_height_order(self):
        points = Fiber(0.0, (1.5, 0.5)).unit_points()
        assert points == (UnitPoint(0.5), UnitPoint(1.5))
        assert [p.a for p in points] == pytest.approx([1j, -1j])

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
