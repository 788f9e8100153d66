import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from huplab import geometry
from huplab.expr import parse
from huplab.fourlines import Fiber
from huplab.quadrature import QuadOpts, truncate_interval
from huplab.geometry import (
    POINTS_MAX,
    CircleSet,
    CompactSupport,
    CurveSet,
    EmptyIntersectionError,
    ExpDecay,
    FiberList,
    GaussianDecay,
    LatticeCross,
    Line,
    Lines,
    Measure,
    ParamCurve,
    anti_spiral,
    circle,
    curve_point,
    exp_curve,
    expr_curve,
    hyperbola_branch,
    hyperbola_full,
    parabola,
    parallel_lines,
    sample_set,
    spiral,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")


class TestCurvePoint:
    def test_circle_at_zero(self):
        assert curve_point(circle(), 0, 0.0) == pytest.approx((1.0, 0.0))

    def test_hyperbola_branch_at_zero(self):
        assert curve_point(hyperbola_branch(), 0, 0.0) == pytest.approx((1.0, 0.0))

    def test_spiral_at_zero(self):
        assert curve_point(spiral(), 0, 0.0) == pytest.approx((1.0, 0.0))

    def test_outside_domain(self):
        with pytest.raises(ValueError, match="outside domain"):
            curve_point(hyperbola_branch(), 0, -1.0)
        with pytest.raises(ValueError, match="outside domain"):
            curve_point(circle(), 0, 4.0)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"kind": "ellipse"}, "unknown curve kind"),
            ({"kind": "parallel-lines"}, "parallel-lines curve needs heights"),
            ({"kind": "circle", "heights": (1.0,)}, "circle curve takes no heights"),
            ({"kind": "expr", "x_expr": parse("t"), "y_expr": parse("t")}, "expr curve needs expr_domain"),
        ],
    )
    def test_fields_must_match_kind(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ParamCurve(**kwargs)

    def test_anti_spiral_is_its_kind(self):
        assert anti_spiral() == ParamCurve("anti-spiral")

    def test_parallel_lines_components(self):
        pl = parallel_lines([0.0, 1.0, 2.0, 5.0])
        assert pl.n_components == 4
        assert curve_point(pl, 3, 2.5) == pytest.approx((2.5, 5.0))
        with pytest.raises(ValueError, match="component"):
            curve_point(pl, 4, 0.0)


@given(st.floats(min_value=-math.pi, max_value=math.pi))
def test_circle_identity(t):
    x, y = curve_point(circle(), 0, t)
    assert abs(x * x + y * y - 1.0) < 1e-12


@given(st.floats(min_value=-5.0, max_value=5.0))
def test_hyperbola_identity(t):
    x, y = curve_point(hyperbola_full(), 0, t)
    assert abs(x * x - y * y - 1.0) < 1e-9 * max(1.0, x * x)


@given(st.floats(min_value=0.0, max_value=20.0))
def test_spiral_radius(t):
    x, y = curve_point(spiral(), 0, t)
    assert abs(math.hypot(x, y) - math.exp(-t)) < 1e-12


@given(st.floats(min_value=-3.0, max_value=3.0))
def test_exp_curve_height(t):
    x, y = curve_point(exp_curve(), 0, t)
    assert x == t
    assert abs(y - math.exp(t * t)) < 1e-9 * math.exp(t * t)


class TestSampleSet:
    def test_lattice_cross_enumeration(self):
        pts = sample_set(LatticeCross(1.0, 1.0), 1, (-2.0, 2.0, -2.0, 2.0))
        assert pts == [
            (-2.0, 0.0), (-1.0, 0.0), (0.0, 0.0), (1.0, 0.0), (2.0, 0.0),
            (0.0, -2.0), (0.0, -1.0), (0.0, 1.0), (0.0, 2.0),
        ]

    def test_circle_uniform_angles(self):
        pts = sample_set(CircleSet(1.0), 4, (-2.0, 2.0, -2.0, 2.0))
        expect = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]
        for got, want in zip(pts, expect):
            assert got == pytest.approx(want, abs=1e-15)

    def test_fiber_periodic_expansion(self):
        lam = FiberList((Fiber(0.5, (0.25,)),), periodic2=True)
        pts = sample_set(lam, 1, (0.0, 1.0, 0.0, 4.0))
        assert pts == [(0.5, 0.25), (0.5, 2.25)]

    def test_periodic_shift_invariance(self):
        # replicas of eta and eta+2 coincide inside the window
        lam = FiberList((Fiber(0.0, (0.75,)),), periodic2=True)
        window = (-1.0, 1.0, -6.0, 6.0)
        pts = sample_set(lam, 1, window)
        shifted = [(x, y + 2.0) for x, y in pts if y + 2.0 <= window[3]]
        assert set(shifted) <= set(pts)

    def test_line_clipped_uniform(self):
        pts = sample_set(Line((0.0, 0.0), (1.0, 0.0)), 5, (-10.0, 10.0, -1.0, 1.0))
        assert pts == [(-10.0, 0.0), (-5.0, 0.0), (0.0, 0.0), (5.0, 0.0), (10.0, 0.0)]

    def test_lines_union(self):
        lam = Lines((Line((0.0, 0.0), (1.0, 0.0)), Line((0.0, 0.0), (0.0, 1.0))))
        pts = sample_set(lam, 6, (-1.0, 1.0, -1.0, 1.0))
        assert len(pts) == 6

    def test_lines_need_a_line(self):
        with pytest.raises(ValueError, match="^need at least one line$"):
            Lines(())

    def test_fibers_without_periodic2_keep_their_heights_in_the_window(self):
        # no height is repeated: 1.5 lies above the window and the fiber at 3 right of it
        lam = FiberList((Fiber(0.5, (0.25, 1.5)), Fiber(-0.5, (0.0, 0.75)), Fiber(3.0, (0.5,))))
        window = (-1.0, 1.0, 0.0, 1.0)
        count, points = lam._plan(1, window)
        assert count == 3 and points() == [(0.5, 0.25), (-0.5, 0.0), (-0.5, 0.75)]
        assert sample_set(lam, 1, window) == points()

    def test_lines_take_two_samples_each_where_they_outnumber_n(self):
        # one sample a line was each line's midpoint, which for concurrent
        # lines is the common point: 12 lines gave 12 copies of the origin
        angles = [m * math.pi / 12 for m in range(12)]
        lam = Lines(tuple(Line((0.0, 0.0), (math.cos(a), math.sin(a))) for a in angles))
        pts = sample_set(lam, 4, (-10.0, 10.0, -10.0, 10.0))
        assert len(pts) == len(set(pts)) == 24 and (0.0, 0.0) not in pts

    @pytest.mark.parametrize(
        "lam, window, count",
        [
            (LatticeCross(1e-5, 1.0), (-10.0, 10.0, -1.0, 1.0), "2000001"),
            (LatticeCross(1.0, 1e-310), (-1.0, 1.0, -10.0, 10.0), "inf"),
            (FiberList((Fiber(0.0, (0.0,)),), periodic2=True), (-1.0, 1.0, 0.0, 2e6), "1000001"),
            (FiberList((Fiber(0.0, (0.0,)),), periodic2=True), (-1.0, 1.0, -1e300, 1e300), r"1e\+300"),
        ],
        ids=["lattice-2e6", "lattice-overflow", "periodic-1e6", "periodic-1e300"],
    )
    def test_point_counts_over_the_bound_are_rejected_before_enumeration(self, lam, window, count):
        # the lattice took 0.71 s and the fibers 0.35 s to enumerate; the
        # other two raised OverflowError or ran without bound
        with pytest.raises(ValueError, match=f"takes {count} points, more than {POINTS_MAX}$"):
            sample_set(lam, 1, window)

    def test_curve_samples_satisfy_identity(self):
        pts = sample_set(CurveSet(circle()), 64, (-2.0, 2.0, -2.0, 2.0))
        for x, y in pts:
            assert abs(x * x + y * y - 1.0) < 1e-12

    def test_spiral_set_samples_on_spiral(self):
        pts = sample_set(CurveSet(spiral()), 200, (-1.0, 1.0, -1.0, 1.0))
        for x, y in pts:
            r = math.hypot(x, y)
            t = -math.log(r)
            xx, yy = curve_point(spiral(), 0, t)
            assert (x, y) == pytest.approx((xx, yy), abs=1e-9)

    @pytest.mark.parametrize("curve, lowest", [(hyperbola_full(), -1.0), (hyperbola_branch(), 0.0)])
    def test_hyperbola_set_samples_on_the_right_branch_in_the_window(self, curve, lowest):
        # the window cuts the branch at y = -1 (the full hyperbola; the half
        # branch starts at y = 0) and at y = 2, where x = sqrt(5) < 2.5
        window = (-3.0, 2.5, -1.0, 2.0)
        pts = sample_set(CurveSet(curve), 64, window)
        assert len(pts) > 32
        for x, y in pts:
            assert abs(x * x - y * y - 1.0) < 1e-12
            assert 1.0 <= x <= window[1] and window[2] <= y <= window[3]
        ys = [y for _, y in pts]
        assert min(ys) == pytest.approx(lowest, abs=0.1) and max(ys) == pytest.approx(2.0, abs=0.1)

    @pytest.mark.parametrize(
        "curve, height, reach",
        [(parabola(), lambda t: t * t, math.sqrt(1e300)), (exp_curve(), lambda t: math.exp(t * t), 26.28)],
        ids=["parabola", "exp-curve"],
    )
    def test_even_curve_set_samples_up_to_the_window_top(self, curve, height, reach):
        # the parameter range was the window's x range: on [-1e200, 1e200] the
        # heights overflowed, with a RuntimeWarning, and no point was found
        window = (-1e200, 1e200, -1.0, 1e300)
        pts = sample_set(CurveSet(curve), 9, window)
        assert len(pts) == 9 and (0.0, height(0.0)) in pts
        assert all(y == pytest.approx(height(x), rel=1e-12) and y <= 1e300 for x, y in pts)
        assert max(x for x, _ in pts) == pytest.approx(reach, rel=1e-3)

    @pytest.mark.parametrize("curve, top", [(parabola(), -0.5), (exp_curve(), 0.99)], ids=["parabola", "exp-curve"])
    def test_even_curve_set_below_its_vertex_is_empty(self, curve, top):
        with pytest.raises(EmptyIntersectionError):
            sample_set(CurveSet(curve), 16, (-3.0, 3.0, -2.0, top))

    def test_hyperbola_set_left_of_its_vertex_is_empty(self):
        with pytest.raises(EmptyIntersectionError):
            sample_set(CurveSet(hyperbola_full()), 16, (-3.0, 0.9, -2.0, 2.0))

    def test_empty_intersection(self):
        with pytest.raises(EmptyIntersectionError):
            sample_set(Line((0.0, 5.0), (1.0, 0.0)), 8, (-1.0, 1.0, -1.0, 1.0))

    def test_degenerate_window(self):
        with pytest.raises(ValueError, match="window"):
            sample_set(CircleSet(1.0), 4, (0.0, 0.0, -1.0, 1.0))

    def test_n_validation(self):
        with pytest.raises(ValueError):
            sample_set(CircleSet(1.0), 0, (-2.0, 2.0, -2.0, 2.0))

    @pytest.mark.parametrize(
        "lam, window, expect",
        [
            (LatticeCross(1e-300, 1.0), (-10.0, 10.0, 1.0, 2.0), [(0.0, 1.0), (0.0, 2.0)]),
            (LatticeCross(1.0, 1e-300), (1.0, 2.0, -10.0, 10.0), [(1.0, 0.0), (2.0, 0.0)]),
        ],
        ids=["x-axis-outside", "y-axis-outside"],
    )
    def test_a_lattice_axis_outside_the_window_costs_nothing(self, lam, window, expect):
        # the enumeration walked the outside axis's 2e301 indices and never
        # ended (a step of 1e-7 took 9.1 s); a subprocess turns such a walk
        # into a timeout
        code = f"from huplab.geometry import LatticeCross, sample_set; print(sample_set({lam!r}, 1, {window!r}))"
        env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", ""), "PYTHONWARNINGS": "error"}
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
        assert (res.returncode, res.stdout, res.stderr) == (0, f"{expect}\n", "")

    def test_the_bound_counts_the_points_that_are_made(self, monkeypatch):
        # one point under the bound rejects every sample: a lattice cross or
        # periodic fibers with their exact count, the other sets with a count
        # at least as large
        rng = random.Random(19)
        curves = [circle(), hyperbola_full(), spiral(), parabola(), parallel_lines([0.0, 0.5])]
        seen = {}
        for _ in range(150):
            xmin, xmax = sorted(rng.uniform(-6.0, 6.0) for _ in range(2))
            ymin, ymax = sorted(rng.uniform(-6.0, 6.0) for _ in range(2))
            n = rng.randint(1, 300)
            angles = [rng.uniform(0.0, math.pi) for _ in range(3)]
            origins = [(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)) for _ in angles]
            lines = tuple(Line(o, (math.cos(a), math.sin(a))) for o, a in zip(origins, angles))
            fibers = tuple(Fiber(rng.uniform(-6.0, 6.0), (0.0, rng.uniform(0.5, 1.9))) for _ in range(3))
            sets = [
                LatticeCross(rng.uniform(0.05, 2.0), rng.uniform(0.05, 2.0)),
                FiberList(fibers, periodic2=True),
                lines[0],
                Lines(lines),
                CircleSet(rng.uniform(0.5, 6.0)),
                CurveSet(rng.choice(curves)),
            ]
            for lam in sets:
                monkeypatch.setattr(geometry, "POINTS_MAX", POINTS_MAX)
                try:
                    points = sample_set(lam, n, (xmin, xmax, ymin, ymax))
                except EmptyIntersectionError:
                    continue
                monkeypatch.setattr(geometry, "POINTS_MAX", len(points) - 1)
                with pytest.raises(ValueError, match=r"takes (\S+) points, more than") as info:
                    sample_set(lam, n, (xmin, xmax, ymin, ymax))
                count = float(re.search(r"takes (\S+) points", str(info.value)).group(1))
                kind = type(lam).__name__
                if kind in ("LatticeCross", "FiberList"):
                    assert count == len(points), (lam, (xmin, xmax, ymin, ymax))
                else:
                    assert count >= len(points), (lam, n, (xmin, xmax, ymin, ymax))
                seen[kind] = seen.get(kind, 0) + 1
        assert len(seen) == 6 and min(seen.values()) >= 20, seen

    def test_a_count_past_the_largest_float_is_inf(self):
        # the difference of the axis indices, 3.3e308 each, raised
        # OverflowError as a float: a traceback from ft
        with pytest.raises(ValueError, match=f"takes inf points, more than {POINTS_MAX}$"):
            sample_set(LatticeCross(0.6, 0.6), 1, (-1e308, 1e308, -1e308, 1e308))

    @pytest.mark.parametrize("domain", [(-math.inf, math.inf), (-1e308, 1e308), (0.0, math.inf)])
    def test_a_curve_component_needs_a_finite_parameter_range(self, domain):
        # linspace over it gave nan points, with RuntimeWarnings, and then
        # "CurveSet does not meet window"
        lam = CurveSet(expr_curve(parse("t"), parse("t^2"), domain))
        message = (
            f"expr curve component 0 has the parameter range [{domain[0]}, {domain[1]}] "
            "in window (-1.0, 1.0, -1.0, 1.0), whose length is not finite"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sample_set(lam, 16, (-1.0, 1.0, -1.0, 1.0))


class TestMeasure:
    def test_component_count_enforced(self):
        with pytest.raises(ValueError, match="component"):
            Measure(parallel_lines([0.0, 1.0]), (parse("1"),))

    def test_density_evaluates(self):
        m = Measure(circle(), (parse("sin(t)"),))
        vals = m.density(0)(np.array([0.0, math.pi / 2]))
        assert vals == pytest.approx([0.0, 1.0])

    def test_decay_validation(self):
        with pytest.raises(ValueError):
            CompactSupport(1.0, -1.0)
        with pytest.raises(ValueError):
            ExpDecay(-1.0)
        with pytest.raises(ValueError):
            GaussianDecay(0.0)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: CompactSupport(-1.0, math.inf), "support bounds must be finite"),
            (lambda: ExpDecay(math.inf), "rate and amplitude must be finite"),
            (lambda: GaussianDecay(1.0, math.nan), "rate and amplitude must be finite"),
            (lambda: CircleSet(math.nan), "radius must be finite"),
            (lambda: LatticeCross(1.0, math.inf), "alpha and beta must be finite"),
            (lambda: Line((math.inf, 0.0), (1.0, 0.0)), "line point .* must be finite"),
            (lambda: parallel_lines([0.0, math.inf]), "heights must be finite"),
            (lambda: expr_curve(parse("t"), parse("t"), (math.nan, 1.0)), "domain must not be NaN"),
        ],
    )
    def test_numbers_that_are_not_finite_are_rejected(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_expr_domain_may_be_infinite(self):
        # a decay envelope truncates it
        assert expr_curve(parse("t"), parse("t"), (-math.inf, math.inf)).domain() == (-math.inf, math.inf)

    def test_expr_curve_variant(self):
        crv = expr_curve(parse("t"), parse("t^3"), (-1.0, 1.0))
        x, y = curve_point(crv, 0, 0.5)
        assert (x, y) == pytest.approx((0.5, 0.125))

    def test_tabulated_density(self):
        from huplab.geometry import TabulatedDensity

        tab = TabulatedDensity((0.0, 1.0, 2.0), (0.0, 1.0 + 1j, 0.0))
        vals = tab(np.array([-1.0, 0.5, 1.0, 3.0]))
        assert vals == pytest.approx([0.0, 0.5 + 0.5j, 1.0 + 1j, 0.0])
        with pytest.raises(ValueError):
            TabulatedDensity((0.0, 0.0), (1.0, 2.0))
        with pytest.raises(ValueError, match="^need matching ts/values with at least two samples$"):
            TabulatedDensity((0.0, 1.0, 2.0), (1.0, 2.0))

    def test_envelope_check_accepts_valid(self):
        m = Measure(hyperbola_full(), (parse("sin(t)*exp(-(t^2))"),), GaussianDecay(1.0, 1.0))
        m.check_envelope()
        windowed = Measure(
            hyperbola_full(),
            (parse("sqrt(cosh(2*t))*sin(t)*chi(-pi,pi)(t)"),),
            CompactSupport(-math.pi, math.pi),
        )
        windowed.check_envelope()

    def test_envelope_check_samples_no_point_outside_the_domain(self):
        # (100, 200) misses the sample range (-16, 16): the check sampled [16, 100] instead,
        # where log(t - 99) is not defined, and raised EvalDomainError (exit 3 from ft)
        curve = expr_curve(parse("t"), parse("0"), (100.0, 200.0))
        Measure(curve, (parse("exp(-t)*log(t-99)"),), ExpDecay(1.0, 10.0)).check_envelope()

    def test_envelope_check_rejects_violations(self):
        too_small = Measure(hyperbola_full(), (parse("3*exp(-(t^2))"),), GaussianDecay(1.0, 1.0))
        with pytest.raises(ValueError, match="envelope"):
            too_small.check_envelope()
        leaking = Measure(hyperbola_full(), (parse("exp(-(t^2))"),), CompactSupport(-1.0, 1.0))
        with pytest.raises(ValueError, match="envelope"):
            leaking.check_envelope()

    @pytest.mark.parametrize(
        "curve, bump, near",
        [
            # past the 16 e-folds of the first grid, inside the window of abs_tol 1e-10
            # (out to t = 25.3) but outside that of 1e-6 (out to 16.1)
            (spiral(), "chi(17,30)", "17"),
            # inside only the windows of abs_tol below 4e-43
            (spiral(), "chi(100,120)", "100"),
            # past cutoff(0) = 690.8, the end of the widest window that the quadrature integrates,
            # inside the rest of the bounded domain, which is sampled too
            (expr_curve(parse("t"), parse("t"), (0.0, 1000.0)), "chi(800,900)", "800"),
        ],
    )
    def test_envelope_check_reaches_every_truncation_window(self, curve, bump, near):
        measure = Measure(curve, (parse(f"exp(-t)+0.001*{bump}(t)"),), ExpDecay(1.0))
        with pytest.raises(ValueError, match=f"component 0 density exceeds its declared envelope near t={near}"):
            measure.check_envelope()

    @pytest.mark.parametrize(
        "decay",
        [ExpDecay(1.0), ExpDecay(0.5, 3.0), GaussianDecay(1.0), GaussianDecay(0.05, 2.0)],
        ids=["exp", "exp-wide", "gaussian", "gaussian-wide"],
    )
    @pytest.mark.parametrize(
        "domain",
        [(-math.inf, math.inf), (0.0, math.inf), (-math.inf, 0.0), (-3.0, 40.0), (0.0, 1e7), (-1e7, 2.0)],
        # the last two are longer than cutoff(0)
        ids=["unbounded", "right-half", "left-half", "bounded", "long-right", "long-left"],
    )
    def test_envelope_check_reaches_the_far_end_of_the_quadratures_window(self, decay, domain):
        # a bump the quadrature integrates at abs_tol 1e-13, just inside the end of its window
        # farthest from 0; on (0, 1e7) and (-1e7, 2) the check missed it, sampling the domain
        # every 2,442 instead of the window
        window = truncate_interval(domain, decay, QuadOpts(abs_tol=1e-13))
        end = max(window, key=abs)
        lo, hi = sorted((end, 0.95 * end))
        measure = Measure(expr_curve(parse("t"), parse("0"), domain), (parse(f"0.001*chi({lo!r},{hi!r})(t)"),), decay)
        with pytest.raises(ValueError, match="component 0 density exceeds its declared envelope near t="):
            measure.check_envelope()

    @pytest.mark.parametrize(
        "curve, support, bump",
        [
            # the circle's mass on (2.5, 3) was accepted: the check sampled (-2, 2) alone
            (circle(), (-1.0, 1.0), "chi(2.5,3)"),
            (expr_curve(parse("t"), parse("0"), (0.0, 100.0)), (0.0, 1.0), "chi(50,51)"),
        ],
        ids=["circle", "expr"],
    )
    def test_envelope_check_reaches_mass_past_a_supports_sample_range(self, curve, support, bump):
        density = parse(f"chi({support[0]!r},{support[1]!r})(t)+0.001*{bump}(t)")
        with pytest.raises(ValueError, match="component 0 density exceeds its declared envelope near t="):
            Measure(curve, (density,), CompactSupport(*support)).check_envelope()

    def test_envelope_check_needs_decay_only_on_unbounded_domains(self):
        Measure(circle(), (parse("1"),)).check_envelope()
        Measure(expr_curve(parse("t"), parse("t"), (-1.0, 1.0)), (parse("1"),)).check_envelope()
        with pytest.raises(ValueError, match="spiral curve is unbounded: it needs a decay envelope"):
            Measure(spiral(), (parse("exp(-t)"),)).check_envelope()

    def test_parabola(self):
        assert curve_point(parabola(), 0, 3.0) == pytest.approx((3.0, 9.0))
