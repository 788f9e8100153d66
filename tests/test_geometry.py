import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from huplab.expr import parse
from huplab.fourlines import Fiber
from huplab.geometry import (
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

    def test_empty_intersection(self):
        with pytest.raises(EmptyIntersectionError):
            sample_set(Line((0.0, 5.0), (1.0, 0.0)), 8, (-1.0, 1.0, -1.0, 1.0))

    def test_degenerate_window(self):
        with pytest.raises(ValueError, match="window"):
            sample_set(CircleSet(1.0), 4, (0.0, 0.0, -1.0, 1.0))

    def test_n_validation(self):
        with pytest.raises(ValueError):
            sample_set(CircleSet(1.0), 0, (-2.0, 2.0, -2.0, 2.0))


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

    def test_envelope_check_accepts_valid(self):
        m = Measure(hyperbola_full(), (parse("sin(t)*exp(-(t^2))"),), GaussianDecay(1.0, 1.0))
        m.check_envelope()
        windowed = Measure(
            hyperbola_full(),
            (parse("sqrt(cosh(2*t))*sin(t)*chi(-pi,pi)(t)"),),
            CompactSupport(-math.pi, math.pi),
        )
        windowed.check_envelope()

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
            # past cutoff(0) = 690.8, inside a bounded domain that the quadrature integrates whole
            (expr_curve(parse("t"), parse("t"), (0.0, 1000.0)), "chi(800,900)", "800"),
        ],
    )
    def test_envelope_check_reaches_every_truncation_window(self, curve, bump, near):
        measure = Measure(curve, (parse(f"exp(-t)+0.001*{bump}(t)"),), ExpDecay(1.0))
        with pytest.raises(ValueError, match=f"component 0 density exceeds its declared envelope near t={near}"):
            measure.check_envelope()

    def test_envelope_check_needs_decay_only_on_unbounded_domains(self):
        Measure(circle(), (parse("1"),)).check_envelope()
        Measure(expr_curve(parse("t"), parse("t"), (-1.0, 1.0)), (parse("1"),)).check_envelope()
        with pytest.raises(ValueError, match="spiral curve is unbounded: it needs a decay envelope"):
            Measure(spiral(), (parse("exp(-t)"),)).check_envelope()

    def test_parabola(self):
        assert curve_point(parabola(), 0, 3.0) == pytest.approx((3.0, 9.0))
