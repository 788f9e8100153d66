import cmath
import math
import random
import re

import numpy as np
import pytest

from huplab.bessel import bessel_j, bessel_zero
from huplab import quadrature, transform
from huplab.expr import parse
from huplab.geometry import (
    CompactSupport,
    ExpDecay,
    GaussianDecay,
    Measure,
    circle,
    exp_curve,
    hyperbola_branch,
    hyperbola_full,
    parabola,
    parallel_lines,
    sample_set,
    spiral,
)
from huplab.quadrature import MissingEnvelopeError, NonconvergenceError, QuadOpts, QuadratureError, integrate
from huplab.transform import (
    PointFailure,
    circle_coeff,
    convolution_identity,
    lines_mu_hat,
    mu_hat,
    mu_hat_at_points,
    substitution_identity,
    total_variation,
    translation_phase_check,
)
from huplab.witnesses import (
    RESIDUAL_TOL,
    _quad_opts,
    circle_bessel_circle_annihilator,
    circle_line_annihilator,
    circle_rational_lines_annihilator,
)

from conftest import reference_mu_hat, simpson

OPTS = QuadOpts()
UNIFORM_CIRCLE = Measure(circle(), (parse("1/(2*pi)"),))


# at max_subdivisions 64, (3, 0.5) converges on a pre-split of 16 panels;
# (20, 0.5) and (80, 0.5) share a later pre-split of 64 panels, and (20, 0.5)
# fails only in component 1, (80, 0.5) already in component 0
TWO_LINES = Measure(
    parallel_lines([0.0, 1.0]),
    (parse("0.000001*exp(-(t^2))"), parse("exp(-(t^2))")),
    GaussianDecay(1.0, 1.0),
)


class TestMuHat:
    def test_failure_names_first_failing_point_in_input_order(self):
        measure = Measure(exp_curve(), (parse("exp(-(t^2))"),), GaussianDecay(1.0, 1.0))
        points = [(0.0, 0.0), (0.0, 0.0), (0.0, 1.0), (0.0, 0.0), (0.0, 2.0)]
        with pytest.raises(PointFailure, match=r"at point \(xi, eta\) = \(0, 1\)") as exc:
            mu_hat_at_points(measure, points, QuadOpts(max_subdivisions=64))
        assert exc.value.point == (0.0, 1.0)
        assert isinstance(exc.value.__cause__, NonconvergenceError)

    @pytest.mark.parametrize(
        "points, first",
        [
            ([(3.0, 0.5), (20.0, 0.5), (3.0, 0.5), (80.0, 0.5)], (20.0, 0.5)),
            ([(3.0, 0.5), (80.0, 0.5), (20.0, 0.5)], (80.0, 0.5)),
        ],
        ids=["fails-in-later-component", "fails-in-first-component"],
    )
    def test_first_failure_in_input_order_across_groups_and_components(self, points, first):
        opts = QuadOpts(max_subdivisions=64)
        with pytest.raises(PointFailure) as exc:
            mu_hat_at_points(TWO_LINES, points, opts)
        assert exc.value.point == first
        assert isinstance(exc.value.__cause__, NonconvergenceError)
        # the same failure as the point alone, and as the per-point path
        with pytest.raises(NonconvergenceError) as alone:
            mu_hat(TWO_LINES, *first, opts)
        with pytest.raises(NonconvergenceError) as per_point:
            reference_mu_hat(TWO_LINES, *first, opts)
        assert str(exc.value.__cause__) == str(alone.value) == str(per_point.value)
        assert mu_hat_at_points(TWO_LINES, points[:1], opts)[0] == reference_mu_hat(TWO_LINES, *points[0], opts)

    def test_nonfinite_integrand_names_its_point_in_a_later_phase_block(self):
        # 126-panel pre-splits go through the 64-panel probe, whose phase
        # blocks hold 8 points; the phase of the last point overflows
        points = [(20.0, 20.0)] * 40 + [(1.5e308, 1.5e308)]
        with np.errstate(all="ignore"):
            with pytest.raises(PointFailure, match="nonfinite value near t=") as exc:
                mu_hat_at_points(UNIFORM_CIRCLE, points, OPTS)
            with pytest.raises(QuadratureError) as alone:
                mu_hat(UNIFORM_CIRCLE, *points[-1], OPTS)
        assert exc.value.point == points[-1]
        assert str(exc.value.__cause__) == str(alone.value)

    def test_oscillation_hint_is_a_floor_on_each_points_rate(self, monkeypatch):
        panels = []
        integrate_rows = transform.integrate_rows

        def counting(*args):
            out = integrate_rows(*args)
            panels.append(out[2].tolist())
            return out

        monkeypatch.setattr(transform, "integrate_rows", counting)
        plain = mu_hat(UNIFORM_CIRCLE, 1.0, 0.0)
        hinted = QuadOpts(oscillation_hint=1e4)
        one = mu_hat(UNIFORM_CIRCLE, 1.0, 0.0, hinted)
        both = mu_hat_at_points(UNIFORM_CIRCLE, [(1.0, 0.0), (0.0, 0.0)], hinted)
        assert panels[0] == [8]
        assert panels[1][0] > 1000 and panels[2][0] == panels[1][0]
        assert panels[2][1] > 1000  # a floor for every point, even one whose rate is 0
        assert abs(one.value - plain.value) <= one.err_estimate + plain.err_estimate
        assert both[0] == one

    def test_total_mass(self):
        assert mu_hat(UNIFORM_CIRCLE, 0.0, 0.0).value == pytest.approx(1.0, abs=1e-12)

    def test_uniform_circle_is_bessel(self):
        for rho in (0.3, 1.0, 2.2):
            got = mu_hat(UNIFORM_CIRCLE, rho, 0.0).value
            assert got == pytest.approx(bessel_j(0, math.pi * rho), abs=1e-10)

    def test_vanishes_at_zero_radius(self):
        rho = bessel_zero(0, 1) / math.pi
        assert abs(mu_hat(UNIFORM_CIRCLE, rho, 0.0).value) < 1e-8

    @pytest.mark.parametrize(
        "density",
        ["sin(t)*chi(-pi,pi)(t)", "sqrt(cosh(2*t))*sin(t)*chi(-pi,pi)(t)"],
    )
    def test_hyperbola_odd_density_vanishes_on_axis(self, density):
        m = Measure(hyperbola_full(), (parse(density),), CompactSupport(-math.pi, math.pi))
        for x in (-5.0, -1.3, 0.0, 0.7, 4.2, 8.0):
            assert abs(mu_hat(m, x, 0.0).value) < 1e-10

    def test_boundedness_by_total_variation(self):
        m = Measure(circle(), (parse("sin(t)+1/2"),))
        tv = total_variation(m)
        for xi, eta in ((0.0, 0.0), (1.0, 2.0), (-3.0, 0.5), (7.0, -7.0)):
            ft = mu_hat(m, xi, eta)
            assert abs(ft.value) <= tv + ft.err_estimate + 1e-9

    def test_real_density_conjugate_symmetry(self):
        m = Measure(circle(), (parse("sin(t)+cos(2*t)"),))
        for xi, eta in ((0.7, -0.2), (2.0, 1.5)):
            a = mu_hat(m, -xi, -eta).value
            b = mu_hat(m, xi, eta).value
            assert a == pytest.approx(b.conjugate(), abs=1e-10)

    def test_truncation_window_reported(self):
        m = Measure(exp_curve(), (parse("exp(-(t^2))"),), GaussianDecay())
        ft = mu_hat(m, 1.0, 0.0)
        lo, hi = ft.truncation_window
        assert lo == -hi and hi > 3.0


class TestCircleCoeff:
    def test_constant_mass(self):
        assert circle_coeff(lambda th: np.ones_like(th, dtype=complex), 0).value == pytest.approx(1.0, abs=1e-12)

    def test_orthogonality(self):
        assert abs(circle_coeff(lambda th: np.ones_like(th, dtype=complex), 3).value) < 1e-12

    def test_bessel_identity_order_two(self):
        opts = QuadOpts(oscillation_hint=math.pi)
        got = circle_coeff(lambda th: np.exp(-1j * math.pi * np.cos(th)), 2, opts).value
        assert got == pytest.approx(-0.48543393263150911, abs=1e-10)
        assert got == pytest.approx((1j) ** 2 * (-1) ** 2 * bessel_j(2, math.pi), abs=1e-10)

    def test_jacobi_anger_sweep(self):
        for r in (1.0, 2.5):
            opts = QuadOpts(oscillation_hint=math.pi * r)
            f = lambda th: np.exp(-1j * math.pi * r * np.cos(th))
            for k in range(0, 7):
                got = circle_coeff(f, k, opts).value
                want = (1j) ** k * (-1) ** k * bessel_j(k, math.pi * r)
                assert got == pytest.approx(want, abs=1e-9)

    def test_accepts_expression_density(self):
        got = circle_coeff(parse("cos(3*t)"), 3).value
        assert got == pytest.approx(0.5, abs=1e-10)


class TestLinesMuHat:
    def test_single_term(self):
        fhat = [lambda x: 1.0, lambda x: 0.0, lambda x: 0.0, lambda x: 0.0]
        assert lines_mu_hat(fhat, 3, 0.3, 1.7) == pytest.approx(1.0)

    def test_top_line_phase(self):
        fhat = [lambda x: 0.0, lambda x: 0.0, lambda x: 0.0, lambda x: 1.0]
        assert lines_mu_hat(fhat, 3, 0.0, 2.0 / 3.0) == pytest.approx(1.0, abs=1e-12)

    def test_two_periodicity(self):
        rng = random.Random(7)
        for _ in range(25):
            coeffs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(4)]
            fhat = [lambda x, c=c: c * cmath.exp(-1j * x) for c in coeffs]
            p = rng.choice([3, 4, 5, 9])
            xi, eta = rng.uniform(-5, 5), rng.uniform(-3, 3)
            assert lines_mu_hat(fhat, p, xi, eta) == pytest.approx(
                lines_mu_hat(fhat, p, xi, eta + 2.0), abs=1e-12
            )

    def test_p_validated(self):
        with pytest.raises(ValueError):
            lines_mu_hat([lambda x: 0.0] * 4, 2, 0.0, 0.0)


class TestConvolutionIdentity:
    def test_hyperbola_indicator_at_zero(self):
        m = Measure(hyperbola_branch(), (parse("chi(0,1)(t)"),), CompactSupport(0.0, 1.0))
        direct, conv = convolution_identity(m, 0.0)
        assert abs(direct - conv) < 10.0 * OPTS.abs_tol
        oracle = simpson(lambda t: cmath.exp(-1j * math.pi * math.cosh(t)), 0.0, 1.0, 4096)
        assert direct == pytest.approx(oracle, abs=1e-9)

    def test_zero_density(self):
        m = Measure(spiral(), (parse("0"),), ExpDecay(1.0))
        direct, conv = convolution_identity(m, 0.5)
        assert direct == 0 and conv == 0

    def test_spiral_exponential_density(self):
        m = Measure(spiral(), (parse("exp(-t)"),), ExpDecay(1.0))
        direct, conv = convolution_identity(m, -1.0)
        assert abs(direct - conv) < 10.0 * OPTS.abs_tol

    def test_wrong_curve_rejected(self):
        with pytest.raises(ValueError):
            convolution_identity(Measure(circle(), (parse("1"),)), 0.0)


class TestSubstitutionIdentity:
    def test_odd_density_both_sides_vanish(self):
        m = Measure(exp_curve(), (parse("sin(t)*exp(-(t^2))"),), GaussianDecay())
        direct, sub = substitution_identity(m, 0.8)
        assert abs(direct) < 1e-9 and abs(sub) < 1e-9

    def test_even_density_equals_one_sided_double(self):
        m = Measure(exp_curve(), (parse("cos(t)*chi(-2,2)(t)"),), CompactSupport(-2.0, 2.0))
        y = 0.6
        direct, sub = substitution_identity(m, y)
        opts = QuadOpts(oscillation_hint=math.pi * y * 4.0 * math.exp(4.0))
        one_sided = integrate(
            lambda t: np.exp(-1j * math.pi * y * np.exp(t * t)) * np.cos(t), (0.0, 2.0), opts
        ).value
        assert direct == pytest.approx(2.0 * one_sided, abs=1e-9)
        assert abs(direct - sub) < 10.0 * OPTS.abs_tol

    def test_hyperbola_gaussian(self):
        m = Measure(hyperbola_full(), (parse("exp(-(t^2))"),), GaussianDecay())
        direct, sub = substitution_identity(m, 1.0)
        assert abs(direct - sub) < 10.0 * OPTS.abs_tol

    def test_wrong_curve_rejected(self):
        with pytest.raises(ValueError):
            substitution_identity(Measure(circle(), (parse("1"),)), 1.0)


class TestTranslationPhase:
    def test_identity_shift(self):
        lhs, rhs = translation_phase_check(UNIFORM_CIRCLE, (0.0, 0.0), 1.3, -0.4)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_unit_shift_on_circle(self):
        lhs, rhs = translation_phase_check(UNIFORM_CIRCLE, (1.0, 0.0), 1.0, 0.0)
        assert lhs == pytest.approx(rhs, abs=1e-10)
        # e^{-i pi} J_0(pi) = -J_0(pi)
        assert rhs == pytest.approx(-bessel_j(0, math.pi), abs=1e-10)

    def test_zero_frequency_total_mass(self):
        m = Measure(circle(), (parse("sin(t)^2"),))
        lhs, rhs = translation_phase_check(m, (2.0, -3.0), 0.0, 0.0)
        assert lhs == pytest.approx(rhs, abs=1e-11)
        assert lhs == pytest.approx(math.pi, abs=1e-9)  # integral of sin^2 over the period


def test_reflection_identity_full_hyperbola():
    # transform at (s cosh t0, -s sinh t0) equals the shifted-density integral
    density = parse("(1+sin(t)/2)*exp(-(t^2))")
    m = Measure(hyperbola_full(), (density,), GaussianDecay(1.0, 1.5))
    g = m.density(0)
    for s, t0 in ((0.7, 0.4), (1.3, -0.6), (0.25, 1.1)):
        pt = (s * math.cosh(t0), -s * math.sinh(t0))
        lhs = mu_hat(m, pt[0], pt[1]).value
        opts = QuadOpts(oscillation_hint=math.pi * abs(s) * math.sinh(6.0))
        rhs = integrate(
            lambda t: np.exp(-1j * math.pi * s * np.cosh(t)) * g(t + t0),
            (-6.0 - abs(t0), 6.0 + abs(t0)),
            opts,
        ).value
        assert lhs == pytest.approx(rhs, abs=1e-8)


def _parabola_gaussian_oracle(points, tol):
    # integral of e^{-i pi (t xi + t^2 eta)} e^{-t^2} dt = sqrt(pi/a) e^{-(pi xi)^2/(4a)}, a = 1 + i pi eta
    m = Measure(parabola(), (parse("exp(-(t^2))"),), GaussianDecay(1.0))
    for (xi, eta), ft in zip(points, mu_hat_at_points(m, points, QuadOpts(abs_tol=tol, rel_tol=tol))):
        a = 1.0 + 1j * math.pi * eta
        exact = cmath.sqrt(math.pi / a) * cmath.exp(-((math.pi * xi) ** 2) / (4.0 * a))
        assert abs(ft.value - exact) <= ft.err_estimate, (xi, eta)


@pytest.mark.parametrize("tol", [1e-6, 1e-10])
def test_parabola_gaussian_within_error_estimate(tol):
    rng = random.Random(4)
    _parabola_gaussian_oracle([(rng.uniform(-20.0, 20.0), rng.uniform(-20.0, 20.0)) for _ in range(400)], tol)


@pytest.mark.parametrize("tol", [1e-6, 1e-10])
def test_parabola_gaussian_grid_within_error_estimate(tol, monkeypatch):
    # a 20x20 grid shares one pre-split and is scored by matmul
    shared = []
    grid_rows = quadrature._grid_rows

    def spying(*args):
        shared.append(grid_rows(*args))
        return shared[-1]

    monkeypatch.setattr(quadrature, "_grid_rows", spying)
    axis = [-20.0 + 40.0 * i / 19 for i in range(20)]
    _parabola_gaussian_oracle([(xi, eta) for xi in axis for eta in axis], tol)
    assert len(shared) == 1 and shared[0] is not None


# each decay law's density on the line y = 0 against its closed form; at
# xi = 0 the truncated mass equals the law's tail bound, so a tail bound that
# shrinks fails the gate there
_DECAY_ORACLES = {
    # integral of e^{-i pi t xi} a e^{-r|t|} dt = 2 a r / (r^2 + (pi xi)^2)
    "exp": (ExpDecay, "{a}*exp(-{r}*abs(t))", lambda r, a, xi: 2.0 * a * r / (r * r + (math.pi * xi) ** 2)),
    # integral of e^{-i pi t xi} a e^{-r t^2} dt = a sqrt(pi/r) e^{-(pi xi)^2/(4r)}
    "gaussian": (
        GaussianDecay,
        "{a}*exp(-{r}*t^2)",
        lambda r, a, xi: a * math.sqrt(math.pi / r) * math.exp(-((math.pi * xi) ** 2) / (4.0 * r)),
    ),
}


@pytest.mark.parametrize("tol", [1e-6, 1e-10])
@pytest.mark.parametrize("rate, amplitude", [(0.5, 2.0), (3.0, 0.25)])
@pytest.mark.parametrize("law", sorted(_DECAY_ORACLES))
def test_decay_law_tail_within_error_estimate(law, rate, amplitude, tol):
    decay, density, exact = _DECAY_ORACLES[law]
    rng = random.Random(30)
    points = [(0.0, 0.0)] + [(rng.uniform(-20.0, 20.0), rng.uniform(-20.0, 20.0)) for _ in range(100)]
    m = Measure(parallel_lines([0.0]), (parse(density.format(a=amplitude, r=rate)),), decay(rate, amplitude))
    for (xi, eta), ft in zip(points, mu_hat_at_points(m, points, QuadOpts(abs_tol=tol, rel_tol=tol))):
        assert abs(ft.value - exact(rate, amplitude, xi)) <= ft.err_estimate, (xi, eta)


def _circle_exact(mpmath, coeffs: dict, point) -> complex:
    """The transform of g = sum c_k e^{ikt} on the circle, from ``coeffs`` {k: c_k}.

    The integral of e^{-i pi r cos(t - phi)} e^{ikt} dt is 2 pi (-i)^k J_k(pi r) e^{ik phi}.
    """
    r, phi = math.hypot(*point), math.atan2(point[1], point[0])
    bessel = {k: float(mpmath.besselj(k, math.pi * r)) for k in coeffs}
    return 2.0 * math.pi * sum(c * (-1j) ** k * bessel[k] * cmath.exp(1j * k * phi) for k, c in coeffs.items())


def _circle_oracle(coeffs: dict, density: str, polar, opts: QuadOpts = OPTS) -> None:
    mpmath = pytest.importorskip("mpmath")
    points = [(r * math.cos(phi), r * math.sin(phi)) for r, phi in polar]
    for point, ft in zip(points, mu_hat_at_points(Measure(circle(), (parse(density),)), points, opts)):
        assert abs(ft.value - _circle_exact(mpmath, coeffs, point)) <= ft.err_estimate, (density, point, opts)


def _polar(rng: random.Random, r_max: float, n: int) -> list:
    return [(rng.uniform(0.0, r_max), rng.uniform(-math.pi, math.pi)) for _ in range(n)]


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5, 30, 300])
def test_circle_harmonic_within_error_estimate(k):
    # the trapezoid rows of e^{ikt}, at radii up to 100 and, below 10, where
    # the phase argument reaches 31 rad, at tolerance 1e-13
    rng = random.Random(10 + k)
    _circle_oracle({k: 1.0}, f"exp({k}*i*t)", _polar(rng, 15.0, 60))
    _circle_oracle({k: 1.0}, f"exp({k}*i*t)", _polar(rng, 100.0, 20))
    _circle_oracle({k: 1.0}, f"exp({k}*i*t)", _polar(rng, 10.0, 20), QuadOpts(abs_tol=1e-13, rel_tol=1e-13))


# sin(jt) = (e^{ijt} - e^{-ijt}) / 2i
def _sine(j: int) -> dict:
    return {j: -0.5j, -j: 0.5j}


# each density's coefficients and the largest radius of its points.  At
# radius <= 1 the phase turns by at most pi per unit of t: nodes sized from
# the phase alone alias sin(50 t) and sin(300 t), so that the sums on N and
# N/2 of them agree and both are wrong
_TRIG_DENSITIES = {
    "sin(50*t)": (_sine(50), 1.0),
    "sin(300*t)": (_sine(300), 1.0),
    "sin(20*t)": (_sine(20), 15.0),
    "cos(t)^3*exp(2*i*t)": ({3: 3 / 8, 1: 3 / 8, 5: 1 / 8, -1: 1 / 8}, 30.0),
}


@pytest.mark.parametrize("tol", [1e-10, 1e-13])
@pytest.mark.parametrize("density", sorted(_TRIG_DENSITIES))
def test_circle_trig_density_within_error_estimate(density, tol):
    coeffs, r_max = _TRIG_DENSITIES[density]
    _circle_oracle(coeffs, density, _polar(random.Random(50), r_max, 40), QuadOpts(abs_tol=tol, rel_tol=tol))


@pytest.mark.parametrize(
    "make, coeffs",
    [
        (circle_line_annihilator, _sine(1)),
        (lambda: circle_rational_lines_annihilator(3), _sine(3)),
        (lambda: circle_bessel_circle_annihilator(0, 1), {0: 1.0}),
    ],
    ids=["circle-line", "circle-lines", "circle-bessel"],
)
def test_circle_certificate_rows_within_error_estimate(make, coeffs):
    # the 512 Lambda samples and the witness that verify_certificate evaluates
    mpmath = pytest.importorskip("mpmath")
    cert = make()
    points = sample_set(cert.lam, 512, cert.window) + [cert.witness_point]
    for point, ft in zip(points, mu_hat_at_points(cert.measure, points, _quad_opts(RESIDUAL_TOL))):
        assert abs(ft.value - _circle_exact(mpmath, coeffs, point)) <= ft.err_estimate, point


# err_estimate leaves out the rounding of the phase argument pi (x xi + y eta):
# where it reaches tens of radians, the true error of this smooth integrand
# (8.3e-15 at height 3, against 40-digit mpmath) exceeds the roundoff floor
# 10 eps sum|f| (2.6e-15) that is its whole estimate
_PHASE_ROUNDING = pytest.mark.xfail(
    strict=True, reason="err_estimate omits the rounding of a phase argument of tens of radians"
)


@pytest.mark.parametrize(
    "height", [0.0, 0.5, pytest.param(-1.25, marks=_PHASE_ROUNDING), pytest.param(3.0, marks=_PHASE_ROUNDING)]
)
def test_triangle_on_a_line_within_error_estimate(height):
    # integral of e^{-i pi (t xi + h eta)} (1 - |t|) over (-1, 1) = e^{-i pi eta h} sinc^2(pi xi / 2)
    rng = random.Random(20)
    points = [(rng.uniform(-20.0, 20.0), rng.uniform(-20.0, 20.0)) for _ in range(200)] + [(0.0, 1.0)]
    m = Measure(parallel_lines([height]), (parse("(1-abs(t))*chi(-1,1)(t)"),), CompactSupport(-1.0, 1.0))
    for (xi, eta), ft in zip(points, mu_hat_at_points(m, points)):
        half = math.pi * xi / 2.0
        sinc = math.sin(half) / half if half else 1.0
        exact = cmath.exp(-1j * math.pi * eta * height) * sinc * sinc
        assert abs(ft.value - exact) <= ft.err_estimate, (xi, eta)


def test_total_variation_of_sine_density():
    m = Measure(circle(), (parse("sin(t)"),))
    assert total_variation(m) == pytest.approx(4.0, abs=1e-9)


def test_mu_hat_with_tabulated_density():
    # hat density tabulated on [-1, 1]; transform at 0 is its mass
    from huplab.geometry import CompactSupport, TabulatedDensity

    ts = np.linspace(-1.0, 1.0, 401)
    tab = TabulatedDensity(tuple(ts), tuple(1.0 - np.abs(ts) + 0j))
    m = Measure(exp_curve(), (tab,), CompactSupport(-1.0, 1.0))
    assert mu_hat(m, 0.0, 0.0).value == pytest.approx(1.0, abs=1e-9)
    got = mu_hat(m, 0.7, 0.0).value
    want = (math.sin(math.pi * 0.7 / 2.0) / (math.pi * 0.7 / 2.0)) ** 2
    assert got == pytest.approx(want, abs=1e-6)  # interpolation-limited


def test_unbounded_curve_without_envelope_fails_at_the_first_point():
    measure = Measure(spiral(), (parse("1"),))
    with pytest.raises(PointFailure) as info:
        mu_hat_at_points(measure, [(1.0, 2.0), (3.0, 4.0)])
    assert info.value.point == (1.0, 2.0)
    assert isinstance(info.value.__cause__, MissingEnvelopeError)


@pytest.mark.parametrize("point", [(math.nan, 0.0), (math.inf, 0.0), (0.5, -math.inf)])
def test_nonfinite_point_is_rejected_before_any_node(point):
    # nan failed as a nonfinite integrand near some node, and inf also
    # warned from the phase
    calls = []
    measure = Measure(circle(), (lambda t: calls.append(t) or np.ones_like(t),))
    message = re.escape(f"point (xi, eta) = ({point[0]:.17g}, {point[1]:.17g}) is not finite")
    with pytest.raises(ValueError, match=message):
        mu_hat(measure, *point)
    with pytest.raises(ValueError, match=message):
        mu_hat_at_points(measure, [(0.0, 0.0), point, (math.nan, math.nan)])
    assert calls == []


def test_support_disjoint_from_the_domain_gives_exact_zero():
    # the spiral's parameter domain is (0, inf); [-2, -1] misses it entirely
    ft = mu_hat(Measure(spiral(), (parse("1"),), CompactSupport(-2.0, -1.0)), 1.0, 2.0)
    assert (ft.value, ft.err_estimate, ft.truncation_window) == (0j, 0.0, (0.0, 0.0))
