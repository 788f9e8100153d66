import math
from fractions import Fraction

import pytest

from huplab import bessel, witnesses
from huplab.bessel import bessel_zero
from huplab.expr import parse
from huplab.geometry import POINTS_MAX, CompactSupport, Line, Measure, hyperbola_full
from huplab.transform import mu_hat, total_variation
from huplab.witnesses import (
    Certificate,
    anti_certificate_midpoint_radius,
    circle_bessel_circle_annihilator,
    circle_line_annihilator,
    circle_rational_lines_annihilator,
    expcurve_vertical_line_annihilator,
    fourlines_annihilator,
    hyperbola_line_annihilator,
    known_pair_verdict,
    verify_certificate,
)

N_QUICK = 128


class TestCircleLine:
    def test_passes(self):
        cert = circle_line_annihilator()
        report = verify_certificate(cert, N_QUICK)
        assert report.ok, report.message

    def test_witness_is_bessel_value(self):
        # |integral e^{-i pi sin th} sin th dth| = 2 pi J_1(pi)
        cert = circle_line_annihilator()
        assert cert.witness_magnitude == pytest.approx(2.0 * math.pi * 0.28461534317975276, abs=1e-8)

    def test_total_variation_is_four(self):
        cert = circle_line_annihilator()
        assert total_variation(cert.measure) == pytest.approx(4.0, abs=1e-9)


class TestCircleRationalLines:
    def test_j1_reduces_to_single_line(self):
        cert = circle_rational_lines_annihilator(1)
        assert verify_certificate(cert, N_QUICK).ok
        single = circle_line_annihilator()
        # same measure, same residual behaviour on the shared line
        assert [str(d) for d in cert.measure.densities] == [str(d) for d in single.measure.densities]

    def test_j3_passes(self):
        report = verify_certificate(circle_rational_lines_annihilator(3), N_QUICK)
        assert report.ok, report.message
        assert report.residual < 1e-8

    def test_j_validation(self):
        with pytest.raises(ValueError):
            circle_rational_lines_annihilator(0)
        with pytest.raises(ValueError, match=f"j must be at most {POINTS_MAX // 2}"):
            circle_rational_lines_annihilator(POINTS_MAX // 2 + 1)

    def test_more_lines_than_samples_are_verified_off_their_common_point(self):
        # 8 lines and 4 samples: each line's one midpoint was the origin, so
        # the residual was taken at one point, where the transform is 0
        report = verify_certificate(circle_rational_lines_annihilator(8), 4)
        assert report.ok and report.samples_used == 16


class TestCircleBesselCircle:
    def test_k0_n1_passes(self):
        cert = circle_bessel_circle_annihilator(0, 1)
        assert cert.lam.radius == pytest.approx(2.404825557695773 / math.pi, abs=1e-12)
        report = verify_certificate(cert, N_QUICK)
        assert report.ok, report.message
        assert report.residual < 1e-8

    def test_k2_n1_passes(self):
        report = verify_certificate(circle_bessel_circle_annihilator(2, 1), N_QUICK)
        assert report.ok, report.message

    def test_midpoint_anti_certificate_fails(self):
        report = verify_certificate(anti_certificate_midpoint_radius(0, 1), N_QUICK)
        assert not report.ok
        assert report.residual > 1.0  # 2 pi |J_0| at the midpoint is order one

    def test_anti_certificate_transforms_only_its_own_points(self, monkeypatch):
        # it took the good certificate's measure and window by building that
        # certificate, a 257-point transform, first
        calls, original = [], witnesses.mu_hat_at_points
        monkeypatch.setattr(witnesses, "mu_hat_at_points", lambda *args: calls.append(args) or original(*args))
        anti = anti_certificate_midpoint_radius(3, 3)
        good = circle_bessel_circle_annihilator(3, 3)
        assert len(calls) == 2 and (anti.measure, anti.window) == (good.measure, good.window)
        assert anti.lam.radius == good.witness_point[0]

    def test_anti_certificate_index_is_bounded_before_any_work(self, monkeypatch):
        # its witness takes j_{k,n+2}: n = 299 ran for 1.7 s, then failed
        # naming n = 301, which the caller never passed
        def refuse(*args):
            raise AssertionError("a Bessel zero was computed")

        monkeypatch.setattr(bessel, "_series", refuse)
        monkeypatch.setattr(bessel, "_downward", refuse)
        with pytest.raises(ValueError, match=r"^need k >= 0 and 1 <= n <= 298, got k = 0, n = 299$"):
            anti_certificate_midpoint_radius(0, 299)


class TestHyperbolaLine:
    def test_passes(self):
        cert = hyperbola_line_annihilator()
        report = verify_certificate(cert, N_QUICK)
        assert report.ok, report.message
        assert report.residual < 1e-8

    def test_witness_value_frozen(self):
        cert = hyperbola_line_annihilator()
        assert cert.witness_point == (0.0, 0.5)
        assert cert.witness_magnitude == pytest.approx(0.4930392042, abs=1e-6)

    def test_density_is_odd(self):
        g = hyperbola_line_annihilator().measure.density(0)
        import numpy as np

        ts = np.linspace(0.1, 3.0, 17)
        assert np.max(np.abs(g(ts) + g(-ts))) < 1e-14

    def test_even_perturbation_fails(self):
        base = hyperbola_line_annihilator()
        perturbed = Measure(
            hyperbola_full(),
            (parse("(sqrt(cosh(2*t))*sin(t)+1/10*cos(t))*chi(-pi,pi)(t)"),),
            CompactSupport(-math.pi, math.pi),
        )
        cert = Certificate(
            perturbed,
            base.lam,
            base.window,
            base.witness_point,
            0.0,
            0.0,
            0,
            "perturbed: even part no longer cancels",
        )
        report = verify_certificate(cert, N_QUICK)
        assert not report.ok
        assert report.residual > 1e-3

    def test_zero_measure_rejected(self):
        base = hyperbola_line_annihilator()
        zero = Measure(hyperbola_full(), (parse("0"),), CompactSupport(-math.pi, math.pi))
        cert = Certificate(zero, base.lam, base.window, base.witness_point, 0.0, 0.0, 0, "zero measure")
        report = verify_certificate(cert, N_QUICK)
        assert not report.ok
        assert report.witness_magnitude == 0.0


class TestExpCurveVerticalLine:
    def test_passes(self):
        cert = expcurve_vertical_line_annihilator()
        report = verify_certificate(cert, N_QUICK)
        assert report.ok, report.message

    def test_witness_value_frozen(self):
        cert = expcurve_vertical_line_annihilator()
        assert cert.witness_magnitude == pytest.approx(0.26939880422259791, abs=1e-6)

    def test_second_vertical_line_breaks_annihilation(self):
        # on x = 1 the transform is visibly nonzero, so two vertical lines
        # do not admit this annihilator
        cert = expcurve_vertical_line_annihilator()
        assert abs(mu_hat(cert.measure, 1.0, 0.0).value) > 0.05


class TestFourLines:
    def test_p3_eta0_passes(self):
        cert = fourlines_annihilator(3, 0.0)
        report = verify_certificate(cert, N_QUICK, tol=1e-9)
        assert report.ok, report.message

    def test_p4_eta_half_passes(self):
        report = verify_certificate(fourlines_annihilator(4, 0.5), N_QUICK, tol=1e-9)
        assert report.ok, report.message

    def test_witness_magnitude_is_two(self):
        cert = fourlines_annihilator(3, 0.0)
        assert cert.witness_magnitude == pytest.approx(2.0, abs=1e-8)
        cert = fourlines_annihilator(4, 0.5)
        assert cert.witness_magnitude == pytest.approx(2.0, abs=1e-8)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            fourlines_annihilator(2, 0.0)
        with pytest.raises(ValueError):
            fourlines_annihilator(3, 2.0)


def test_every_constructor_has_nonzero_total_variation():
    constructors = [
        circle_line_annihilator(),
        circle_rational_lines_annihilator(3),
        circle_bessel_circle_annihilator(0, 1),
        hyperbola_line_annihilator(),
        expcurve_vertical_line_annihilator(),
        fourlines_annihilator(3, 0.0),
    ]
    for cert in constructors:
        assert total_variation(cert.measure) > 1e-6


class TestVerdicts:
    def test_lattice_cross_boundary(self):
        assert known_pair_verdict("lattice-cross", alpha=1.0, beta=1.0).answer == "HUP"
        assert known_pair_verdict("lattice-cross", alpha=2.0, beta=0.6).answer == "NotHUP"
        assert known_pair_verdict("lattice-cross", alpha=0.5, beta=1.9).answer == "HUP"

    def test_circle_circle_radius(self):
        bad = bessel_zero(0, 1) / math.pi
        assert known_pair_verdict("circle-circle", radius=bad).answer == "NotHUP"
        assert known_pair_verdict("circle-circle", radius=0.5).answer == "HUP"

    def test_circle_lines_rationality(self):
        exact = known_pair_verdict("circle-lines", angle=Fraction(1, 3))
        assert exact.answer == "NotHUP"
        numeric = known_pair_verdict("circle-lines", angle=1.0 / 3.0)
        assert numeric.answer == "Unknown"
        assert "not decidable" in numeric.condition

    def test_parabola_lines(self):
        assert known_pair_verdict("parabola-line", direction=(1.0, 0.0)).answer == "HUP"
        assert known_pair_verdict("parabola-line", direction=(0.0, 1.0)).answer == "NotHUP"
        assert known_pair_verdict("parabola-two-lines").answer == "HUP"

    def test_sphere_sphere(self):
        assert known_pair_verdict("sphere-sphere", dim=3, radius=1.0).answer == "NotHUP"  # pi r = pi hits J_{1/2}
        assert known_pair_verdict("sphere-sphere", dim=3, radius=0.5).answer == "HUP"

    def test_paraboloid_hyperplane(self):
        assert known_pair_verdict("paraboloid-hyperplane", dim=3, normal=(0.0, 0.0, 1.0)).answer == "HUP"
        assert known_pair_verdict("paraboloid-hyperplane", dim=3, normal=(1.0, 0.0, 1.0)).answer == "NotHUP"

    def test_curve_pairs(self):
        assert known_pair_verdict("spiral-antispiral").answer == "HUP"
        assert known_pair_verdict("circle-spiral").answer == "HUP"
        assert known_pair_verdict("hyperbola-branch-reflected").answer == "HUP"
        assert known_pair_verdict("expcurve-hline").answer == "HUP"
        assert known_pair_verdict("expcurve-two-vlines").answer == "HUP"
        assert known_pair_verdict("hyperbola-two-hlines").answer == "HUP"

    def test_angled_lines(self):
        assert known_pair_verdict("hyperbola-angled-lines", alpha=0.5).answer == "HUP"
        assert known_pair_verdict("hyperbola-angled-lines", alpha=1.2).answer == "Unknown"

    def test_unknown_pair(self):
        verdict = known_pair_verdict("circle-cantor-dust")
        assert verdict.answer == "Unknown"
        assert "outside the verdict catalog" in verdict.condition

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            known_pair_verdict("lattice-cross", alpha=-1.0, beta=1.0)
        with pytest.raises(ValueError):
            known_pair_verdict("circle-circle", radius=0.0)

    @pytest.mark.parametrize(
        "pair, params",
        [
            ("lattice-cross", {"alpha": 1.0, "beta": math.nan}),
            ("lattice-cross", {"alpha": math.inf, "beta": 0.5}),
            ("circle-circle", {"radius": math.inf}),
            ("sphere-sphere", {"dim": 3, "radius": math.nan}),
            ("hyperbola-angled-lines", {"alpha": math.inf}),
            ("fourlines-constant-fiber", {"p": 2}),
        ],
    )
    def test_inputs_outside_the_contract_raise(self, pair, params):
        with pytest.raises(ValueError):
            known_pair_verdict(pair, **params)

    def test_parameter_lookup(self):
        # a missing parameter is a KeyError naming it, dim before radius; extras are ignored
        with pytest.raises(KeyError, match="dim"):
            known_pair_verdict("sphere-sphere")
        with pytest.raises(KeyError, match="radius"):
            known_pair_verdict("sphere-sphere", dim=3)
        assert known_pair_verdict("circle-line", radius=3.0) == known_pair_verdict("circle-line")
        assert known_pair_verdict("Lattice_Cross", alpha=1.0, beta=1.0, p=9).answer == "HUP"


def test_not_hup_verdicts_are_backed_by_certificates():
    # catalog <-> constructor consistency for every NotHUP entry with a builder
    pairs = [
        (known_pair_verdict("circle-line"), circle_line_annihilator()),
        (known_pair_verdict("circle-lines", angle=Fraction(1, 3)), circle_rational_lines_annihilator(3)),
        (
            known_pair_verdict("circle-circle", radius=bessel_zero(0, 1) / math.pi),
            circle_bessel_circle_annihilator(0, 1),
        ),
        (known_pair_verdict("hyperbola-hline"), hyperbola_line_annihilator()),
        (known_pair_verdict("expcurve-vline"), expcurve_vertical_line_annihilator()),
        (known_pair_verdict("fourlines-constant-fiber", p=3, eta0=0.0), fourlines_annihilator(3, 0.0)),
    ]
    for verdict, cert in pairs:
        assert verdict.answer == "NotHUP"
        assert verify_certificate(cert, N_QUICK).ok
