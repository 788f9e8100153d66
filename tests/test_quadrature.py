import math
import re
from fractions import Fraction

import numpy as np
import pytest

from huplab import quadrature
from huplab.expr import UNKNOWN, Band
from huplab.geometry import CompactSupport, ExpDecay, GaussianDecay
from huplab.quadrature import (
    MissingEnvelopeError,
    NonconvergenceError,
    QuadOpts,
    QuadratureError,
    QuadResult,
    Rows,
    integrate,
    integrate_rows,
    null_err,
    truncate_interval,
)

from huplab.geometry import sample_set
from huplab.transform import mu_hat_at_points
from huplab.witnesses import RESIDUAL_TOL, _quad_opts, fourlines_annihilator

from conftest import bessel_series, reference_integrate

OPTS = QuadOpts()
NO_PARITY = (UNKNOWN, UNKNOWN, UNKNOWN)

# (integrand, interval, envelope, hint, exact value)
CLOSED_FORM_CORPUS = [
    (lambda t: np.sin(t) + 0j, (0.0, math.pi), None, None, 2.0),
    (lambda t: t * t + 0j, (0.0, 1.0), None, None, 1.0 / 3.0),
    (lambda t: np.exp(t) + 0j, (0.0, 1.0), None, None, math.e - 1.0),
    (lambda t: 1.0 / (1.0 + t * t) + 0j, (-1.0, 1.0), None, None, math.pi / 2.0),
    (lambda t: np.exp(5j * t), (0.0, 2.0 * math.pi), None, 5.0, 0.0),
    (lambda t: np.cos(50.0 * t) + 0j, (0.0, 1.0), None, 50.0, math.sin(50.0) / 50.0),
    (lambda t: np.exp(-t * t) + 0j, (-math.inf, math.inf), GaussianDecay(), None, math.sqrt(math.pi)),
    (lambda t: np.exp(-3.0 * t) + 0j, (0.0, math.inf), ExpDecay(3.0), None, 1.0 / 3.0),
    (lambda t: np.sqrt(t + 0j), (0.0, 1.0), None, None, 2.0 / 3.0),
    (lambda t: np.log(1.0 + t + 0j), (0.0, 1.0), None, None, 2.0 * math.log(2.0) - 1.0),
    (lambda t: 1.0 / (1.0 + t) + 0j, (0.0, 2.0), None, None, math.log(3.0)),
    (lambda t: np.exp(1j * t) * np.sin(t), (0.0, math.pi), None, 1.0, 0.5j * math.pi),
    (lambda t: t * np.exp(-t) + 0j, (0.0, 1.0), None, None, 1.0 - 2.0 / math.e),
    (lambda t: t**3 + 0j, (-2.0, 2.0), None, None, 0.0),
    (lambda t: np.sin(t) + 0j, (0.0, 1.0), None, None, 1.0 - math.cos(1.0)),
    (lambda t: np.abs(t) + 0j, (-1.0, 1.0), None, None, 1.0),
    (lambda t: t * np.exp(-t) + 0j, (0.0, math.inf), ExpDecay(0.5, 2.0), None, 1.0),
    (lambda t: np.cos(t) * np.exp(-t * t), (-math.inf, math.inf), GaussianDecay(), None,
     math.sqrt(math.pi) * math.exp(-0.25)),
    (lambda t: 1.0 / (1.0 + t) ** 2 + 0j, (0.0, 1.0), None, None, 0.5),
    (lambda t: np.sin(t) ** 2 + 0j, (0.0, math.pi / 2.0), None, None, math.pi / 4.0),
]


@pytest.mark.parametrize("f,interval,envelope,hint,exact", CLOSED_FORM_CORPUS)
def test_closed_form_corpus(f, interval, envelope, hint, exact):
    opts = QuadOpts(oscillation_hint=hint)
    res = integrate(f, interval, opts, envelope=envelope)
    true_err = abs(res.value - exact)
    assert true_err <= max(opts.abs_tol, opts.rel_tol * abs(res.value))
    assert res.err_estimate >= true_err
    assert res == reference_integrate(f, interval, opts, envelope, hint)


@pytest.mark.parametrize(
    "f, hint, max_subdivisions",
    [
        # folded to a null integrand, which integrate() does not know to be
        # one: it pays its 230-panel pre-split for exactly 0
        (lambda t: np.sin(t) * np.exp(40j * t * t), 240.0, 1 << 16),
        (lambda t: np.exp(40j * t * t), 240.0, 1 << 16),  # a 230-panel pre-split
        (lambda t: np.exp(1000j * t), None, 256),  # bisection runs out of panels
    ],
    ids=["null-folded", "wide-presplit", "nonconvergence"],
)
def test_same_as_per_point_algorithm(f, hint, max_subdivisions):
    opts = QuadOpts(oscillation_hint=hint, max_subdivisions=max_subdivisions)
    try:
        want = reference_integrate(f, (-3.0, 3.0), opts, None, hint)
    except NonconvergenceError as exc:
        with pytest.raises(NonconvergenceError, match=re.escape(str(exc))):
            integrate(f, (-3.0, 3.0), opts)
        return
    assert integrate(f, (-3.0, 3.0), opts) == want


def test_gk41_against_an_independent_source():
    rule = quadrature.GK41
    n = rule.order // 2
    # the embedded rule is numpy's n-point Gauss-Legendre rule, on every other
    # node; numpy's 20-point weights are off by up to 1.2e-15
    x, w = np.polynomial.legendre.leggauss(n)
    on = np.flatnonzero(rule.gauss)
    assert on.tolist() == list(range(1, 2 * n + 1, 2)) and rule.nodes.size == 2 * n + 1
    np.testing.assert_allclose(rule.nodes[on], x, rtol=0, atol=2e-15)
    np.testing.assert_allclose(rule.gauss[on], w, rtol=0, atol=2e-15)

    def error(weights, d):
        return abs((weights * rule.nodes**d).sum() - (2.0 / (d + 1) if d % 2 == 0 else 0.0))

    # Kronrod: exact to degree 3n + 1 (3n + 2 by symmetry), and its error past
    # degree 62 stays below float64's roundoff until about 80; Gauss: below its order
    assert max(error(rule.weights, d) for d in range(3 * n + 2)) < 1e-15
    assert max(error(rule.gauss, d) for d in range(rule.order)) < 1e-15 < 1e-12 < error(rule.gauss, rule.order)
    # (n!)^4 / ((2n + 1) ((2n)!)^3), and the Gauss error on t^2n over [-1, 1]:
    # c 2^(2n + 1) (2n)!, 2.8e-12, whose sum rounds by about 1e-17
    assert rule.error_constant == float(Fraction(math.factorial(n) ** 4, (2 * n + 1) * math.factorial(2 * n) ** 3))
    want = rule.error_constant * 2.0 ** (rule.order + 1) * math.factorial(rule.order)
    assert error(rule.gauss, rule.order) == pytest.approx(want, rel=1e-4)


def test_refinement_bisects_the_lowest_of_equal_errors_first():
    # f repeats every 1/8 to the bit on [1, 2]: its 64-panel pre-split puts
    # one sqrt kink in each of 8 panels, whose errors are equal and the
    # largest.  A budget of 68 panels lets one bisection take 4 of them, the
    # lowest 4 as in the reference, so the worst panel left is the fifth kink's
    def f(t):
        return np.sqrt(np.abs(np.mod(8.0 * t, 1.0) - 0.3)) + 0j

    edges = np.linspace(1.0, 2.0, 65)
    errs = quadrature._score_row(f, edges[:-1], edges[1:], False)[1]
    assert np.flatnonzero(errs == errs.max()).tolist() == list(range(2, 64, 8))
    opts = QuadOpts(max_subdivisions=68, oscillation_hint=64 * math.pi)
    with pytest.raises(NonconvergenceError) as want:
        reference_integrate(f, (1.0, 2.0), opts, None, opts.oscillation_hint)
    with pytest.raises(NonconvergenceError, match=re.escape(str(want.value))) as got:
        integrate(f, (1.0, 2.0), opts)
    assert got.value.worst_panel == want.value.worst_panel == (1.53125, 1.546875)
    assert got.value.worst_err == want.value.worst_err == errs.max()


def test_null_err_is_the_roundoff_floor_of_an_odd_integrand():
    # the floor of the same odd integrand integrated over a folded window
    f = lambda t: np.sin(t) * np.exp(40j * t * t)  # noqa: E731
    want = integrate(f, (-3.0, 3.0), QuadOpts(oscillation_hint=240.0))
    assert want.value == 0j
    assert null_err(f, 3.0) == pytest.approx(want.err_estimate, rel=1e-6)
    # evaluated once, on its nodes and their mirror images
    calls = []
    null_err(lambda t: calls.append(t.size) or np.sin(t) + 0j, 3.0)
    assert calls == [8 * 41 * 2]


def test_relative_tolerance_stops_refinement():
    # abs_tol lies far below the roundoff floor of a 1e8-sized integrand, so
    # only rel_tol * |total| can stop the bisection of the sqrt endpoint
    opts = QuadOpts(abs_tol=1e-30, rel_tol=1e-10, max_subdivisions=4096)
    res = integrate(lambda t: 1e8 * np.sqrt(t + 0j), (0.0, 1.0), opts)
    assert res.panels > 8
    assert res.err_estimate <= opts.rel_tol * abs(res.value)
    assert abs(res.value - 2e8 / 3.0) <= res.err_estimate


def test_nonfinite_integrand_names_its_lowest_node():
    # NaN from t = 1 on: the 26-panel pre-split meets it first in its 5th
    # panel, and the error names the lowest node there, 1.0044, as does the
    # reference
    def f(t):
        return np.where(t < 1.0, 1.0 + 0j, complex("nan"))

    opts = QuadOpts(oscillation_hint=100.0)
    with pytest.raises(QuadratureError) as want:
        reference_integrate(f, (0.0, 6.4), opts, None, 100.0)
    with pytest.raises(QuadratureError, match=re.escape(str(want.value))) as got:
        integrate(f, (0.0, 6.4), opts)
    lowest = float(re.search(r"t=(\S+)", str(got.value)).group(1))
    assert 1.0 <= lowest < 1.0 + 6.4 / 204
    # and so does the roundoff floor of a null integrand, on its own panels
    with pytest.raises(QuadratureError) as floor:
        null_err(lambda t: np.where(np.abs(t) < 1.0, np.sin(t) + 0j, complex("nan")), 6.4)
    assert 1.0 <= float(re.search(r"t=(\S+)", str(floor.value)).group(1)) < 1.0 + 6.4 / 64


def test_trivial_sine():
    assert integrate(lambda t: np.sin(t) + 0j, (0.0, math.pi)).value == pytest.approx(2.0, abs=1e-12)


def test_gaussian_analytic():
    res = integrate(lambda t: np.exp(-t * t) + 0j, (-math.inf, math.inf), envelope=GaussianDecay())
    assert res.value == pytest.approx(1.7724538509055159, abs=1e-10)


def test_circle_bessel_value_vs_series_oracle():
    # (1/2pi) integral e^{-i pi cos theta} = J_0(pi)
    opts = QuadOpts(oscillation_hint=math.pi)
    res = integrate(lambda t: np.exp(-1j * math.pi * np.cos(t)), (-math.pi, math.pi), opts)
    assert res.value / (2.0 * math.pi) == pytest.approx(bessel_series(0, math.pi), abs=1e-12)


def test_linearity():
    f = lambda t: np.exp(1j * t)
    g = lambda t: np.cos(3.0 * t) + 0j
    a, b = 2.0 - 1j, 0.5 + 2j
    combo = integrate(lambda t: a * f(t) + b * g(t), (0.0, 2.0)).value
    parts = a * integrate(f, (0.0, 2.0)).value + b * integrate(g, (0.0, 2.0)).value
    assert abs(combo - parts) <= 10.0 * OPTS.abs_tol


def test_conjugation():
    f = lambda t: np.exp(1j * t) * (1.0 + t)
    direct = integrate(lambda t: np.conj(f(t)), (0.0, 3.0)).value
    conjed = np.conj(integrate(f, (0.0, 3.0)).value)
    assert abs(direct - conjed) < 1e-14


class TestOddAnnihilation:
    def test_plain_odd(self):
        assert abs(integrate(lambda t: np.sin(t) + 0j, (-2.0, 2.0)).value) < OPTS.abs_tol

    def test_gaussian_odd(self):
        res = integrate(lambda t: t * np.exp(-t * t) + 0j, (-math.inf, math.inf), envelope=GaussianDecay())
        assert abs(res.value) < OPTS.abs_tol

    def test_unresolvable_phase_odd(self):
        # the phase is far beyond any panel budget; folding still kills it
        def f(t):
            return np.exp(-1j * 3.0 * math.pi * np.exp(t * t)) * np.sin(t) * np.exp(-t * t)

        opts = QuadOpts(oscillation_hint=1e12)
        res = integrate(f, (-math.inf, math.inf), opts, envelope=GaussianDecay())
        assert abs(res.value) < opts.abs_tol


def test_missing_envelope():
    with pytest.raises(MissingEnvelopeError):
        integrate(lambda t: np.exp(-t * t) + 0j, (-math.inf, math.inf))


def test_nonconvergence_reports_worst_panel():
    opts = QuadOpts(max_subdivisions=16)
    with pytest.raises(NonconvergenceError) as exc:
        integrate(lambda t: np.exp(1000j * t), (0.0, 2.0 * math.pi), opts)
    lo, hi = exc.value.worst_panel
    assert 0.0 <= lo < hi <= 2.0 * math.pi


def test_compact_support_intersection():
    res = integrate(lambda t: np.ones_like(t, dtype=complex), (-10.0, 10.0), envelope=CompactSupport(-1.0, 2.0))
    assert res.value == pytest.approx(3.0, abs=1e-12)
    assert res.window == (-1.0, 2.0)


def test_disjoint_support_is_zero():
    res = integrate(lambda t: np.ones_like(t, dtype=complex), (5.0, 10.0), envelope=CompactSupport(-1.0, 1.0))
    assert res == QuadResult(0j, 0.0, (0.0, 0.0), 0)


def test_truncation_is_envelope_driven():
    window = truncate_interval((-math.inf, math.inf), ExpDecay(2.0), QuadOpts())
    assert window is not None
    lo, hi = window
    assert lo == -hi
    # exponential tail beyond the cutoff is below abs_tol/10 (split over two tails)
    assert math.exp(-2.0 * hi) / 2.0 <= QuadOpts().abs_tol / 10.0


@pytest.mark.parametrize("interval", [(30.0, 40.0), (30.0, math.inf), (-40.0, -30.0)])
def test_an_interval_past_the_cutoff_is_0_within_its_tail(interval):
    # its window is None; the error was 0 against a true value of about 9.4e-14
    f = lambda t: np.exp(-np.abs(t)) + 0j
    res = integrate(f, interval, envelope=ExpDecay(1.0))
    exact = math.exp(-30.0) - (math.exp(-40.0) if math.isfinite(interval[1]) else 0.0)
    assert res.value == 0 and 0 < abs(res.value - exact) <= res.err_estimate


def test_determinism():
    f = lambda t: np.exp(1j * 7.3 * t) / (1.0 + t * t)
    opts = QuadOpts(oscillation_hint=7.3)
    r1 = integrate(f, (-3.0, 5.0), opts)
    r2 = integrate(f, (-3.0, 5.0), opts)
    assert r1.value == r2.value
    assert r1.err_estimate == r2.err_estimate
    assert r1.panels == r2.panels


def test_opts_validation():
    with pytest.raises(ValueError):
        QuadOpts(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadOpts(rel_tol=-1.0)
    with pytest.raises(ValueError):
        QuadOpts(max_subdivisions=0)


@pytest.mark.parametrize("value", [2.5, "64", None, 64.0])
def test_max_subdivisions_must_be_an_integer(value):
    # 2.5 was accepted and failed later in range() with a TypeError
    with pytest.raises(ValueError, match=re.escape(f"max_subdivisions must be an integer >= 1, got {value!r}")):
        QuadOpts(max_subdivisions=value)
    assert QuadOpts(max_subdivisions=np.int64(64)).max_subdivisions == 64


@pytest.mark.parametrize("hint", [math.nan, -5.0, math.inf, -math.inf])
def test_oscillation_hint_must_be_none_or_finite_and_nonnegative(hint):
    # nan and -5 gave the 3 panels of no hint, and inf the 1,024-panel cap
    with pytest.raises(ValueError, match=re.escape(f"oscillation_hint must be None or finite and >= 0, got {hint}")):
        QuadOpts(oscillation_hint=hint)
    assert integrate(np.cos, (0.0, 1.0), QuadOpts(oscillation_hint=0.0)).panels == 3


def test_degenerate_interval():
    with pytest.raises(ValueError):
        integrate(lambda t: t + 0j, (1.0, 1.0))


def test_nonfinite_integrand_reported():
    def f(t):
        return np.where(t < 0.5, 1.0 + 0j, complex("nan"))

    with pytest.raises(Exception, match="nonfinite"):
        integrate(f, (0.0, 1.0))


def test_presplit_sized_by_local_rate():
    # e^{i w t^2} on [0, 4], as eta = -w / pi on the curve (t, t^2): the rate
    # 2 w t is highest at t = 4, so blocks near 0 need fewer panels than the
    # uniform pre-split sized for t = 4: the 16 blocks of width 1/4 turn by
    # 6.25 k radians, k = 1, ..., 16, and take ceil(6.25 k / (8 pi)) panels
    xi, eta = np.zeros(2), np.full(2, -50.0 / math.pi)
    slow_start = lambda lo, hi: (1.0, 2.0 * max(abs(lo), abs(hi)))  # noqa: E731
    constant = lambda lo, hi: (1.0, 2.0 * 4.0)  # noqa: E731
    uniform = math.ceil(4.0 * 2.0 * 50.0 * 4.0 / (8.0 * math.pi))
    local = sum(math.ceil(6.25 * k / (8.0 * math.pi)) for k in range(1, 17))
    assert (local, uniform) == (40, 64)
    for deriv_sup, most in ((slow_start, local), (constant, uniform)):
        rows = Rows(xi, eta, lambda t: (t, t * t), np.ones_like, deriv_sup, NO_PARITY)
        values, errs, panels, failures, _ = integrate_rows(rows, (0.0, 4.0), QuadOpts())
        assert not failures
        assert panels[0] <= most
        want = integrate(lambda t: np.exp(1j * 50.0 * t * t), (0.0, 4.0), QuadOpts(oscillation_hint=400.0))
        assert want.panels == uniform
        assert abs(values[0] - want.value) <= errs[0] + want.err_estimate


def test_panel_phase_of_a_tiny_envelope_does_not_underflow():
    # c A = 1.6e-72 x 1e-300 underflows to 0, and dividing by it raised
    # ZeroDivisionError: an envelope that small lets a panel span phase_max,
    # as exp(log(phase_max))
    envelope = GaussianDecay(1e-10, 1e-300)
    theta = quadrature._panel_phase(envelope, 0.0, 1.0, False, 1.0, 1e-10)
    assert theta == pytest.approx(quadrature.GK41.phase_max, rel=1e-15, abs=0.0)


def test_nonfinite_value_met_during_bisection_is_raised():
    # the pre-split nodes miss the NaN hole around 0.3; bisecting the kink there reaches it
    def integrand(t):
        return np.where(np.abs(t - 0.3) < 1e-7, np.nan, np.sqrt(np.abs(t - 0.3))) + 0j

    with pytest.raises(QuadratureError, match="nonfinite value near t=") as info:
        integrate(integrand, (0.0, 1.0), QuadOpts(abs_tol=1e-13, rel_tol=1e-13))
    assert not isinstance(info.value, NonconvergenceError)
    assert abs(float(re.search(r"t=(\S+)", str(info.value)).group(1)) - 0.3) < 1e-7


def _one(rows: Rows, r: int) -> Rows:
    """Row ``r`` of ``rows`` as a batch of its own, which never shares a pre-split."""
    return rows._replace(xi=rows.xi[r : r + 1], eta=rows.eta[r : r + 1])


def test_rows_before_the_first_failure_are_refined_as_if_alone():
    # three rows with rate 0 share one segment group: g is kinked at 0.3, and
    # x jumps to 1e300 at t = 0.5, where only row 1's phase xi x overflows.
    # Row 1 is the failure; row 0, before it, is bisected at the kink first
    rows = Rows(
        np.array([0.0, 1e10, 0.0]),
        np.array([0.0, 0.0, 1.0]),
        lambda t: (np.where(t < 0.5, t, 1e300), t),
        lambda t: np.sqrt(np.abs(t - 0.3)) + 0j,
        lambda lo, hi: (0.0, 0.0),
        NO_PARITY,
    )
    value, err, panels, failure, _ = integrate_rows(rows, (0.0, 1.0), OPTS)
    alone = integrate_rows(_one(rows, 1), (0.0, 1.0), OPTS)[3]
    assert alone[0] == 0 and re.match(r"integrand returned a nonfinite value near t=0\.5", str(alone[1]))
    assert failure[0] == 1 and str(failure[1]) == str(alone[1])
    want = integrate_rows(_one(rows, 0), (0.0, 1.0), OPTS)
    assert want[2][0] > 8 and want[3] is None
    assert (value[0].tobytes(), err[0].tobytes(), panels[0]) == (want[0][0].tobytes(), want[1][0].tobytes(), want[2][0])


def _grid_rows_case(g) -> Rows:
    """36 rows e^{-i pi (xi t + eta t^2)} g(t) on [0, 1], xi in 64, ..., 384 and eta in 0, ..., 160.

    The rows fill the grid of those frequencies on the curve (t, t^2).  The
    fastest row, the last, takes 78 panels in 16 block-wise segments, and
    one pre-split sized for it is shared by the grid: 12 x 78 exponentials a
    node, against the rows' own 1,593 panels.
    """
    iu, iv = np.divmod(np.arange(36), 6)
    xi, eta = 64.0 * (iu + 1.0), 32.0 * iv
    return Rows(xi, eta, lambda t: (t, t * t), g, lambda lo, hi: (1.0, 2.0 * max(abs(lo), abs(hi))), NO_PARITY)


def _alone(rows: Rows):
    """``integrate_rows`` of each row of ``rows`` as a batch of its own, as one batch returns them."""
    out = [integrate_rows(_one(rows, r), (0.0, 1.0), OPTS) for r in range(rows.xi.size)]
    failure = next(((r, o[3][1]) for r, o in enumerate(out) if o[3]), None)
    return tuple(np.concatenate([o[i] for o in out]) for i in range(3)) + (failure,)


def _spy(monkeypatch, name):
    """Record the arguments of every call of ``quadrature.<name>`` to come."""
    calls, original = [], getattr(quadrature, name)

    def spying(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(quadrature, name, spying)
    return calls


def test_grid_rows_that_miss_are_refined_from_their_own_presplits(monkeypatch):
    # g has a kink at 1/pi, so every row misses tolerance on its first panels
    # and is bisected alone from its own pre-split, whether the rows shared
    # one pre-split or not: the same bits either way, block-wise rows included
    rows = _grid_rows_case(lambda t: np.abs(t - 1.0 / np.pi))
    grid_rows, refined = _spy(monkeypatch, "_grid_rows"), _spy(monkeypatch, "_refine")
    shared = integrate_rows(rows, (0.0, 1.0), OPTS)
    assert len(grid_rows) == 1 and [args[1] for args in refined] == list(range(36))
    alone = _alone(rows)
    assert len(grid_rows) == 1 and [args[1] for args in refined[36:]] == [0] * 36
    assert alone[3] is None and shared[3] is None
    assert [a.tobytes() for a in shared[:3]] == [a.tobytes() for a in alone[:3]]


def test_nonfinite_grid_rows_fail_as_on_their_own_presplits(monkeypatch):
    # g is NaN at one node of the shared pre-split, in the 78 panels of its
    # 16 blocks: every row's sums on it are NaN, and every row is scored
    # again, and refined, on its own pre-split.  The first row whose own
    # pre-split has that node, one of the fastest, fails there, as it fails
    # alone, and each row before it is within both error bars of itself
    # alone.  Scoring the rows again on the shared pre-split would fail at row 0
    nodes = _spy(monkeypatch, "_edges")
    assert integrate_rows(_grid_rows_case(np.cos), (0.0, 1.0), OPTS)[3] is None
    edges = quadrature._edges(*nodes[0])
    assert edges.size == 79
    bad = 0.5 * (edges[10] + edges[11]) + 0.5 * (edges[11] - edges[10]) * quadrature.GK41.nodes[4]
    rows = _grid_rows_case(lambda t: np.where(t == bad, np.nan, np.cos(t)))
    refined = _spy(monkeypatch, "_refine")
    shared = integrate_rows(rows, (0.0, 1.0), OPTS)
    first = shared[3][0]
    assert first >= 30 and [args[1] for args in refined] == list(range(first + 1))
    alone = _alone(rows)
    assert alone[3][0] == first and str(alone[3][1]) == str(shared[3][1])
    assert (np.abs(shared[0] - alone[0]) <= shared[1] + alone[1])[:first].all()


def test_rows_are_scored_at_most_a_chunk_at_a_time(monkeypatch):
    # the rows of a segment are built and scored as many at a time as fit
    # 1,000 integrand values, and one at a time where one row has more; the
    # bits are those of the default blocks.  The rows' distinct xi and eta
    # make a diagonal, which fills no grid
    rows = _grid_rows_case(np.cos)._replace(xi=np.linspace(64.0, 384.0, 36), eta=np.linspace(0.0, 160.0, 36))
    scored = _spy(monkeypatch, "_score")
    want = integrate_rows(rows, (0.0, 1.0), OPTS)
    blocks = len(scored)
    scored.clear()
    monkeypatch.setattr(quadrature, "_CHUNK", 1000)
    got = integrate_rows(rows, (0.0, 1.0), OPTS)
    shapes = [np.shape(args[0]) for args in scored]
    assert all(rows * nodes <= 1000 or rows == 1 for rows, nodes in shapes) and len(shapes) > blocks
    assert any(rows > 1 for rows, _ in shapes) and any(nodes > 1000 for _, nodes in shapes)
    assert [a.tobytes() for a in got[:3]] == [a.tobytes() for a in want[:3]] and got[3] is None


def test_rows_of_uniform_and_block_wise_presplits_keep_their_bits_alone(monkeypatch):
    # the diagonal fills no grid, and its rows split into 15 uniform pre-splits
    # and 21 block-wise ones.  Each row adds up its own spans in t order,
    # whatever rows share a span, so it has the bits of a batch of its own
    rows = _grid_rows_case(np.cos)._replace(xi=np.linspace(64.0, 384.0, 36), eta=np.linspace(0.0, 160.0, 36))
    tables, presplits = [], quadrature._presplits
    monkeypatch.setattr(quadrature, "_presplits", lambda *args: tables.append(presplits(*args)) or tables[-1])
    got = integrate_rows(rows, (0.0, 1.0), OPTS)
    counts = tables[0][1]
    assert (counts[0] > 0).sum() == 15 and (counts[1:] > 0).all(axis=0).sum() == 21
    assert got[2].sum() == 1618 and got[3] is None
    alone = _alone(rows)
    assert [a.tobytes() for a in got[:3]] == [a.tobytes() for a in alone[:3]] and alone[3] is None


def test_refinement_names_the_node_where_the_fold_overflows():
    # f is finite everywhere, but f(t) + f(-t) overflows for |t| > 0.5 on the
    # folded window: the row's sums are not finite, and refining it names the
    # lowest node of its 3-panel pre-split of [0, 1] where the fold overflows
    def f(t):
        return np.where(np.abs(t) > 0.5, 1e308, 1.0) + 0j

    edges = np.linspace(0.0, 1.0, 4)
    x, _ = quadrature._nodes(edges[:-1], edges[1:], False)
    lowest = x[x > 0.5].min()
    with pytest.raises(QuadratureError, match=re.escape(f"nonfinite value near t={lowest}")) as info:
        integrate(f, (-1.0, 1.0))
    assert not isinstance(info.value, NonconvergenceError)


def test_band_past_the_node_limit_takes_no_trapezoid_nodes():
    # a degree B needs more than 2B nodes, and 2 * 8192 is the limit itself
    rows = Rows(np.zeros(2), np.ones(2), lambda t: (np.cos(t), np.sin(t)), np.cos, lambda lo, hi: (1.0, 1.0), NO_PARITY)
    rows = rows._replace(band=Band(8192, 1.0), strip=np.sinh)
    nodes, bound = quadrature._periodic_nodes(rows, np.array([math.pi, 10.0]), 1e-11)
    assert nodes.tolist() == [0, 0] and bound.tolist() == [math.inf, math.inf]


def _equispaced(lo: float, hi: float, n: int) -> np.ndarray:
    """An axis as ``cli`` makes a grid's: lo + (hi - lo) i / (n - 1)."""
    return np.array([lo + (hi - lo) * i / (n - 1) for i in range(n)])


@pytest.mark.parametrize("n", [2, 3, 7, 16, 17, 20, 57])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_recurrence_entries_within_their_drift_bound(n, seed):
    # every power built by recurrence is within the bound its grid adds to
    # each row's err of the direct exponential, at |c| up to 100; the anchors
    # are the direct exponentials to the bit
    rng = np.random.default_rng(100 * seed + n)
    s = _equispaced(rng.uniform(-60.0, 0.0), rng.uniform(0.0, 60.0), n)
    c = rng.uniform(-100.0, 100.0, (40, 15))
    delta = (s[-1] - s[0]) / (n - 1)
    j = np.arange(n)
    past = j % quadrature._ANCHOR
    step = (delta, float(np.abs(s - (s[j - past] + past * delta)).max()), s, j)
    axis = quadrature._step(s)
    # two values are never taken as an axis of the recurrence, which would save no exponential
    if n < 3:
        assert axis is None
        axis = step
    else:
        assert axis[:2] == step[:2] and axis[2].tolist() == s.tolist() and axis[3].tolist() == j.tolist()
    got = quadrature._powers(s, axis, c)
    want = np.exp(np.multiply(-1j * math.pi, s[:, None, None] * c))
    assert (got[:: quadrature._ANCHOR] == want[:: quadrature._ANCHOR]).all()
    assert np.abs(got - want).max() <= quadrature._drift(s, axis, float(np.abs(c).max()))


@pytest.mark.parametrize(
    "n, holes",
    [(7, [3]), (20, [0, 19]), (20, [5, 6, 7]), (57, [16, 17, 40]), (8, [1, 2, 3, 5])],
    ids=["centre", "ends", "run", "anchors", "half"],
)
def test_recurrence_across_holes_within_drift_bound(n, holes):
    # values missing from an equispaced axis leave holes in its lattice: the
    # powers are built over the whole lattice and the holes dropped.  The
    # values at anchors are the direct exponentials to the bit, and every
    # power is within the drift bound of a lattice of n values; the ends are
    # the axis's own, so a hole there shortens the lattice
    rng = np.random.default_rng(n)
    lattice = _equispaced(rng.uniform(-60.0, 0.0), rng.uniform(0.0, 60.0), n)
    kept = np.setdiff1d(np.arange(n), holes)
    s, c = lattice[kept], rng.uniform(-100.0, 100.0, (40, 15))
    axis = quadrature._step(s)
    assert axis[3].tolist() == (kept - kept[0]).tolist() and axis[2].size == kept[-1] - kept[0] + 1
    got = quadrature._powers(s, axis, c)
    want = np.exp(np.multiply(-1j * math.pi, s[:, None, None] * c))
    anchors = axis[3] % quadrature._ANCHOR == 0
    assert got.shape == want.shape and (got[anchors] == want[anchors]).all()
    assert np.abs(got - want).max() <= quadrature._drift(s, axis, float(np.abs(c).max()))


def test_a_lattice_more_than_twice_the_axis_is_not_taken():
    # 4 values on a lattice of 8 are taken, on one of 9 they are not: the
    # lattice's exponentials would be as many as the values'
    assert quadrature._step(np.array([0.0, 1.0, 2.0, 7.0]))[3].tolist() == [0, 1, 2, 7]
    assert quadrature._step(np.array([0.0, 1.0, 2.0, 8.0])) is None
    assert quadrature._step(np.array([0.0, 1.0, 2.5, 7.0])) is None


def _recurrence_off(monkeypatch):
    """Find no equispaced axis, as before the recurrence: every factor one exponential an entry."""
    monkeypatch.setattr(quadrature, "_step", lambda s: None)


def test_recurrence_adds_its_drift_to_every_rows_err(monkeypatch):
    # both axes of the 6x6 grid take the recurrence: every row's err is the
    # err of one exponential an entry plus both drift bounds times
    # sum |g| w h, here the integral of |cos t| over [0, 1], sin 1; the
    # Kronrod - Gauss differences of the two builds differ by 4e-16 at most
    drifts, drift = [], quadrature._drift
    monkeypatch.setattr(quadrature, "_drift", lambda *args: drifts.append(drift(*args)) or drifts[-1])
    value, err, panels, failure, _ = integrate_rows(_grid_rows_case(np.cos), (0.0, 1.0), OPTS)
    assert failure is None and len(drifts) == 2 and (panels == panels[0]).all()
    _recurrence_off(monkeypatch)
    want = integrate_rows(_grid_rows_case(np.cos), (0.0, 1.0), OPTS)
    assert np.abs(value - want[0]).max() <= 1e-13
    assert err - want[1] == pytest.approx(np.full(36, sum(drifts) * math.sin(1.0)), rel=1e-2, abs=0.0)


def test_an_axis_off_by_1e_9_keeps_the_exponentials(monkeypatch):
    # one value of each axis moved by 1e-9 is far more than a few ulps: the
    # grid takes one exponential an entry, with the bits of the grid before
    # the recurrence; unmoved, both axes take the recurrence
    factors = _spy(monkeypatch, "_factors")
    integrate_rows(_grid_rows_case(np.cos), (0.0, 1.0), OPTS)
    assert all(None not in args[4] for args in factors)
    rows = _grid_rows_case(np.cos)
    rows = rows._replace(xi=np.where(rows.xi == 192.0, 192.0 + 1e-9, rows.xi))
    rows = rows._replace(eta=np.where(rows.eta == 64.0, 64.0 + 1e-9, rows.eta))
    assert all(quadrature._step(quadrature._distinct(v)[0]) is None for v in (rows.xi, rows.eta))
    got = integrate_rows(rows, (0.0, 1.0), OPTS)
    _recurrence_off(monkeypatch)
    want = integrate_rows(rows, (0.0, 1.0), OPTS)
    assert [a.tobytes() for a in got[:3]] == [a.tobytes() for a in want[:3]] and got[3] is want[3] is None


def test_fourlines_fiber_heights_keep_the_exponentials(monkeypatch):
    # the certificate's Lambda is xi x {fiber heights}: its xi axis is
    # equispaced and takes the recurrence, its heights are not, and their
    # factor has the bits of the grid before the recurrence
    cert = fourlines_annihilator(4, 0.7)
    points = sample_set(cert.lam, 512, cert.window) + [cert.witness_point]
    eta = np.array([point[1] for point in points])
    assert quadrature._step(quadrature._distinct(np.array([point[0] for point in points]))[0]) is not None
    assert quadrature._step(quadrature._distinct(eta)[0]) is None
    runs, original = [], quadrature._factors
    monkeypatch.setattr(quadrature, "_factors", lambda *args: runs[-1].append(original(*args)) or runs[-1][-1])
    powers = _spy(monkeypatch, "_powers")
    for off in (False, True):
        if off:
            _recurrence_off(monkeypatch)
        runs.append([])
        mu_hat_at_points(cert.measure, points, _quad_opts(RESIDUAL_TOL))
    assert len(runs[0]) == len(runs[1]) == len(powers) > 0
    assert all(a[1].tobytes() == b[1].tobytes() for a, b in zip(*runs))
    assert all(args[0].size == u.shape[1] for args, (u, _) in zip(powers, runs[0]))
