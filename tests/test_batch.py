"""The batched transform against the former per-point path, and its work counts."""

import cmath
import math
import random
import struct

import numpy as np
import pytest

from huplab import expr, quadrature, transform
from huplab.expr import EvalDomainError, Num, parse
from huplab.geometry import (
    ExpDecay,
    GaussianDecay,
    Measure,
    ParamCurve,
    TabulatedDensity,
    circle,
    expr_curve,
    hyperbola_full,
    parabola,
    sample_set,
    spiral,
)
from huplab.quadrature import QuadOpts
from huplab.transform import mu_hat_at_points
from huplab.witnesses import (
    RESIDUAL_TOL,
    _quad_opts,
    all_annihilators,
    circle_rational_lines_annihilator,
    verify_certificate,
)

from conftest import reference_mu_hat

CASES = ["circle-line", "circle-lines", "circle-bessel", "hyperbola-line", "expcurve-vline", "fourlines"]

# evaluate_array calls per verify_certificate at 512 samples.  The batch makes
# one per node set, and one per component for the roundoff floor of its null
# rows; the per-point path made one per point and component, 513 for each
# certificate here and 2,056 for fourlines.  The circle rows take the
# trapezoid rule, one node set per node count: circle-lines made 44 calls on
# panels of 15 nodes
EVALUATE_ARRAY_CALLS_MAX = {
    "circle-line": 2,
    "circle-lines": 6,
    "circle-bessel": 1,
    "hyperbola-line": 2,
    "expcurve-vline": 2,
    "fourlines": 6,
}

# the points at which each certificate's density is odd against an even phase
NULL_AT = {
    "circle-line": lambda xi, eta: eta == 0.0,
    "circle-lines": lambda xi, eta: eta == 0.0,
    "circle-bessel": lambda xi, eta: False,
    "hyperbola-line": lambda xi, eta: eta == 0.0,
    "expcurve-vline": lambda xi, eta: xi == 0.0,
    "fourlines": lambda xi, eta: False,
}

# the certificates whose Lambda is a grid, xi x {fiber heights}: their rows
# share one pre-split (see test_exponentials_on_the_fourlines_lambda)
SHARED = {"fourlines"}

# the certificates on the circle, whose densities are trigonometric
# polynomials: their rows take the trapezoid rule, not the reference's panels
# (see test_circle_certificate_rows_take_the_trapezoid_rule)
TRAPEZOID = {"circle-line", "circle-lines", "circle-bessel"}

# complex exponentials per verify_certificate at 512 samples, and on
# circle-lines --j 300, all on trapezoid rows.  On panels of 15 nodes they built
# 266,160 (circle-lines, j = 3), 123,120 (circle-bessel, k = 0, n = 1) and
# 10,388,640 (j = 300, 1,198 rows refined)
TRAPEZOID_EXPONENTIALS_MAX = {"circle-line": 32, "circle-lines": 18_016, "circle-bessel": 16_416, "j300": 364_256}

# the curves, densities and envelopes of the ft grids in perfbench, on a
# coarser grid that keeps the corners, where the phase is fastest
GRIDS = {
    "hyperbola": (Measure(hyperbola_full(), (parse("sin(t)*exp(-(t^2))"),), GaussianDecay(1.0)), 5.0),
    "parabola": (Measure(parabola(), (parse("exp(-(t^2))"),), GaussianDecay(1.0)), 20.0),
    "spiral": (Measure(spiral(), (parse("exp(-t)*cos(t)"),), ExpDecay(1.0)), 10.0),
}

# the nodes per panel
GRID_NODES = len(quadrature.GK41.nodes)

# complex exponentials built per mu_hat_at_points call on each GRIDS measure's
# 7x7 grid and on the fourlines certificate's Lambda (sample_set at 512 and the
# witness point).  Each takes one shared pre-split, the fastest row's.  An
# axis on an equispaced lattice takes ceil(#lattice / 16) + 1 exponentials
# per node, its anchors' and the ratio's (2 on a 7-value axis), and the
# others #values: the hyperbola's eta axis lacks its null row at eta = 0, a
# hole in its lattice, and the fourlines fiber heights are not equispaced.
# With the blocks' 41-node panels sized by the error model of a 15-node rule,
# its counts scaled by 1/8, they built 9,020, 10,004, 3,608 and 3,690; on
# 15-node panels they built 45,600, 24,900, 4,200 and 4,500, and the
# hyperbola's eta axis took one
# exponential an entry for lack of its null row.  With
# #xi + #eta exponentials per node they built 74,100, 87,150, 14,700 and
# 20,100.  The hyperbola, parabola and fourlines windows are folded, and each
# coordinate there is even or odd, so the factors are built at the nodes
# t >= 0 only: building them at -t too took 148,200, 174,300 and 40,200.
# With a pre-split per row and one exponential per row and node they built
# 299,280, 354,180, 41,640 and 256,440
EXPONENTIALS_MAX = {"hyperbola": 8_364, "parabola": 8_200, "spiral": 3_116, "fourlines": 3_690}

# panels of the rows that take their own pre-split, refined rows included,
# and rows refined, on each GRIDS measure's 7x7 grid: none, as all rows share
# one pre-split.  With a pre-split per row, sizing panels by phase rate alone
# took 20,282, 17,188 and 2,520 panels, refining 0, 0 and 8 rows; sizing them
# with the envelope too took at most 10,368, 11,806 and 2,520
GRID_PANELS_MAX = {"hyperbola": 0, "parabola": 0, "spiral": 0}
GRID_REFINED_MAX = {"hyperbola": 0, "parabola": 0, "spiral": 0}

# ParamCurve.deriv_sup calls per mu_hat_at_points call on each GRIDS measure's
# 7x7 grid: one for the rates over the window, and one per pre-split block
# and, on the folded hyperbola and parabola windows, per mirrored block.
# Sizing the shared pre-split again at the fastest rate took 65, 65 and 33
DERIV_SUP_CALLS_MAX = {"hyperbola": 33, "parabola": 33, "spiral": 17}


# folded 7x7 grids on expr curves, (x, y, nodes per panel of the u and the
# v), one for each parity of the coordinates: a factor of known parity is
# built at the 41 nodes t >= 0 of a panel, one of unknown parity at 82
PARITY_CURVES = {
    "odd-odd": ("t", "t^3", (GRID_NODES, GRID_NODES)),
    "even-even": ("t^2", "cos(t)", (GRID_NODES, GRID_NODES)),
    "odd-even": ("t", "t^2", (GRID_NODES, GRID_NODES)),
    "even-odd": ("t^2", "t", (GRID_NODES, GRID_NODES)),
    "odd-unknown": ("t", "t^2+t", (GRID_NODES, 2 * GRID_NODES)),
    "unknown-even": ("t^2+t", "cos(t)", (2 * GRID_NODES, GRID_NODES)),
}


def _axis(half):
    return [-half + 2.0 * half * i / 6 for i in range(7)]


def _grid(name):
    measure, half = GRIDS[name]
    return measure, [(xi, eta) for xi in _axis(half) for eta in _axis(half)]


def _parity_grid(name):
    x, y, _ = PARITY_CURVES[name]
    measure = Measure(expr_curve(parse(x), parse(y), (-2.5, 2.5)), (parse("exp(-(t^2))"),), GaussianDecay(1.0))
    return measure, [(xi, eta) for xi in _axis(3.0) for eta in _axis(3.0)]


@pytest.fixture(scope="module")
def certificates():
    return dict(zip(CASES, all_annihilators()))


def _bits(ft):
    return struct.pack("<3d", ft.value.real, ft.value.imag, ft.err_estimate), ft.truncation_window


@pytest.mark.parametrize("case", CASES)
def test_bit_identical_to_per_point_path_on_lambda(certificates, case):
    cert = certificates[case]
    opts = _quad_opts(RESIDUAL_TOL)
    points = sample_set(cert.lam, 512, cert.window) + [cert.witness_point]
    got = mu_hat_at_points(cert.measure, points, opts)
    null = [k for k, point in enumerate(points) if NULL_AT[case](*point)]
    live = [k for k in range(len(points)) if k not in null]
    refs = {k: reference_mu_hat(cert.measure, *points[k], opts) for k in live}
    if case in SHARED | TRAPEZOID:
        # other panels or nodes than the reference's: within both error bars
        for k in live:
            assert abs(got[k].value - refs[k].value) <= got[k].err_estimate + refs[k].err_estimate, points[k]
            assert got[k].truncation_window == refs[k].truncation_window
    else:
        assert [_bits(got[k]) for k in live] == [_bits(refs[k]) for k in live]
    # rows decided from parity are exactly 0 and share one error bar: the tail
    # and the roundoff floor, measured on other panels than the reference's.
    # At xi = 0 on the exp-curve the reference pays 8,192 panels a point, so
    # it is checked on every 16th of them
    assert all(got[k].value == 0j and got[k].err_estimate == got[null[0]].err_estimate for k in null)
    for k in null[::16]:
        ref = reference_mu_hat(cert.measure, *points[k], opts)
        assert abs(ref.value) <= ref.err_estimate
        assert got[k].err_estimate == pytest.approx(ref.err_estimate, rel=1e-3, abs=0.0)
        assert got[k].truncation_window == ref.truncation_window


@pytest.mark.parametrize("name", list(GRIDS) + ["odd-unknown"] + CASES)
def test_row_bits_do_not_depend_on_the_batch(certificates, name, monkeypatch):
    # a row's value and error are the same bits whichever rows share its
    # segment groups: the points in reverse order and every point twice,
    # against the default batch, and for rows that take their own pre-split,
    # rows built and scored one by one.  The GRIDS, odd-unknown and fourlines
    # rows share one pre-split, which depends on the set of points only, and
    # sum it in blocks of panels that _CHUNK sizes; any of them that missed
    # tolerance would be refined from its own pre-split
    if name in GRIDS:
        (measure, points), opts = _grid(name), QuadOpts()
    elif name in PARITY_CURVES:
        (measure, points), opts = _parity_grid(name), QuadOpts()
    else:
        cert, opts = certificates[name], _quad_opts(RESIDUAL_TOL)
        measure, points = cert.measure, sample_set(cert.lam, 512, cert.window) + [cert.witness_point]
    want = [_bits(ft) for ft in mu_hat_at_points(measure, points, opts)]
    assert [_bits(ft) for ft in reversed(mu_hat_at_points(measure, points[::-1], opts))] == want
    assert [_bits(ft) for ft in mu_hat_at_points(measure, points + points, opts)] == want + want
    if name not in GRIDS and name not in PARITY_CURVES and name not in SHARED:
        monkeypatch.setattr(quadrature, "_CHUNK", 1)
        assert [_bits(ft) for ft in mu_hat_at_points(measure, points, opts)] == want


def _work(monkeypatch) -> dict:
    """Count the work of the ``integrate_rows`` calls to come.

    ``exponentials``: complex exponentials built, one per row and node of the
    rows built alone (trapezoid rows included), and on a shared pre-split
    the entries of every ``np.exp`` that ``_factors`` calls: the anchors and
    ratios of an axis built by recurrence, one per u or v entry of the
    others; ``rows``: the rows built alone on their own panels, by index
    among the rows of their call's panel stage (the rows that no earlier
    stage settled); ``panels``: their panels, refined rows included;
    ``refined``: the rows refined; ``factor nodes``: the nodes per panel of
    each shared pre-split's u and v, as pairs; ``trapezoid nodes``: the nodes
    of the rows summed by the trapezoid rule.
    """
    work = {"exponentials": 0, "rows": set(), "panels": 0, "refined": 0, "factor nodes": set(), "trapezoid nodes": 0}
    integrate_rows, values, span_rows = quadrature.integrate_rows, quadrature._values, quadrature._span_rows
    refine, factors, periodic_rows = quadrature._refine, quadrature._factors, quadrature._periodic_rows
    # a call's panel stage: the rows built alone, and each row's panels as they stand
    alone, panels = set(), {}
    trapezoid = []  # the trapezoid stage's rows while it builds them

    def counting_rows(rows, *args):
        out = integrate_rows(rows, *args)
        work["rows"] |= alone
        work["panels"] += sum(panels[r] for r in alone)
        alone.clear()
        panels.clear()
        return out

    def counting_periodic_rows(rows, *args):
        trapezoid.append(rows)
        try:
            value, err, nodes = periodic_rows(rows, *args)
        finally:
            trapezoid.clear()
        work["trapezoid nodes"] += int(nodes.sum())
        return value, err, nodes

    def counting_values(rows, r, x, y, g):
        if x is not None:
            alone.update([] if trapezoid else r.tolist())
            work["exponentials"] += r.size * x.size
        return values(rows, r, x, y, g)

    def counting_span_rows(rows, spans, counts, folded):
        panels.update(enumerate(counts.sum(axis=0).tolist()))
        return span_rows(rows, spans, counts, folded)

    class CountingNumpy:
        # numpy, whose exp counts the entries it computes
        def __getattr__(self, name):
            return getattr(np, name)

        def exp(self, z, *args, **kwargs):
            work["exponentials"] += np.size(z)
            return np.exp(z, *args, **kwargs)

    def counting_factors(*args):
        quadrature.np = CountingNumpy()
        try:
            u, v = factors(*args)
        finally:
            quadrature.np = np
        work["factor nodes"].add((u.shape[2], v.shape[1]))
        return u, v

    def counting_refine(rows, r, *args):
        work["refined"] += 1
        panels[r] = (out := refine(rows, r, *args))[2]
        return out

    monkeypatch.setattr(transform, "integrate_rows", counting_rows)
    monkeypatch.setattr(quadrature, "integrate_rows", counting_rows)
    monkeypatch.setattr(quadrature, "_values", counting_values)
    monkeypatch.setattr(quadrature, "_span_rows", counting_span_rows)
    monkeypatch.setattr(quadrature, "_factors", counting_factors)
    monkeypatch.setattr(quadrature, "_refine", counting_refine)
    monkeypatch.setattr(quadrature, "_periodic_rows", counting_periodic_rows)
    return work


@pytest.mark.parametrize("case", ["circle-line", "hyperbola-line", "expcurve-vline"])
def test_lambda_rows_of_odd_densities_evaluate_no_phase(certificates, case, monkeypatch):
    # a null row missed would pay its full pre-split: on the exp-curve at
    # xi = 0 that is seconds per certificate
    work = _work(monkeypatch)
    cert = certificates[case]
    points = sample_set(cert.lam, 512, cert.window)
    opts = _quad_opts(RESIDUAL_TOL)
    got = mu_hat_at_points(cert.measure, points, opts)
    assert work["exponentials"] == 0
    assert all(ft.value == 0j and 0.0 < ft.err_estimate <= opts.abs_tol for ft in got)


@pytest.mark.parametrize("name", GRIDS)
def test_within_error_bars_of_per_point_path_on_grids(name):
    measure, points = _grid(name)
    opts = QuadOpts()
    for (xi, eta), got in zip(points, mu_hat_at_points(measure, points, opts)):
        want = reference_mu_hat(measure, xi, eta, opts)
        assert abs(got.value - want.value) <= got.err_estimate + want.err_estimate, (xi, eta)
        assert got.truncation_window == want.truncation_window


@pytest.mark.parametrize("case", CASES)
def test_evaluate_array_calls_per_verification(certificates, case, monkeypatch):
    nodes = []
    original = expr.evaluate_array

    def counting(node, t):
        nodes.append(node)
        return original(node, t)

    monkeypatch.setattr(expr, "evaluate_array", counting)
    assert verify_certificate(certificates[case]).ok
    assert len(nodes) <= EVALUATE_ARRAY_CALLS_MAX[case]
    # a component whose density is the constant 0 is skipped
    assert Num(0.0) not in nodes


@pytest.mark.parametrize("name", GRIDS)
def test_panels_and_refined_rows_on_grids(name, monkeypatch):
    work = _work(monkeypatch)
    mu_hat_at_points(*_grid(name), QuadOpts())
    assert work["exponentials"] <= EXPONENTIALS_MAX[name]
    assert work["panels"] <= GRID_PANELS_MAX[name]
    assert work["refined"] <= GRID_REFINED_MAX[name]
    # the 41 Kronrod nodes of a panel: on the folded hyperbola and parabola
    # windows, the factors at -t are mirrored from t by parity, not built
    assert work["factor nodes"] == {(GRID_NODES, GRID_NODES)}


@pytest.mark.parametrize("name", GRIDS)
def test_20x20_grids_at_1e_13_refine_no_row(name, monkeypatch):
    # the benchmark's 20x20 grids: at abs_tol 1e-13 every row meets
    # tolerance on the shared pre-split.  On 15-node panels the spiral's
    # grid refined 154 rows and built 338,850 exponentials
    work = _work(monkeypatch)
    measure, half = GRIDS[name]
    axis = [-half + 2.0 * half * i / 19 for i in range(20)]
    opts = QuadOpts(abs_tol=1e-13, rel_tol=1e-13)
    got = mu_hat_at_points(measure, [(xi, eta) for xi in axis for eta in axis], opts)
    assert work["refined"] == work["panels"] == 0 and work["rows"] == set()
    assert all(ft.err_estimate <= max(opts.abs_tol, opts.rel_tol * abs(ft.value)) for ft in got)


@pytest.mark.parametrize("name", GRIDS)
def test_deriv_sup_calls_on_grids(name, monkeypatch):
    calls, deriv_sup = [], ParamCurve.deriv_sup

    def counting(curve, *args):
        calls.append(args)
        return deriv_sup(curve, *args)

    monkeypatch.setattr(ParamCurve, "deriv_sup", counting)
    mu_hat_at_points(*_grid(name), QuadOpts())
    assert len(calls) <= DERIV_SUP_CALLS_MAX[name]


@pytest.mark.parametrize("name", PARITY_CURVES)
def test_folded_grids_on_expr_curves_within_error_bars(name, monkeypatch):
    # every branch of the fold before the matmul: u even, v even, neither
    # (both odd, or a parity unknown); built at t >= 0 where a parity is known
    work = _work(monkeypatch)
    measure, points = _parity_grid(name)
    opts = QuadOpts()
    got = mu_hat_at_points(measure, points, opts)
    assert work["factor nodes"] == {PARITY_CURVES[name][2]}
    for (xi, eta), ft in zip(points, got):
        want = reference_mu_hat(measure, xi, eta, opts)
        assert abs(ft.value - want.value) <= ft.err_estimate + want.err_estimate, (xi, eta)
        assert ft.truncation_window == want.truncation_window


def test_odd_coordinate_with_an_offset_is_not_mirrored(monkeypatch):
    # x = t + 0.3 is neither even nor odd: its u is built at t and -t, and
    # the transform is e^{-i pi 0.3 xi} times the untranslated one
    work = _work(monkeypatch)
    measure, points = _grid("parabola")
    opts = QuadOpts()
    value, err, _, failure = transform._transform(measure, points, opts, (0.3, 0.0))
    assert failure is None and work["factor nodes"] == {(2 * GRID_NODES, GRID_NODES)}
    for (xi, eta), got, got_err, want in zip(points, value, err, mu_hat_at_points(measure, points, opts)):
        phase = cmath.exp(-1j * math.pi * 0.3 * xi)
        assert abs(got - phase * want.value) <= got_err + want.err_estimate, (xi, eta)


def test_exponentials_on_the_fourlines_lambda(certificates, monkeypatch):
    work = _work(monkeypatch)
    cert = certificates["fourlines"]
    points = sample_set(cert.lam, 512, cert.window) + [cert.witness_point]
    mu_hat_at_points(cert.measure, points, _quad_opts(RESIDUAL_TOL))
    assert work["exponentials"] <= EXPONENTIALS_MAX["fourlines"]
    assert work["panels"] == work["refined"] == 0


@pytest.mark.parametrize("case", sorted(TRAPEZOID) + ["j300"])
def test_circle_certificate_rows_take_the_trapezoid_rule(certificates, case, monkeypatch):
    cert = certificates[case] if case in TRAPEZOID else circle_rational_lines_annihilator(300)
    work = _work(monkeypatch)
    assert verify_certificate(cert).ok
    assert work["exponentials"] <= TRAPEZOID_EXPONENTIALS_MAX[case]
    assert work["exponentials"] == work["trapezoid nodes"] > 0
    assert work["rows"] == set() and work["panels"] == work["refined"] == 0


@pytest.mark.parametrize(
    "density",
    [
        parse("sin(2.5*t)"),
        parse("abs(sin(t))"),
        parse("chi(-4,4)(t)*cos(t)"),  # 1 on the whole circle, so no jump to refine
        TabulatedDensity(tuple(np.linspace(-math.pi, math.pi, 65)), tuple(np.cos(np.linspace(-4.0, 4.0, 65)) + 0j)),
    ],
    ids=["non-integer-k", "abs", "chi", "tabulated"],
)
def test_circle_rows_without_a_band_keep_the_gk15_bits(density, monkeypatch):
    def refuse(*args):
        raise AssertionError("a row without a band took the trapezoid rule")

    monkeypatch.setattr(quadrature, "_periodic_rows", refuse)
    rng = random.Random(40)
    # none at eta = 0, where sin(2.5 t) is null and the reference's error bar is measured on other panels
    points = [(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)) for _ in range(40)]
    measure, opts = Measure(circle(), (density,)), QuadOpts()
    got = mu_hat_at_points(measure, points, opts)
    assert [_bits(ft) for ft in got] == [_bits(reference_mu_hat(measure, *point, opts)) for point in points]


def test_null_row_is_decided_without_node_columns(monkeypatch):
    # on the hyperbola, sin(t) e^{-t^2} against the even cosh phase is null at
    # eta = 0 only; both points would need a pre-split of hundreds of panels
    work = _work(monkeypatch)
    measure, half = GRIDS["hyperbola"]
    live, null = mu_hat_at_points(measure, [(half, half), (half, 0.0)], QuadOpts())
    assert work["rows"] == {0}  # the live point only, as row 0 of the rows integrated
    assert work["exponentials"] > quadrature._RATE_BLOCKS * GRID_NODES * 2  # Kronrod nodes and their mirror images
    assert null.value == 0j and live.value != 0j
    want = reference_mu_hat(measure, half, 0.0, QuadOpts())
    assert abs(want.value) <= want.err_estimate
    assert null.err_estimate == pytest.approx(want.err_estimate, rel=1e-3, abs=0.0)


def test_no_point_past_a_failing_null_row_is_integrated(monkeypatch):
    # the odd density overflows (inf - inf), so the null point (0.5, 0) fails
    # when its roundoff floor evaluates it; the live point after it is not
    # integrated
    work = _work(monkeypatch)
    measure = Measure(circle(), (parse("sin(t)*(exp(709)*exp(709)-exp(709)*exp(709))"),))
    with pytest.raises(EvalDomainError, match="nonfinite value in 'exp"):
        mu_hat_at_points(measure, [(0.5, 0.0), (0.5, 0.5)], QuadOpts())
    assert work["exponentials"] == 0


def test_one_circle_batch_through_every_stage(monkeypatch):
    # sin(3t) is odd and a trigonometric polynomial: the points at eta = 0 are
    # null, the others trapezoid rows, except where pi |(xi, eta)| needs more
    # than _PERIODIC_NODES_MAX nodes and the row takes panels
    calls = []
    integrate_rows = quadrature.integrate_rows

    def counting(*args):
        calls.append(out := integrate_rows(*args))
        return out

    monkeypatch.setattr(transform, "integrate_rows", counting)
    monkeypatch.setattr(quadrature, "integrate_rows", counting)
    measure = Measure(circle(), (parse("sin(3*t)"),))
    points = [(1.5, 2.0), (2.0, 0.0), (6000.0, 0.5), (-3.0, 1.0), (0.0, 0.0), (0.5, -6000.0)]
    assert math.pi * math.hypot(*points[2]) > quadrature._PERIODIC_NODES_MAX
    got = mu_hat_at_points(measure, points, QuadOpts())
    assert len(calls) == 1  # one component, settled in one pass
    assert (calls[0][2] > 0).tolist() == [False, False, True, False, False, True]  # panels for the fast rows only
    assert [ft.value == 0 for ft in got] == [False, True, False, False, True, False]
    assert [_bits(ft) for ft in got] == [_bits(mu_hat_at_points(measure, [point])[0]) for point in points]

    # the panel rows fail at 8 panels: the first in input order is reported, as it is alone
    opts = QuadOpts(max_subdivisions=8)
    with pytest.raises(transform.PointFailure) as batch:
        mu_hat_at_points(measure, points, opts)
    with pytest.raises(quadrature.NonconvergenceError) as alone:
        transform.mu_hat(measure, *points[2], opts)
    assert batch.value.point == points[2]
    assert str(batch.value.__cause__) == str(alone.value)
