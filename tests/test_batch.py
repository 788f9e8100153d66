"""The batched transform against the former per-point path, and its work counts."""

import struct

import pytest

from huplab import expr, quadrature, transform
from huplab.expr import Num, parse
from huplab.geometry import ExpDecay, GaussianDecay, Measure, circle, hyperbola_full, parabola, sample_set, spiral
from huplab.quadrature import QuadOpts
from huplab.transform import PointFailure, mu_hat_at_points
from huplab.witnesses import RESIDUAL_TOL, _quad_opts, all_annihilators, verify_certificate

from conftest import reference_mu_hat

CASES = ["circle-line", "circle-lines", "circle-bessel", "hyperbola-line", "expcurve-vline", "fourlines"]

# evaluate_array calls per verify_certificate at 512 samples.  The batch makes
# one per node set, and one per component for the roundoff floor of its null
# rows; the per-point path made one per point and component, 513 for each
# certificate here and 2,056 for fourlines.
EVALUATE_ARRAY_CALLS_MAX = {
    "circle-line": 2,
    "circle-lines": 44,
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

# the curves, densities and envelopes of the ft grids in perfbench, on a
# coarser grid that keeps the corners, where the phase is fastest
GRIDS = {
    "hyperbola": (Measure(hyperbola_full(), (parse("sin(t)*exp(-(t^2))"),), GaussianDecay(1.0)), 5.0),
    "parabola": (Measure(parabola(), (parse("exp(-(t^2))"),), GaussianDecay(1.0)), 20.0),
    "spiral": (Measure(spiral(), (parse("exp(-t)*cos(t)"),), ExpDecay(1.0)), 10.0),
}

# total panels and refined rows of each GRIDS measure on its 7x7 grid.  Sizing
# panels by phase rate alone took 20,282, 17,188 and 2,520 panels, refining
# 0, 0 and 8 rows
GRID_PANELS_MAX = {"hyperbola": 10_368, "parabola": 11_806, "spiral": 2_520}
GRID_REFINED_MAX = {"hyperbola": 0, "parabola": 0, "spiral": 8}


def _grid(name):
    measure, half = GRIDS[name]
    axis = [-half + 2.0 * half * i / 6 for i in range(7)]
    return measure, [(xi, eta) for xi in axis for eta in axis]


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
    assert [_bits(got[k]) for k in live] == [_bits(reference_mu_hat(cert.measure, *points[k], opts)) for k in live]
    # rows decided from parity are exactly 0 and share one error bar: the tail
    # and the roundoff floor, measured on other panels than the reference's.
    # At xi = 0 on the exp-curve the reference pays 8,192 panels a point, so
    # it is checked on every 16th of them
    assert all(got[k].value == 0j and got[k].err_estimate == got[null[0]].err_estimate for k in null)
    for k in null[::16]:
        ref = reference_mu_hat(cert.measure, *points[k], opts)
        assert abs(ref.value) <= ref.err_estimate
        assert got[k].err_estimate == pytest.approx(ref.err_estimate, rel=1e-3)
        assert got[k].truncation_window == ref.truncation_window


@pytest.mark.parametrize("name", list(GRIDS) + CASES)
def test_row_bits_do_not_depend_on_the_batch(certificates, name, monkeypatch):
    # a row's value and error are the same bits whichever rows share its pass,
    # its segment groups and its summation by length: rows alone in their
    # pass, and the points in reverse order, against the default batch
    if name in GRIDS:
        (measure, points), opts = _grid(name), QuadOpts()
    else:
        cert, opts = certificates[name], _quad_opts(RESIDUAL_TOL)
        measure, points = cert.measure, sample_set(cert.lam, 512, cert.window) + [cert.witness_point]
    want = [_bits(ft) for ft in mu_hat_at_points(measure, points, opts)]
    assert [_bits(ft) for ft in reversed(mu_hat_at_points(measure, points[::-1], opts))] == want
    monkeypatch.setattr(quadrature, "_PASS_PANELS", 1)
    assert [_bits(ft) for ft in mu_hat_at_points(measure, points, opts)] == want


def _built_entries(monkeypatch) -> dict:
    """Count, per row of the ``integrate_rows`` calls to come, the integrand entries built for it."""
    built = {}
    integrate_rows = transform.integrate_rows

    def spying(at_nodes, *args):
        def spy(t):
            values = at_nodes(t)

            def counted(rows):
                for r in rows.tolist():
                    built[r] = built.get(r, 0) + t.size
                return values(rows)

            return counted

        return integrate_rows(spy, *args)

    monkeypatch.setattr(transform, "integrate_rows", spying)
    return built


@pytest.mark.parametrize("case", ["circle-line", "hyperbola-line", "expcurve-vline"])
def test_lambda_rows_of_odd_densities_evaluate_no_phase(certificates, case, monkeypatch):
    # a null row missed would pay its full pre-split: on the exp-curve at
    # xi = 0 that is seconds per certificate
    built = _built_entries(monkeypatch)
    cert = certificates[case]
    points = sample_set(cert.lam, 512, cert.window)
    opts = _quad_opts(RESIDUAL_TOL)
    got = mu_hat_at_points(cert.measure, points, opts)
    assert not built
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
    panels, refined = [], []
    integrate_rows, refine = transform.integrate_rows, quadrature._refine

    def counting_rows(*args):
        out = integrate_rows(*args)
        panels.append(int(out[2].sum()))
        return out

    def counting_refine(*args):
        refined.append(args[1])
        return refine(*args)

    monkeypatch.setattr(transform, "integrate_rows", counting_rows)
    monkeypatch.setattr(quadrature, "_refine", counting_refine)
    measure, points = _grid(name)
    mu_hat_at_points(measure, points, QuadOpts())
    assert sum(panels) <= GRID_PANELS_MAX[name]
    assert len(refined) <= GRID_REFINED_MAX[name]


def test_null_row_is_decided_without_node_columns(monkeypatch):
    # on the hyperbola, sin(t) e^{-t^2} against the even cosh phase is null at
    # eta = 0 only; both points would need a pre-split of hundreds of panels
    built = _built_entries(monkeypatch)
    measure, half = GRIDS["hyperbola"]
    live, null = mu_hat_at_points(measure, [(half, half), (half, 0.0)], QuadOpts())
    assert list(built) == [0]  # the live point only, as row 0 of the rows integrated
    assert built[0] > quadrature._BLOCKWISE_PANELS * 15 * 2  # Kronrod nodes and their mirror images
    assert null.value == 0j and live.value != 0j
    want = reference_mu_hat(measure, half, 0.0, QuadOpts())
    assert abs(want.value) <= want.err_estimate
    assert null.err_estimate == pytest.approx(want.err_estimate, rel=1e-3)


def test_no_point_past_a_failing_null_row_is_integrated(monkeypatch):
    # the odd density is NaN (inf - inf), so the null point (0.5, 0) fails
    # its roundoff floor; the live point after it cannot be reported
    built = _built_entries(monkeypatch)
    measure = Measure(circle(), (parse("sin(t)*(exp(709)*exp(709)-exp(709)*exp(709))"),))
    with pytest.raises(PointFailure, match=r"= \(0.5, 0\): integrand returned a nonfinite value"):
        mu_hat_at_points(measure, [(0.5, 0.0), (0.5, 0.5)], QuadOpts())
    assert not built
