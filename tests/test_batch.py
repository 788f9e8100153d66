"""The batched transform against the former per-point path, and its work counts."""

import struct

import numpy as np
import pytest

from huplab import expr, quadrature, transform
from huplab.expr import Num, parse
from huplab.geometry import ExpDecay, GaussianDecay, Measure, hyperbola_full, parabola, sample_set, spiral
from huplab.quadrature import QuadOpts
from huplab.transform import mu_hat_at_points
from huplab.witnesses import RESIDUAL_TOL, _quad_opts, all_annihilators, verify_certificate

from conftest import reference_mu_hat

CASES = ["circle-line", "circle-lines", "circle-bessel", "hyperbola-line", "expcurve-vline", "fourlines"]

# evaluate_array calls per verify_certificate at 512 samples.  The batch makes
# one per node set; the per-point path made one per point and component, 513
# for each certificate here and 2,056 for fourlines.
EVALUATE_ARRAY_CALLS_MAX = {
    "circle-line": 26,
    "circle-lines": 44,
    "circle-bessel": 2,
    "hyperbola-line": 52,
    "expcurve-vline": 2,
    "fourlines": 8,
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
    want = [reference_mu_hat(cert.measure, xi, eta, opts) for xi, eta in points]
    assert [_bits(ft) for ft in got] == [_bits(ft) for ft in want]


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


def test_wide_row_that_is_not_null_skips_most_of_the_probe(monkeypatch):
    # on the hyperbola, sin(t) e^{-t^2} folds to a null integrand at eta = 0
    # only; both points need a pre-split far wider than the 64-panel probe
    scored = []  # per node set: its size and the node columns scored per row
    integrate_rows = transform.integrate_rows

    def spying(at_nodes, *args):
        def spy(t):
            values, cols = at_nodes(t), {}
            scored.append((t.size, cols))

            def counted(rows, c):
                for r in rows.tolist():
                    cols.setdefault(r, set()).update(np.arange(t.size)[c].tolist())
                return values(rows, c)

            return counted

        return integrate_rows(spy, *args)

    monkeypatch.setattr(transform, "integrate_rows", spying)
    measure, half = GRIDS["hyperbola"]
    mu_hat_at_points(measure, [(half, half), (half, 0.0)], QuadOpts())
    probe_nodes, cols = scored[0]
    per_panel = 15 * 2  # Kronrod nodes, and their mirror images: the range is folded
    assert probe_nodes == quadrature._PROBE_PANELS * per_panel
    assert len(cols[0]) < probe_nodes  # not null: most probe panels are skipped
    assert len(cols[1]) == probe_nodes  # null: every probe panel is scored
