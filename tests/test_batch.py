"""The batched transform against the former per-point path, and its work counts."""

import struct

import pytest

from huplab import expr
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
    measure, half = GRIDS[name]
    axis = [-half + 2.0 * half * i / 6 for i in range(7)]
    points = [(xi, eta) for xi in axis for eta in axis]
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
