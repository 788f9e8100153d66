"""Pinned bits of the library functions built on ``quadrature.integrate``.

``integrate`` (smooth, kinked, hinted, folded, unbounded), ``null_err``,
``circle_coeff``, ``total_variation``, ``convolution_identity`` and
``substitution_identity``, each at a few fixed arguments.  No CLI command
reaches these, so the CLI goldens do not cover them.  ``integrate_golden.json``
holds every returned float as ``float.hex``, with each ``integrate`` result's
window and panel count: a change that moves any of them by one bit fails.

``PYTHONPATH=src python tests/test_integrate_golden.py --record`` re-records
the file after a deliberate change of output.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from huplab.expr import parse
from huplab.geometry import CompactSupport, ExpDecay, GaussianDecay, Measure, circle, exp_curve, hyperbola_branch
from huplab.geometry import hyperbola_full, spiral
from huplab.quadrature import QuadOpts, integrate, null_err
from huplab.transform import circle_coeff, convolution_identity, substitution_identity, total_variation

GOLDEN = Path(__file__).with_name("integrate_golden.json")


def _bits(value) -> list:
    """Every float in ``value`` (a complex, float, int, or a tuple of them) as ``float.hex``."""
    if isinstance(value, tuple):
        return [_bits(v) for v in value]
    if isinstance(value, complex):
        return [value.real.hex(), value.imag.hex()]
    if isinstance(value, int):
        return value
    return float(value).hex()


def _result(res) -> list:
    return _bits((res.value, res.err_estimate, res.window, res.panels))


def _ft(ft) -> list:
    return _bits((ft.value, ft.err_estimate, ft.truncation_window))


HINTED = QuadOpts(oscillation_hint=2000.0)
LOOSE = QuadOpts(abs_tol=1e-9, rel_tol=1e-9)

CASES = {
    "integrate-cos": lambda: _result(integrate(np.cos, (0.0, 1.0))),
    "integrate-cos-hinted": lambda: _result(integrate(np.cos, (0.0, 10.0), HINTED)),
    "integrate-chirp-hinted": lambda: _result(
        integrate(lambda t: np.exp(1j * 50.0 * t * t), (0.0, 4.0), QuadOpts(oscillation_hint=400.0))
    ),
    "integrate-kink": lambda: _result(integrate(lambda t: np.sqrt(np.abs(t - 0.3)) + 0j, (0.0, 1.0))),
    "integrate-sqrt-rel": lambda: _result(
        integrate(lambda t: 1e8 * np.sqrt(t + 0j), (0.0, 1.0), QuadOpts(abs_tol=1e-30, max_subdivisions=4096))
    ),
    "integrate-folded": lambda: _result(integrate(lambda t: np.exp(1j * t) * np.cosh(t), (-2.0, 2.0))),
    "integrate-folded-odd": lambda: _result(
        integrate(lambda t: np.sin(t) * np.exp(40j * t * t), (-3.0, 3.0), QuadOpts(oscillation_hint=240.0))
    ),
    "integrate-gaussian": lambda: _result(
        integrate(lambda t: np.exp(-t * t) + 0j, (-math.inf, math.inf), envelope=GaussianDecay(1.0))
    ),
    "integrate-exp-tail": lambda: _result(
        integrate(lambda t: np.exp(-t) * np.cos(3.0 * t), (0.0, math.inf), HINTED, ExpDecay(1.0))
    ),
    "integrate-support": lambda: _result(
        integrate(lambda t: np.cos(t) + 0j, (-math.inf, math.inf), envelope=CompactSupport(-1.0, 2.0))
    ),
    "null_err-sin": lambda: _bits(null_err(lambda t: np.sin(t) + 0j, 3.0)),
    "null_err-chirp": lambda: _bits(null_err(lambda t: np.sin(t) * np.exp(40j * t * t), 3.0)),
    "circle_coeff-expr": lambda: _ft(circle_coeff(parse("exp(cos(t))"), 3)),
    "circle_coeff-callable": lambda: _ft(circle_coeff(lambda th: np.exp(-1j * math.pi * np.cos(th)), 2)),
    "circle_coeff-hinted": lambda: _ft(circle_coeff(parse("cos(3*t)"), 3, QuadOpts(oscillation_hint=50.0))),
    "total_variation-circle": lambda: _bits(total_variation(Measure(circle(), (parse("cos(t)"),)))),
    "total_variation-spiral": lambda: _bits(
        total_variation(Measure(spiral(), (parse("exp(-t)*cos(t)"),), ExpDecay(1.0)))
    ),
    "convolution-spiral": lambda: _bits(
        convolution_identity(Measure(spiral(), (parse("exp(-t)"),), ExpDecay(1.0)), -1.0)
    ),
    "convolution-hyperbola": lambda: _bits(
        convolution_identity(
            Measure(hyperbola_branch(), (parse("chi(0,1)(t)"),), CompactSupport(0.0, 1.0)), 0.0
        )
    ),
    "substitution-exp-curve": lambda: _bits(
        substitution_identity(
            Measure(exp_curve(), (parse("cos(t)*chi(-2,2)(t)"),), CompactSupport(-2.0, 2.0)), 0.7, LOOSE
        )
    ),
    "substitution-exp-curve-odd": lambda: _bits(
        substitution_identity(Measure(exp_curve(), (parse("sin(t)*exp(-(t^2))"),), GaussianDecay(1.0)), 0.7, LOOSE)
    ),
    "substitution-hyperbola": lambda: _bits(
        substitution_identity(Measure(hyperbola_full(), (parse("exp(-(t^2))"),), GaussianDecay(1.0)), 1.3, LOOSE)
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_library_integrate_bits(name):
    assert CASES[name]() == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    GOLDEN.write_text(json.dumps({name: CASES[name]() for name in sorted(CASES)}, indent=1) + "\n")
