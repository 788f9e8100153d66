"""``|value - exact| <= err_estimate`` on curves that have no closed form.

The spiral e^{-t}(cos t, sin t), t >= 0, carries e^{-t} cos t under
``ExpDecay(1)``; the full hyperbola (cosh t, sinh t) carries sin t e^{-t^2}
under ``GaussianDecay(1)``.  Their transforms at seeded points were computed
once with mpmath, as integrals over t at 30 digits, and are kept in
``mpmath_oracles.json``; the hyperbola's take seconds per point.  Regenerate
the file only when ``CASES`` or ``_points`` change:
``PYTHONPATH=src python tests/test_mpmath_oracles.py``.
"""

import json
import random
import sys
from pathlib import Path

import pytest

from huplab.expr import parse
from huplab.geometry import ExpDecay, GaussianDecay, Measure, hyperbola_full, spiral
from huplab.quadrature import QuadOpts
from huplab.transform import mu_hat_at_points

REFS = Path(__file__).with_name("mpmath_oracles.json")

# name: (measure, seed, half-width of the square the points are drawn from)
CASES = {
    "spiral": (Measure(spiral(), (parse("exp(-t)*cos(t)"),), ExpDecay(1.0)), 50, 20.0),
    "hyperbola-full": (Measure(hyperbola_full(), (parse("sin(t)*exp(-(t^2))"),), GaussianDecay(1.0)), 51, 4.0),
}


def _points(name: str) -> list[tuple[float, float]]:
    _, seed, half = CASES[name]
    rng = random.Random(seed)
    return [(rng.uniform(-half, half), rng.uniform(-half, half)) for _ in range(8)]


@pytest.mark.parametrize("tol", [1e-6, 1e-10])
@pytest.mark.parametrize("name", sorted(CASES))
def test_mu_hat_within_error_estimate_of_mpmath(name, tol):
    refs = json.loads(REFS.read_text(encoding="utf-8"))[name]
    points = _points(name)
    assert [tuple(ref[:2]) for ref in refs] == points
    values = mu_hat_at_points(CASES[name][0], points, QuadOpts(abs_tol=tol, rel_tol=tol))
    for (xi, eta, re, im), ft in zip(refs, values):
        assert abs(ft.value - complex(re, im)) <= ft.err_estimate, (xi, eta)


def _mpmath_reference(name: str, xi: float, eta: float) -> complex:
    """The transform at (xi, eta) as an mpmath integral over t, to 30 digits."""
    import mpmath

    mpmath.mp.dps = 30
    xi, eta = mpmath.mpf(xi), mpmath.mpf(eta)
    if name == "spiral":
        # the phase pi e^{-t} (xi cos t + eta sin t) turns fast only for small t,
        # where the pieces are 1/8 wide
        def f(t):
            r = mpmath.exp(-t)
            return mpmath.expj(-mpmath.pi * r * (xi * mpmath.cos(t) + eta * mpmath.sin(t))) * r * mpmath.cos(t)

        nodes = mpmath.linspace(0, 8, 65) + [16, 35, mpmath.inf]
    else:
        # past |t| = 6.2 the tail of e^{-t^2} is below 1e-18; the pieces are as
        # narrow as the local phase rate pi (|xi| sinh|t| + |eta| cosh t) asks
        # for 4 radians each
        def f(t):
            return mpmath.expj(-mpmath.pi * (xi * mpmath.cosh(t) + eta * mpmath.sinh(t))) * mpmath.sin(t) * mpmath.exp(-t * t)

        nodes, t = [mpmath.mpf(0)], mpmath.mpf(0)
        while t < 6.2:
            t = min(t + 4 / (mpmath.pi * (abs(xi) * mpmath.sinh(t + 0.5) + abs(eta) * mpmath.cosh(t + 0.5)) + 4), 6.2)
            nodes.append(t)
        nodes = [-x for x in reversed(nodes[1:])] + nodes
    return complex(mpmath.quad(f, nodes, method="gauss-legendre"))


if __name__ == "__main__":
    refs = {}
    for name in CASES:
        refs[name] = []
        for xi, eta in _points(name):
            value = _mpmath_reference(name, xi, eta)
            refs[name].append([xi, eta, value.real, value.imag])
            print(name, xi, eta, value, file=sys.stderr)
    body = ",\n".join(f"{json.dumps(name)}: [\n" + ",\n".join(map(json.dumps, rows)) + "\n]" for name, rows in refs.items())
    REFS.write_text("{\n" + body + "\n}\n", encoding="utf-8")
    print(f"wrote {REFS}", file=sys.stderr)
