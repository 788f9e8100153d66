"""Seeded inputs, operations and output checks for the benchmark workloads.

Every operation is one ``huplab`` command line, run in-process through
``huplab.cli.main``.  ``generate(name, seed, workdir)`` builds one cycle of
operations from the seed and writes any input files the cycle needs; that is
the input generation counted in ``setup_s``.  Each operation also carries a
``reference`` factory.  Calling it computes the expected answers from
independent sources (closed forms, mpmath, dense numpy solves, rows recorded
from an earlier commit), outside any timed region, and returns a check that
takes the operation's stdout and returns the number of transform points the
operation evaluated, or raises :class:`CheckError`.

The cycles are balanced rather than independent draws: discrete parameters
come from seeded permutations of their whole range, so two seeds run the same
mix of costs in a different order with different continuous parameters.
That keeps the medians comparable across seeds.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import random
from dataclasses import dataclass, field
from itertools import combinations_with_replacement, permutations
from pathlib import Path
from typing import Callable, Optional

import numpy as np

WORKLOADS = ("certify", "ft-grid", "catalog")

REFS_PATH = Path(__file__).with_name("ft_refs.json")

# certify: the CLI defaults, restated so the check does not trust the output
RESIDUAL_TOL = 1e-6
WITNESS_THRESHOLD = 0.05

# bessel j: the module docstring targets 1e-12 relative to max(1, |J|) for
# x <= 50 and nu <= 40; integer orders at x in [20, 50] miss that by up to
# 9.0e-12 (Miller recurrence), so the check holds the measured accuracy with
# margin instead of the documented target.
BESSEL_J_TOL = 1e-10
BESSEL_ZERO_RTOL = 1e-12
NONZERO_THRESHOLD = 1e-9
SOLVE_RTOL = 1e-10
H_WITNESS_TOL = 1e-10


class CheckError(Exception):
    """An operation's output disagrees with its reference."""


@dataclass
class Op:
    argv: list[str]
    label: str
    reference: Callable[[], Callable[[str], int]]
    check: Optional[Callable[[str], int]] = field(default=None, repr=False)


def _balanced(rng: random.Random, values: list, count: int) -> list:
    """``count`` draws that walk seeded permutations of ``values``."""
    out: list = []
    while len(out) < count:
        perm = list(values)
        rng.shuffle(perm)
        out.extend(perm)
    return out[:count]


def _num(x: float) -> str:
    return repr(float(x))


def _order_text(twice_nu: int) -> str:
    return str(twice_nu // 2) if twice_nu % 2 == 0 else f"{twice_nu}/2"


def _json(out: str) -> dict:
    try:
        return json.loads(out)
    except json.JSONDecodeError as exc:
        raise CheckError(f"stdout is not JSON: {exc}") from None


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# certify: annihilate every certificate case at 512 samples, tol 1e-6

# One round weights the cases so that the median and the 90th percentile
# fall inside a cost cluster (circle-lines and fourlines), not between two.
# Four rounds walk every (k, n) pair of circle-bessel and every j once.
CERTIFY_ROUND = (
    "circle-line",
    "circle-lines",
    "circle-bessel",
    "circle-bessel",
    "circle-bessel",
    "hyperbola-line",
    "expcurve-vline",
    "fourlines",
    "fourlines",
)
CERTIFY_ROUNDS = 4


def _certify_check(out: str) -> int:
    doc = _json(out)
    ver = doc["verification"]
    _expect(ver["ok"] is True, f"verification failed: {ver['message']}")
    _expect(ver["residual"] < RESIDUAL_TOL, f"residual {ver['residual']} >= {RESIDUAL_TOL}")
    _expect(
        ver["witness_magnitude"] > WITNESS_THRESHOLD,
        f"witness magnitude {ver['witness_magnitude']} <= {WITNESS_THRESHOLD}",
    )
    # build samples + verification samples + one witness point each
    return int(doc["certificate"]["samples_used"]) + int(ver["samples_used"]) + 2


def generate_certify(rng: random.Random, workdir: Path) -> list[Op]:
    n = CERTIFY_ROUNDS
    per_round = {case: CERTIFY_ROUND.count(case) for case in CERTIFY_ROUND}
    draws = {
        "circle-lines": iter(_balanced(rng, [2, 3, 4, 5], n * per_round["circle-lines"])),
        "circle-bessel": iter(
            _balanced(rng, [(k, m) for k in range(4) for m in range(1, 4)], n * per_round["circle-bessel"])
        ),
        "fourlines": iter(_balanced(rng, [3, 4, 5], n * per_round["fourlines"])),
    }
    ops = []
    for _ in range(n):
        for case in CERTIFY_ROUND:
            argv = ["annihilate", case]
            if case == "circle-lines":
                argv += ["--j", str(next(draws[case]))]
            elif case == "circle-bessel":
                k, m = next(draws[case])
                argv += ["--k", str(k), "--n", str(m)]
            elif case == "fourlines":
                argv += ["--p", str(next(draws[case])), "--eta0", _num(2.0 * rng.random())]
            ops.append(Op(argv, f"annihilate {case}", lambda: _certify_check))
    return ops


# ---------------------------------------------------------------------------
# ft-grid: 20x20 transform grids on three curves

GRID_N = 20
# the seed shifts each grid's origin by m/4 of a step, m in {-1, 0, 1} per axis
SHIFT_STEPS = (-1, 0, 1)

FT_CONFIGS = {
    "hyperbola": {
        "curve": {"kind": "hyperbola-full"},
        "density": ["sin(t)*exp(-(t^2))"],
        "decay": {"kind": "gaussian", "rate": 1.0},
        "half_width": 5.0,
    },
    "parabola": {
        "curve": {"kind": "parabola"},
        "density": ["exp(-(t^2))"],
        "decay": {"kind": "gaussian", "rate": 1.0},
        "half_width": 20.0,
    },
    "spiral": {
        "curve": {"kind": "spiral"},
        "density": ["exp(-t)*cos(t)"],
        "decay": {"kind": "exp", "rate": 1.0},
        "half_width": 10.0,
    },
}


def _axis(half_width: float, m: int) -> list[float]:
    step = 2.0 * half_width / (GRID_N - 1)
    shift = m * step / 4.0
    return [-half_width + shift, half_width + shift, GRID_N]


def ft_config(name: str, mx: int, my: int) -> dict:
    spec = FT_CONFIGS[name]
    cfg = {k: v for k, v in spec.items() if k != "half_width"}
    cfg["grid"] = {"xi": _axis(spec["half_width"], mx), "eta": _axis(spec["half_width"], my)}
    return cfg


def grid_points(cfg: dict) -> list[tuple[float, float]]:
    """The grid the CLI evaluates, in its row order (xi outer, eta inner)."""
    axes = []
    for key in ("xi", "eta"):
        lo, hi, n = cfg["grid"][key]
        axes.append([lo + (hi - lo) * i / (n - 1) for i in range(n)])
    return [(x, y) for x in axes[0] for y in axes[1]]


def parse_ft_csv(out: str) -> list[tuple[float, float, complex, float]]:
    lines = out.splitlines()
    _expect(bool(lines) and lines[0] == "xi,eta,re,im,abs,err", "missing CSV header")
    rows = []
    for line in lines[1:]:
        xi, eta, re, im, _abs, err = map(float, line.split(","))
        rows.append((xi, eta, complex(re, im), err))
    return rows


def _parabola_true(xi: float, eta: float) -> complex:
    # integral of e^{-i pi (t xi + t^2 eta)} e^{-t^2} dt, a = 1 + i pi eta
    a = 1.0 + 1j * math.pi * eta
    return cmath.sqrt(math.pi / a) * cmath.exp(-((math.pi * xi) ** 2) / (4.0 * a))


def _ft_reference(name: str, mx: int, my: int) -> Callable[[str], int]:
    points = grid_points(ft_config(name, mx, my))
    if name == "parabola":
        expected = [(_parabola_true(x, y), 0.0) for x, y in points]
    else:
        rows = json.loads(REFS_PATH.read_text())[name][f"{mx},{my}"]
        expected = [(complex(re, im), err) for re, im, err in rows]
    _expect(len(expected) == len(points), f"reference for {name} {mx},{my} has {len(expected)} rows")

    def check(out: str) -> int:
        rows = parse_ft_csv(out)
        _expect(len(rows) == len(points), f"{len(rows)} rows, expected {len(points)}")
        for (xi, eta, value, err), (px, py), (ref, ref_err) in zip(rows, points, expected):
            _expect(abs(xi - px) <= 1e-12 and abs(eta - py) <= 1e-12, f"row at ({xi}, {eta}), expected ({px}, {py})")
            tol = max(ref_err, err)
            _expect(
                abs(value - ref) <= tol,
                f"{name} at ({xi}, {eta}): |value - reference| = {abs(value - ref):.3g} > {tol:.3g}",
            )
        return len(rows)

    return check


def generate_ft_grid(rng: random.Random, workdir: Path) -> list[Op]:
    ops = []
    for name in FT_CONFIGS:
        mx, my = rng.choice(SHIFT_STEPS), rng.choice(SHIFT_STEPS)
        cfg = ft_config(name, mx, my)
        path = workdir / f"ft-{name}.json"
        path.write_text(json.dumps(cfg))
        ops.append(Op(["ft", "--config", str(path)], f"ft {name}", lambda n=name, a=mx, b=my: _ft_reference(n, a, b)))
    return ops


# ---------------------------------------------------------------------------
# catalog: verdicts, Bessel utilities and four-lines algebra

CATALOG_BLOCKS = 20
CATALOG_BLOCK = (
    "circle-circle",
    "sphere-sphere",
    "lattice-cross",
    "circle-lines",
    "bessel-j",
    "bessel-zero",
    "bessel-nonzero",
    "classify",
    "algebra",
    "algebra",
)
ALGEBRA_VERBS = ("tau", "e", "delta", "rho")
FIBERS_PER_FILE = 4


def _mp():
    import mpmath

    mpmath.mp.dps = 30
    return mpmath


def _all_nonzero(x: float, twice_orders: list[int]) -> bool:
    mp = _mp()
    return all(abs(mp.besselj(mp.mpf(tw) / 2, x)) > NONZERO_THRESHOLD for tw in twice_orders)


def _integer_orders(x: float) -> list[int]:
    return [2 * k for k in range(math.ceil(x) + 1)]


def _half_orders(x: float, dim: int) -> list[int]:
    return list(range(dim - 2, 2 * math.ceil(x) + 1, 2))


def _separated(rng: random.Random, count: int, gap: float) -> list[float]:
    """``count`` heights in [0, 2), pairwise at least ``gap`` apart mod 2."""
    while True:
        etas = sorted(2.0 * rng.random() for _ in range(count))
        gaps = [b - a for a, b in zip(etas, etas[1:])] + [2.0 - (etas[-1] - etas[0])]
        if min(gaps) >= gap:
            return etas


def _homog(k: int, vals: tuple) -> complex:
    total = 0j
    for combo in combinations_with_replacement(vals, k):
        total += complex(np.prod(combo))
    return total


def _classify_ref(sigma: list[float], p: int) -> str:
    """P4 when an ordered 4-tuple separates H_{p-2}, else P3 (fibers here have >= 3 heights)."""
    pts = [cmath.exp(1j * math.pi * s) for s in sigma]
    for i0, i1, i2, i3 in permutations(range(len(sigma)), 4):
        h2 = _homog(p - 2, (pts[i0], pts[i1], pts[i2]))
        h3 = _homog(p - 2, (pts[i0], pts[i1], pts[i3]))
        if abs(h2 - h3) > H_WITNESS_TOL:
            return "P4"
    return "P3"


def _dense_solve(points: list[complex], degree: int) -> np.ndarray:
    """Coefficients c with x^degree + sum_j c_j x^j = 0 at each point."""
    m = np.array([[x**j for j in range(len(points))] for x in points], dtype=np.complex128)
    return np.linalg.solve(m, -np.array([x**degree for x in points], dtype=np.complex128))


def _close(got: list[complex], ref: list[complex], rtol: float, what: str) -> None:
    scale = max(1.0, max(abs(r) for r in ref))
    err = max(abs(g - r) for g, r in zip(got, ref))
    _expect(err <= rtol * scale, f"{what}: error {err:.3g} > {rtol * scale:.3g}")


def _cx(pair: list[float]) -> complex:
    return complex(pair[0], pair[1])


def _catalog_op(kind: str, rng: random.Random, workdir: Path, index: int, verb: str) -> Op:
    if kind == "circle-circle":
        radius = rng.uniform(0.5, 12.0)

        def ref():
            arg = math.pi * radius
            answer = "HUP" if _all_nonzero(arg, _integer_orders(arg)) else "NotHUP"
            return _verdict_check(answer)

        return Op(["verdict", "circle-circle", "--radius", _num(radius)], "verdict circle-circle", ref)
    if kind == "sphere-sphere":
        dim, radius = rng.choice((2, 3, 4, 5)), rng.uniform(0.5, 12.0)

        def ref():
            arg = math.pi * radius
            answer = "HUP" if _all_nonzero(arg, _half_orders(arg, dim)) else "NotHUP"
            return _verdict_check(answer)

        argv = ["verdict", "sphere-sphere", "--dim", str(dim), "--radius", _num(radius)]
        return Op(argv, "verdict sphere-sphere", ref)
    if kind == "lattice-cross":
        alpha, beta = rng.uniform(0.2, 2.5), rng.uniform(0.2, 2.5)
        answer = "HUP" if alpha * beta <= 1.0 else "NotHUP"
        argv = ["verdict", "lattice-cross", "--alpha", _num(alpha), "--beta", _num(beta)]
        return Op(argv, "verdict lattice-cross", lambda: _verdict_check(answer))
    if kind == "circle-lines":
        q = rng.randint(2, 12)
        angle = f"{rng.randint(1, q - 1)}/{q}"
        return Op(["verdict", "circle-lines", "--angle", angle], "verdict circle-lines", lambda: _verdict_check("NotHUP"))
    if kind == "bessel-j":
        twice, x = rng.randint(0, 80), rng.uniform(0.05, 50.0)

        def ref():
            mp = _mp()
            expected = float(mp.besselj(mp.mpf(twice) / 2, x))

            def check(out: str) -> int:
                got = _json(out)["value"]
                err = abs(got - expected)
                _expect(err <= BESSEL_J_TOL * max(1.0, abs(expected)), f"J error {err:.3g}")
                return 0

            return check

        return Op(["bessel", "j", "--order", _order_text(twice), "--x", _num(x)], "bessel j", ref)
    if kind == "bessel-zero":
        twice, n = rng.randint(0, 20), rng.randint(1, 10)

        def ref():
            mp = _mp()
            expected = float(mp.besseljzero(mp.mpf(twice) / 2, n))

            def check(out: str) -> int:
                got = _json(out)["zero"]
                _expect(abs(got - expected) <= BESSEL_ZERO_RTOL * expected, f"zero {got} vs {expected}")
                return 0

            return check

        return Op(["bessel", "zero", "--order", _order_text(twice), "--n", str(n)], "bessel zero", ref)
    if kind == "bessel-nonzero":
        x = rng.uniform(0.5, 30.0)
        dim = rng.choice((0, 2, 3, 4, 5))  # 0: integer orders
        argv = ["bessel", "nonzero", "--x", _num(x)]
        if dim:
            argv += ["--parity", "half", "--dim", str(dim)]

        def ref():
            expected = _all_nonzero(x, _half_orders(x, dim) if dim else _integer_orders(x))

            def check(out: str) -> int:
                _expect(_json(out)["nonzero_for_all_orders"] is expected, f"expected {expected}")
                return 0

            return check

        return Op(argv, "bessel nonzero", ref)
    if kind == "classify":
        p = rng.randint(3, 8)
        fibers = [
            {"xi": float(j), "sigma": _separated(rng, rng.randint(3, 8), 0.02)} for j in range(FIBERS_PER_FILE)
        ]
        path = workdir / f"fibers-{index}.json"
        path.write_text(json.dumps({"fibers": fibers}))

        def ref():
            tags = [_classify_ref(f["sigma"], p) for f in fibers]

            def check(out: str) -> int:
                got = [r["class"] for r in _json(out)["results"]]
                _expect(got == tags, f"classes {got}, expected {tags}")
                return 0

            return check

        return Op(["fourlines", "classify", "--p", str(p), "--fibers", str(path)], "fourlines classify", ref)
    # algebra verbs: closed forms against a dense solve
    count = 2 if verb == "delta" else 3
    etas = _separated(rng, count, 0.1)
    rng.shuffle(etas)
    p = rng.randint(3, 8)
    argv = ["fourlines", verb, "--etas", ",".join(_num(e) for e in etas)]
    if verb == "tau":
        argv += ["--p", str(p)]

    def ref():
        pts = [cmath.exp(1j * math.pi * e) for e in etas]
        if verb == "rho":
            det = np.linalg.det(np.array([[1, x, x**3] for x in pts], dtype=np.complex128))
            expected, keys = [complex(det * det)], ["rho"]
        elif verb == "delta":
            expected, keys = list(_dense_solve(pts, 2)), ["delta0", "delta1"]
        elif verb == "e":
            expected, keys = list(_dense_solve(pts, 3)), ["e0", "e1", "e2"]
        else:
            expected, keys = list(_dense_solve(pts, p)), ["tau0", "tau1", "tau2"]

        def check(out: str) -> int:
            doc = _json(out)
            _close([_cx(doc[k]) for k in keys], expected, SOLVE_RTOL, f"fourlines {verb}")
            return 0

        return check

    return Op(argv, f"fourlines {verb}", ref)


def _verdict_check(answer: str) -> Callable[[str], int]:
    def check(out: str) -> int:
        got = _json(out)["answer"]
        _expect(got == answer, f"answer {got}, expected {answer}")
        return 0

    return check


def generate_catalog(rng: random.Random, workdir: Path) -> list[Op]:
    verbs = iter(_balanced(rng, list(ALGEBRA_VERBS), 2 * CATALOG_BLOCKS))
    ops = []
    for _ in range(CATALOG_BLOCKS):
        for kind in CATALOG_BLOCK:
            verb = next(verbs) if kind == "algebra" else ""
            ops.append(_catalog_op(kind, rng, workdir, len(ops), verb))
    return ops


GENERATORS = {"certify": generate_certify, "ft-grid": generate_ft_grid, "catalog": generate_catalog}


def generate(name: str, seed: int, workdir: Path) -> list[Op]:
    """One cycle of operations for the workload, with its input files in ``workdir``."""
    os.makedirs(workdir, exist_ok=True)
    return GENERATORS[name](random.Random(f"{name}:{seed}"), workdir)
