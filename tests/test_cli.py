import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_expr import _any_tree

from huplab import bessel, cli, fourlines, witnesses
from huplab.expr import BinOp, Num, Var
from huplab.fourlines import Fiber
from huplab.geometry import (
    CURVE_KINDS,
    POINTS_MAX,
    CircleSet,
    CompactSupport,
    CurveSet,
    ExpDecay,
    FiberList,
    GaussianDecay,
    LatticeCross,
    Line,
    Lines,
    ParamCurve,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args, stdin_text=None, timeout=300):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONWARNINGS"] = "error"  # a numpy warning fails the test instead of reaching stderr unseen
    return subprocess.run(
        [sys.executable, "-m", "huplab", *args],
        capture_output=True,
        text=True,
        input=stdin_text,
        env=env,
        timeout=timeout,
    )


CIRCLE_GRID_CONFIG = {
    "curve": {"kind": "circle"},
    "density": ["1/(2*pi)"],
    "grid": {"xi": [0.0, 1.0, 3], "eta": [0.0, 0.0, 1]},
    "quad": {"abs_tol": 1e-10, "rel_tol": 1e-10},
    "output": "csv",
}


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestFt:
    def test_uniform_circle_grid(self, tmp_path):
        res = run_cli("ft", "--config", write_config(tmp_path, CIRCLE_GRID_CONFIG))
        assert res.returncode == 0, res.stderr
        lines = res.stdout.strip().splitlines()
        assert lines[0] == "xi,eta,re,im,abs,err"
        abs_col = [float(line.split(",")[4]) for line in lines[1:]]
        assert abs_col[0] == pytest.approx(1.0, abs=1e-9)
        assert abs_col[1] == pytest.approx(0.47200121576823477, abs=1e-9)  # |J0(pi/2)|
        assert abs_col[2] == pytest.approx(0.30424217764409386, abs=1e-9)  # |J0(pi)|

    def test_empty_grid_exits_2(self, tmp_path):
        cfg = dict(CIRCLE_GRID_CONFIG, grid={"xi": [0.0, 1.0, 0], "eta": [0.0, 0.0, 1]})
        res = run_cli("ft", "--config", write_config(tmp_path, cfg))
        assert res.returncode == 2
        assert "empty" in res.stderr

    def test_zero_density_rows_vanish(self, tmp_path):
        cfg = dict(CIRCLE_GRID_CONFIG, density=["0"])
        res = run_cli("ft", "--config", write_config(tmp_path, cfg))
        assert res.returncode == 0
        for line in res.stdout.strip().splitlines()[1:]:
            assert float(line.split(",")[4]) < 1e-12

    def test_unknown_key_rejected(self, tmp_path):
        cfg = dict(CIRCLE_GRID_CONFIG, extra_field=1)
        res = run_cli("ft", "--config", write_config(tmp_path, cfg))
        assert res.returncode == 2
        assert "unknown key" in res.stderr

    def test_bad_json_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        res = run_cli("ft", "--config", str(path))
        assert res.returncode == 2

    def test_grid_and_lambda_exclusive(self, tmp_path):
        cfg = dict(CIRCLE_GRID_CONFIG)
        cfg["lambda"] = {"kind": "circle", "radius": 1.0}
        res = run_cli("ft", "--config", write_config(tmp_path, cfg))
        assert res.returncode == 2

    def test_missing_decay_on_unbounded_curve_exits_2(self, tmp_path):
        cfg = {
            "curve": {"kind": "exp-curve"},
            "density": ["exp(-(t^2))"],
            "grid": {"xi": [0.0, 1.0, 2], "eta": [0.0, 0.0, 1]},
        }
        res = run_cli("ft", "--config", write_config(tmp_path, cfg))
        assert res.returncode == 2
        assert "decay" in res.stderr

    def test_a_lattice_axis_outside_the_window_costs_nothing(self, tmp_path):
        # beta = 1e-7 took 9.9 s to walk the y-axis's 2e8 indices, none of them
        # in the window, and 1e-300 never ended
        cfg = {
            **LAMBDA_CONFIG,
            "lambda": {"kind": "lattice-cross", "alpha": 1.0, "beta": 1e-300},
            "window": [1.0, 2.0, -10.0, 10.0],
            "output": "json",
        }
        res = run_cli("ft", "--config", write_config(tmp_path, cfg), timeout=60)
        assert (res.returncode, res.stderr) == (0, "")
        assert [(row["xi"], row["eta"]) for row in json.loads(res.stdout)["rows"]] == [(1.0, 0.0), (2.0, 0.0)]

    @pytest.mark.parametrize("domain", [[-math.inf, math.inf], [-1e308, 1e308]])
    def test_a_curve_lambda_needs_a_finite_parameter_range(self, tmp_path, domain):
        # exited 2 with "CurveSet does not meet window", after numpy
        # RuntimeWarnings from linspace on stderr
        curve = {"kind": "expr", "x": "t", "y": "t^2", "domain": domain}
        cfg = {**LAMBDA_CONFIG, "lambda": {"kind": "curve", "curve": curve}}
        res = run_cli("ft", "--config", write_config(tmp_path, cfg))
        assert (res.returncode, res.stdout) == (2, "")
        assert res.stderr == (
            f"config error: expr curve component 0 has the parameter range [{domain[0]}, {domain[1]}] "
            "in window (-2.0, 2.0, -2.0, 2.0), whose length is not finite\n"
        )

    @pytest.mark.parametrize("kind", ["exp-curve", "parabola"])
    def test_a_curve_lambda_samples_within_the_window_height(self, tmp_path, kind):
        # the heights overflowed over the window's x range: a RuntimeWarning,
        # then exit 2 with "CurveSet does not meet window".  The zero density
        # is not integrated, so the frequencies up to 1e300 cost nothing
        cfg = {
            **LAMBDA_CONFIG,
            "density": ["0"],
            "lambda": {"kind": "curve", "curve": {"kind": kind}},
            "window": [-1e200, 1e200, -1.0, 1e300],
            "samples": 8,
            "output": "json",
        }
        res = run_cli("ft", "--config", write_config(tmp_path, cfg))
        assert (res.returncode, res.stderr) == (0, "")
        rows = json.loads(res.stdout)["rows"]
        assert len(rows) == 8 and all(math.isfinite(row["eta"]) and row["eta"] <= 1e300 for row in rows)

    def test_lambda_sample_mode(self, tmp_path):
        cfg = {
            "curve": {"kind": "circle"},
            "density": ["1/(2*pi)"],
            "lambda": {"kind": "lattice-cross", "alpha": 1.0, "beta": 1.0},
            "window": [-2.0, 2.0, -2.0, 2.0],
            "samples": 16,
        }
        res = run_cli("ft", "--config", write_config(tmp_path, cfg))
        assert res.returncode == 0
        assert len(res.stdout.strip().splitlines()) == 1 + 9  # header + lattice points

    def test_json_output_schema(self, tmp_path):
        res = run_cli("ft", "--config", write_config(tmp_path, CIRCLE_GRID_CONFIG), "--output", "json")
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["schema_version"] == 1
        assert len(doc["rows"]) == 3

    def test_stdin_config(self):
        res = run_cli("ft", "--config", "-", stdin_text=json.dumps(CIRCLE_GRID_CONFIG))
        assert res.returncode == 0

    def test_gaussian_decay_curve(self, tmp_path):
        cfg = {
            "curve": {"kind": "exp-curve"},
            "density": ["sin(t)*exp(-(t^2))"],
            "decay": {"kind": "gaussian"},
            "grid": {"xi": [0.0, 0.0, 1], "eta": [-2.0, 2.0, 5]},
        }
        res = run_cli("ft", "--config", write_config(tmp_path, cfg))
        assert res.returncode == 0
        for line in res.stdout.strip().splitlines()[1:]:
            assert float(line.split(",")[4]) < 1e-10

    @pytest.mark.parametrize(
        "cfg, point",
        [
            # megahertz density oscillation exhausts the panel budget
            (
                {
                    "curve": {"kind": "circle"},
                    "density": ["sin(1000000*t)"],
                    "grid": {"xi": [0.5, 0.5, 1], "eta": [0.7, 0.7, 1]},
                },
                (0.5, 0.7),
            ),
            # of the two points only the second fails: the e^{t^2} phase outruns the budget at eta = 1
            (
                {
                    "curve": {"kind": "exp-curve"},
                    "density": ["exp(-(t^2))"],
                    "decay": {"kind": "gaussian"},
                    "grid": {"xi": [0.0, 0.0, 1], "eta": [0.0, 1.0, 2]},
                },
                (0.0, 1.0),
            ),
        ],
        ids=["circle", "exp-curve-two-points"],
    )
    def test_quadrature_failure_exits_3_with_point(self, tmp_path, cfg, point):
        res = run_cli("ft", "--config", write_config(tmp_path, cfg))
        assert res.returncode == 3
        assert f"numeric failure: at point (xi, eta) = ({point[0]:.17g}, {point[1]:.17g}):" in res.stderr

    def test_expression_domain_error_exits_3(self, tmp_path):
        cfg = dict(CIRCLE_GRID_CONFIG, density=["log(t)"])
        res = run_cli("ft", "--config", write_config(tmp_path, cfg))
        assert res.returncode == 3
        assert "numeric failure" in res.stderr and "log of nonpositive real" in res.stderr

    def test_odd_density_with_a_domain_error_exits_3_at_eta_0(self, capsys, tmp_path):
        # sin(t) log(cos(t)) is odd, so every grid point, at eta = 0, is null by
        # parity and evaluates no phase; the density is still evaluated
        cfg = dict(CIRCLE_GRID_CONFIG, density=["sin(t)*log(cos(t))"])
        code, out, err = run_main(capsys, "ft", "--config", write_config(tmp_path, cfg))
        assert (code, out) == (3, "")
        assert err.startswith("numeric failure: ") and "log of nonpositive real" in err

    @pytest.mark.parametrize("eta", [0.0, 0.5], ids=["null-by-parity", "integrated"])
    def test_overflowing_odd_density_exits_3_without_warnings(self, capsys, tmp_path, eta):
        # the density overflows to +-inf: at eta = 0 the null row evaluates it for
        # its roundoff floor, at eta = 0.5 the row integrates it; either way the
        # expression reports the overflow, and under the suite's
        # warnings-as-errors filter any numpy warning would end the run instead
        grid = {"xi": [0.5, 0.5, 1], "eta": [eta, eta, 1]}
        cfg = dict(CIRCLE_GRID_CONFIG, density=["sin(t)*exp(709)*exp(709)"], grid=grid)
        code, out, err = run_main(capsys, "ft", "--config", write_config(tmp_path, cfg))
        assert (code, out) == (3, "")
        assert err.startswith("numeric failure: ") and "nonfinite value in 'sin(t)*exp(709.0)*exp(709.0)'" in err

    def test_density_above_declared_envelope_exits_2(self, tmp_path):
        # exp(-t^2/100) is not bounded by exp(-t^2): accepted, the transform at the origin
        # would come out near 9.03 instead of sqrt(100 pi) = 17.72
        cfg = {
            "curve": {"kind": "parabola"},
            "density": ["exp(-(t^2)/100)"],
            "decay": {"kind": "gaussian", "rate": 1.0},
            "grid": {"xi": [0.0, 0.0, 1], "eta": [0.0, 0.0, 1]},
        }
        res = run_cli("ft", "--config", write_config(tmp_path, cfg))
        assert res.returncode == 2
        assert "exceeds its declared envelope near t=" in res.stderr
        assert res.stdout == ""

    @pytest.mark.parametrize("quad", [{}, {"abs_tol": 1e-6, "rel_tol": 1e-6}])
    def test_density_above_its_envelope_past_the_first_grid_exits_2(self, capsys, tmp_path, quad):
        # the bump on (17, 30) lies past the 16 e-folds of the first grid: accepted, mu_hat(0, 0)
        # came out 1.0083284 with err 1e-10 under the default quad, and 0.9999999 with err 1e-7
        # under 1e-6, instead of the mass 1.013
        cfg = {
            "curve": {"kind": "spiral"},
            "density": ["exp(-t)+0.001*chi(17,30)(t)"],
            "decay": {"kind": "exp", "rate": 1.0},
            "quad": quad,
            "grid": {"xi": [0.0, 0.0, 1], "eta": [0.0, 0.0, 1]},
        }
        code, out, err = run_main(capsys, "ft", "--config", write_config(tmp_path, cfg))
        assert (code, out) == (2, "")
        assert err.startswith("config error: component 0 density exceeds its declared envelope near t=17.")

    def test_key_foreign_to_kind_rejected(self, tmp_path):
        cfg = {
            "curve": {"kind": "circle"},
            "density": ["1"],
            "lambda": {"kind": "circle", "radius": 1, "alpha": 2},
            "window": [-2.0, 2.0, -2.0, 2.0],
        }
        res = run_cli("ft", "--config", write_config(tmp_path, cfg))
        assert res.returncode == 2
        assert "unknown key(s) ['alpha'] in lambda" in res.stderr


class TestAnnihilate:
    @pytest.mark.parametrize(
        "args",
        [
            ("annihilate", "hyperbola-line", "--samples", "64"),
            ("annihilate", "fourlines", "--p", "3", "--eta0", "0", "--samples", "64"),
            ("annihilate", "circle-bessel", "--k", "0", "--n", "1", "--samples", "64"),
            ("annihilate", "expcurve-vline", "--samples", "64"),
        ],
    )
    def test_cases_pass(self, args):
        res = run_cli(*args)
        assert res.returncode == 0, res.stderr
        doc = json.loads(res.stdout)
        assert doc["schema_version"] == 1
        assert doc["verification"]["ok"] is True
        assert doc["verification"]["witness_magnitude"] > 0.05

    def test_certificate_payload_roundtrips_density(self):
        res = run_cli("annihilate", "hyperbola-line", "--samples", "32")
        doc = json.loads(res.stdout)
        assert doc["certificate"]["measure"]["densities"] == ["sqrt(cosh(2.0*t))*sin(t)*chi(-pi,pi)(t)"]
        assert doc["certificate"]["measure"]["decay"]["kind"] == "compact"


class TestFourlines:
    def test_classify_p4_example(self, tmp_path):
        fibers = tmp_path / "fibers.json"
        fibers.write_text(json.dumps({"fibers": [{"xi": 0.0, "sigma": [0.0, 0.5, 1.0, 1.5]}]}))
        res = run_cli("fourlines", "classify", "--p", "4", "--fibers", str(fibers))
        assert res.returncode == 0, res.stderr
        doc = json.loads(res.stdout)
        assert doc["results"][0]["class"] == "P3"

    def test_classify_points_via_stdin(self):
        payload = json.dumps({"points": [[0.0, 3.5], [0.0, 0.5], [1.0, -0.5]]})
        res = run_cli("fourlines", "classify", "--p", "3", "--fibers", "-", stdin_text=payload)
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert {r["xi"]: r["class"] for r in doc["results"]} == {0.0: "P2", 1.0: "P1"}

    def test_tau_hand_example(self):
        # heights (0, 1, 0.5) map to points (1, -1, i)
        res = run_cli("fourlines", "tau", "--p", "3", "--etas", "0,1,0.5")
        doc = json.loads(res.stdout)
        assert doc["tau0"] == pytest.approx([0.0, 1.0], abs=1e-12)
        assert doc["tau1"] == pytest.approx([-1.0, 0.0], abs=1e-12)
        assert doc["tau2"] == pytest.approx([0.0, -1.0], abs=1e-12)

    def test_delta(self):
        res = run_cli("fourlines", "delta", "--etas", "0,1")
        doc = json.loads(res.stdout)
        assert doc["delta0"] == pytest.approx([-1.0, 0.0], abs=1e-12)
        assert doc["delta1"] == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_rho_repeated_point_is_zero(self):
        res = run_cli("fourlines", "rho", "--etas", "0.3,0.3,1.1")
        doc = json.loads(res.stdout)
        assert doc["rho"] == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_classify_requires_fibers(self):
        res = run_cli("fourlines", "classify", "--p", "3")
        assert res.returncode == 2


class TestExitCodes:
    def test_failed_verification_exits_4(self):
        # impossible tolerance forces a residual failure
        res = run_cli("annihilate", "circle-bessel", "--k", "0", "--n", "1", "--samples", "16", "--tol", "1e-30")
        assert res.returncode == 4
        assert json.loads(res.stdout)["verification"]["ok"] is False

    def test_bad_order_exits_2(self):
        res = run_cli("bessel", "j", "--order", "1/3", "--x", "1.0")
        assert res.returncode == 2

    def test_bad_zero_index_exits_2(self):
        res = run_cli("bessel", "zero", "--order", "0", "--n", "0")
        assert res.returncode == 2

    def test_bad_p_exits_2(self):
        res = run_cli("fourlines", "tau", "--p", "2", "--etas", "0,0.5,1")
        assert res.returncode == 2

    def test_bad_eta0_exits_2(self):
        res = run_cli("annihilate", "fourlines", "--p", "3", "--eta0", "2.5")
        assert res.returncode == 2

    def test_unknown_subcommand_exits_2(self):
        res = run_cli("transmogrify")
        assert res.returncode == 2


def test_output_json_flag_accepted_everywhere():
    commands = [
        ("annihilate", "circle-line", "--samples", "16", "--output", "json"),
        ("fourlines", "rho", "--etas", "0,0.5,1", "--output", "json"),
        ("bessel", "j", "--order", "0", "--x", "1.0", "--output", "json"),
        ("verdict", "circle-spiral", "--output", "json"),
    ]
    for cmd in commands:
        res = run_cli(*cmd)
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["schema_version"] == 1


class TestBessel:
    def test_zero(self):
        res = run_cli("bessel", "zero", "--order", "0", "--n", "1")
        doc = json.loads(res.stdout)
        assert doc["zero"] == pytest.approx(2.404825557695773, abs=1e-12)

    def test_value_half_order(self):
        res = run_cli("bessel", "j", "--order", "1/2", "--x", str(math.pi))
        doc = json.loads(res.stdout)
        assert abs(doc["value"]) < 1e-12

    def test_nonzero(self):
        res = run_cli("bessel", "nonzero", "--x", "1.0", "--parity", "integers")
        assert json.loads(res.stdout)["nonzero_for_all_orders"] is True

    @pytest.mark.parametrize("order, n", [("0", 164), ("3", 165)])
    def test_zeros_above_512_return(self, order, n):
        # the bisection never ended above 512, where adjacent floats lie more
        # than its 1e-13 tolerance apart; a regression times out here
        mpmath = pytest.importorskip("mpmath")
        res = run_cli("bessel", "zero", "--order", order, "--n", str(n), timeout=60)
        assert res.returncode == 0, res.stderr
        zero = json.loads(res.stdout)["zero"]
        assert zero > 512.0 and zero == pytest.approx(float(mpmath.besseljzero(int(order), n)), rel=1e-14)


class TestVerdict:
    def test_lattice_cross(self):
        res = run_cli("verdict", "lattice-cross", "--alpha", "1", "--beta", "2")
        doc = json.loads(res.stdout)
        assert doc["answer"] == "NotHUP"

    def test_circle_lines_rational(self):
        res = run_cli("verdict", "circle-lines", "--angle", "1/4")
        doc = json.loads(res.stdout)
        assert doc["answer"] == "NotHUP"

    def test_circle_lines_float_unknown(self):
        res = run_cli("verdict", "circle-lines", "--angle", "0.25")
        doc = json.loads(res.stdout)
        assert doc["answer"] == "Unknown"

    def test_missing_parameter(self):
        res = run_cli("verdict", "lattice-cross")
        assert res.returncode == 2


def test_identical_runs_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, CIRCLE_GRID_CONFIG)
    first = run_cli("ft", "--config", cfg)
    second = run_cli("ft", "--config", cfg)
    assert first.stdout == second.stdout
    a = run_cli("fourlines", "tau", "--p", "5", "--etas", "0.1,0.7,1.9")
    b = run_cli("fourlines", "tau", "--p", "5", "--etas", "0.1,0.7,1.9")
    assert a.stdout == b.stdout


# ---------------------------------------------------------------------------
# JSON schema: _load and _dump are inverse on every kind of every table

_finite = st.floats(allow_nan=False, allow_infinity=False)
_positive = st.floats(min_value=1e-6, max_value=1e6)
_pair = st.tuples(_finite, _finite)
_CURVE_FIELD_VALUES = {
    "heights": st.lists(_finite, min_size=1, max_size=4).map(tuple),
    "x_expr": _any_tree,
    "y_expr": _any_tree,
    "expr_domain": _pair,
}


def _curve(kind):
    fields = {name: _CURVE_FIELD_VALUES[name] for name in CURVE_KINDS[kind].fields}
    return st.builds(ParamCurve, st.just(kind), **fields)


_any_curve = st.sampled_from(sorted(CURVE_KINDS)).flatmap(_curve)
_line = st.builds(Line, _pair, _pair.filter(lambda d: d != (0.0, 0.0)))
# heights on a 1/8 grid in [0, 2) are distinct and separated modulo 2
_sigma = st.sets(st.integers(0, 15), min_size=1).map(lambda ks: tuple(sorted(k / 8 for k in ks)))
_DECAYS = {
    "compact": st.tuples(_finite, _finite).filter(lambda p: p[0] < p[1]).map(lambda p: CompactSupport(*p)),
    "exp": st.builds(ExpDecay, _positive, _positive),
    "gaussian": st.builds(GaussianDecay, _positive, _positive),
}
_LAMBDAS = {
    "line": _line,
    "lines": st.lists(_line, min_size=1, max_size=3).map(lambda ls: Lines(tuple(ls))),
    "circle": st.builds(CircleSet, _positive),
    "lattice-cross": st.builds(LatticeCross, _positive, _positive),
    "curve": st.builds(CurveSet, _any_curve),
    "fibers": st.builds(
        FiberList, st.lists(st.builds(Fiber, _finite, _sigma), min_size=1, max_size=3).map(tuple), st.booleans()
    ),
}


def _assert_round_trip(table, where, obj):
    dumped = json.loads(json.dumps(cli._dump(table, obj)))
    loaded = cli._load(table, dumped, where)
    assert loaded == obj
    assert cli._dump(table, loaded) == dumped


def test_strategies_cover_every_kind():
    assert set(_DECAYS) == set(cli._DECAYS)
    assert set(_LAMBDAS) == set(cli._LAMBDAS)
    assert set(cli._CURVES) == set(CURVE_KINDS)


@pytest.mark.parametrize("kind", sorted(CURVE_KINDS))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_curve_round_trip(kind, data):
    _assert_round_trip(cli._CURVES, "curve", data.draw(_curve(kind)))


@pytest.mark.parametrize("kind", sorted(_DECAYS))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_decay_round_trip(kind, data):
    _assert_round_trip(cli._DECAYS, "decay", data.draw(_DECAYS[kind]))


@pytest.mark.parametrize("kind", sorted(_LAMBDAS))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_lambda_round_trip(kind, data):
    _assert_round_trip(cli._LAMBDAS, "lambda", data.draw(_LAMBDAS[kind]))


@pytest.mark.parametrize(
    "table, obj, expected",
    [
        (cli._CURVES, ParamCurve("circle"), {"kind": "circle"}),
        (
            cli._CURVES,
            ParamCurve("parallel-lines", heights=(0.0, 1.5)),
            {"kind": "parallel-lines", "heights": [0.0, 1.5]},
        ),
        (
            cli._CURVES,
            ParamCurve("expr", x_expr=Var(), y_expr=BinOp("^", Var(), Num(3.0)), expr_domain=(-1.0, 1.0)),
            {"kind": "expr", "x": "t", "y": "t^3.0", "domain": [-1.0, 1.0]},
        ),
        (cli._DECAYS, CompactSupport(-1.0, 2.0), {"kind": "compact", "lo": -1.0, "hi": 2.0}),
        (cli._DECAYS, ExpDecay(2.0, 3.0), {"kind": "exp", "rate": 2.0, "amplitude": 3.0}),
        (cli._DECAYS, GaussianDecay(2.0, 3.0), {"kind": "gaussian", "rate": 2.0, "amplitude": 3.0}),
        (
            cli._LAMBDAS,
            Line((0.0, 1.0), (1.0, 0.0)),
            {"kind": "line", "point": [0.0, 1.0], "direction": [1.0, 0.0]},
        ),
        (
            cli._LAMBDAS,
            Lines((Line((0.0, 1.0), (1.0, 0.0)),)),
            {"kind": "lines", "lines": [{"point": [0.0, 1.0], "direction": [1.0, 0.0]}]},
        ),
        (cli._LAMBDAS, CircleSet(0.5), {"kind": "circle", "radius": 0.5}),
        (cli._LAMBDAS, LatticeCross(1.0, 2.0), {"kind": "lattice-cross", "alpha": 1.0, "beta": 2.0}),
        (cli._LAMBDAS, CurveSet(ParamCurve("spiral")), {"kind": "curve", "curve": {"kind": "spiral"}}),
        (
            cli._LAMBDAS,
            FiberList((Fiber(0.5, (0.0, 1.25)),), True),
            {"kind": "fibers", "fibers": [{"xi": 0.5, "sigma": [0.0, 1.25]}], "periodic2": True},
        ),
    ],
)
def test_dump_writes_the_documented_keys_in_order(table, obj, expected):
    # a key renamed consistently in both directions still round-trips; this pins the format
    assert json.dumps(cli._dump(table, obj)) == json.dumps(expected)


@pytest.mark.parametrize(
    "table, where, desc, message",
    [
        (cli._LAMBDAS, "lambda", {"kind": "circle", "radius": 1, "alpha": 2}, "unknown key"),
        (cli._LAMBDAS, "lambda", {"kind": "lattice-cross", "alpha": 1}, "missing key"),
        (cli._CURVES, "curve", {"kind": "circle", "heights": [1.0]}, "unknown key"),
        (cli._CURVES, "curve", {"kind": "parallel-lines", "heights": []}, "needs heights"),
        (cli._CURVES, "curve", {"kind": "expr", "x": "t", "y": "t", "domain": [0, 1, 2]}, "unpack"),
        (cli._CURVES, "curve", {"kind": "ellipse"}, "unknown curve kind 'ellipse'"),
        (cli._DECAYS, "decay", {"rate": 1.0}, "unknown decay kind None"),
        (cli._DECAYS, "decay", {"kind": "exp", "rate": "fast"}, "bad decay"),
    ],
)
def test_load_rejects_malformed_descriptions(table, where, desc, message):
    with pytest.raises(cli.ConfigError, match=message):
        cli._load(table, desc, where)


def run_main(capsys, *argv):
    """Exit code, stdout and stderr of ``huplab ARGV`` run in-process."""
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


LAMBDA_CONFIG = {
    "curve": {"kind": "circle"},
    "density": ["1/(2*pi)"],
    "lambda": {"kind": "lattice-cross", "alpha": 1.0, "beta": 1.0},
    "window": [-2.0, 2.0, -2.0, 2.0],
    "samples": 16,
}



def _with_grid(xi, eta):
    return {**CIRCLE_GRID_CONFIG, "grid": {"xi": xi, "eta": eta}}


class TestConfigErrorsExit2:
    @pytest.mark.parametrize(
        "cfg, message",
        [
            (_with_grid([[1], 1.0, 3], [0.0, 0.0, 1]), "grid.xi[0] must be a number, got [1]"),
            (_with_grid([0.0, 1.0, 3], [0.0, True, 1]), "grid.eta[1] must be a number, got True"),
            (_with_grid([0.0, 1.0, 3], [0.0, 0.0, "1"]), "grid.eta[2] must be a number, got '1'"),
            (_with_grid([0.0, 1.0, 2.5], [0.0, 0.0, 1]), "grid.xi[2] must be an integer, got 2.5"),
            ({**LAMBDA_CONFIG, "window": [-2.0, 2.0, [1], 2.0]}, "window[2] must be a number, got [1]"),
            ({**LAMBDA_CONFIG, "samples": [1]}, "samples must be a number, got [1]"),
            ({**LAMBDA_CONFIG, "samples": 2.5}, "samples must be an integer, got 2.5"),
        ],
        ids=["grid-list", "grid-bool", "grid-str-count", "grid-2.5-count", "window-list", "samples-list", "samples-2.5"],
    )
    def test_ft_config_values_of_the_wrong_type(self, capsys, tmp_path, cfg, message):
        code, out, err = run_main(capsys, "ft", "--config", write_config(tmp_path, cfg))
        assert (code, out, err) == (2, "", f"config error: {message}\n")

    @pytest.mark.parametrize(
        "cfg, message",
        [
            (_with_grid([0.0, math.inf, 2], [0.0, 0.0, 1]), "grid.xi[1] must be finite, got inf"),
            (_with_grid([0.0, 1.0, 3], [math.nan, 0.0, 1]), "grid.eta[0] must be finite, got nan"),
            (_with_grid([0.0, 1.0, math.inf], [0.0, 0.0, 1]), "grid.xi[2] must be finite, got inf"),
            ({**LAMBDA_CONFIG, "window": [-math.inf, math.inf, -1.0, 1.0]}, "window[0] must be finite, got -inf"),
            ({**LAMBDA_CONFIG, "samples": math.inf}, "samples must be finite, got inf"),
            ({**CIRCLE_GRID_CONFIG, "quad": {"abs_tol": math.nan}}, "bad quad: tolerances must be finite and positive"),
            ({**CIRCLE_GRID_CONFIG, "quad": {"rel_tol": math.nan}}, "bad quad: tolerances must be finite and positive"),
            ({**CIRCLE_GRID_CONFIG, "quad": {"abs_tol": math.inf}}, "bad quad: tolerances must be finite and positive"),
        ],
        ids=["grid-inf", "grid-nan", "grid-inf-count", "window-inf", "samples-inf", "abs-nan", "rel-nan", "abs-inf"],
    )
    def test_ft_config_numbers_must_be_finite(self, capsys, tmp_path, cfg, message):
        # infinite grid bounds and windows failed at the point (nan, 0) or
        # (nan, nan) with exit 3; a NaN abs_tol failed as a nonfinite 't^2.0',
        # and a NaN rel_tol or an infinite abs_tol exited 0
        code, out, err = run_main(capsys, "ft", "--config", write_config(tmp_path, cfg))
        assert (code, out, err) == (2, "", f"config error: {message}\n")

    @pytest.mark.parametrize(
        "argv, cfg, message",
        [
            (
                ("ft",),
                _with_grid([0.0, 1.0, POINTS_MAX + 1], [0.0, 0.0, 1]),
                f"grid has {POINTS_MAX + 1} points, more than {POINTS_MAX}",
            ),
            (
                ("ft",),
                {
                    **LAMBDA_CONFIG,
                    "lambda": {"kind": "line", "point": [0, 0], "direction": [1, 0]},
                    "samples": POINTS_MAX + 1,
                },
                f"Line in window (-2.0, 2.0, -2.0, 2.0) takes {POINTS_MAX + 1} points, more than {POINTS_MAX}",
            ),
            (
                ("ft",),
                {**LAMBDA_CONFIG, "window": [0.0, POINTS_MAX, -0.5, 0.5]},
                f"LatticeCross in window (0.0, {POINTS_MAX:.1f}, -0.5, 0.5) takes {POINTS_MAX + 1} points, "
                f"more than {POINTS_MAX}",
            ),
            (
                ("ft",),
                {
                    **LAMBDA_CONFIG,
                    "lambda": {"kind": "fibers", "fibers": [{"xi": 0.0, "sigma": [0.0]}], "periodic2": True},
                    "window": [-1.0, 1.0, 0.0, 2.0 * POINTS_MAX],
                },
                f"FiberList in window (-1.0, 1.0, 0.0, {2.0 * POINTS_MAX:.1f}) takes {POINTS_MAX + 1} points, "
                f"more than {POINTS_MAX}",
            ),
            (
                ("annihilate", "circle-line", "--samples", str(POINTS_MAX + 1)),
                None,
                f"n_lambda must be at most {POINTS_MAX}, got {POINTS_MAX + 1}",
            ),
            (
                ("annihilate", "circle-lines", "--j", str(POINTS_MAX // 2 + 1)),
                None,
                f"j must be at most {POINTS_MAX // 2}: its lines take 2 samples each, got {POINTS_MAX // 2 + 1}",
            ),
        ],
        ids=["grid", "samples", "lattice-cross", "periodic-fibers", "annihilate-samples", "annihilate-j"],
    )
    def test_more_points_than_the_bound_exit_2_before_any_transform(
        self, capsys, monkeypatch, tmp_path, argv, cfg, message
    ):
        # each asks for one point more than POINTS_MAX; --j asks for 2 more,
        # as each of its lines takes 2 samples
        def refuse(*args):
            raise AssertionError("no transform runs on a point count over the bound")

        monkeypatch.setattr(cli, "mu_hat_at_points", refuse)
        monkeypatch.setattr(witnesses, "mu_hat_at_points", refuse)
        config = ("--config", write_config(tmp_path, cfg)) if cfg else ()
        code, out, err = run_main(capsys, *argv, *config)
        assert (code, out, err) == (2, "", f"config error: {message}\n")

    @pytest.mark.parametrize(
        "cfg, message",
        [
            (
                {**CIRCLE_GRID_CONFIG, "curve": {"kind": "exp-curve"}, "decay": {"kind": "exp", "rate": math.nan}},
                "bad decay: rate and amplitude must be finite and positive, got nan and 1.0",
            ),
            (
                {**CIRCLE_GRID_CONFIG, "curve": {"kind": "spiral"}, "decay": {"kind": "gaussian", "amplitude": math.inf}},
                "bad decay: rate and amplitude must be finite and positive, got 1.0 and inf",
            ),
            (
                {**CIRCLE_GRID_CONFIG, "curve": {"kind": "expr", "x": "t", "y": "t^2", "domain": [0.0, math.nan]}},
                "bad curve: domain must not be NaN, got [0.0, nan]",
            ),
            (
                {**CIRCLE_GRID_CONFIG, "curve": {"kind": "parallel-lines", "heights": [0.0, math.nan]}},
                "bad curve: heights must be finite, got [0.0, nan]",
            ),
            (
                {**LAMBDA_CONFIG, "lambda": {"kind": "circle", "radius": math.inf}},
                "bad lambda: radius must be finite and positive, got inf",
            ),
            (
                {**LAMBDA_CONFIG, "lambda": {"kind": "lattice-cross", "alpha": math.nan, "beta": 1.0}},
                "bad lambda: alpha and beta must be finite and positive, got nan and 1.0",
            ),
            (
                {**LAMBDA_CONFIG, "lambda": {"kind": "line", "point": [0.0, 0.0], "direction": [math.nan, 1.0]}},
                "bad lambda: line point (0.0, 0.0) and direction (nan, 1.0) must be finite",
            ),
        ],
        ids=["exp-rate", "gaussian-amplitude", "expr-domain", "height", "circle-radius", "lattice-alpha", "line"],
    )
    def test_ft_config_objects_must_be_finite(self, capsys, tmp_path, cfg, message):
        # each ran on: some exited 3 with a nonfinite integrand, after numpy
        # warnings, and the rest exited 2 blaming the window, an integer
        # conversion or a frequency point (nan, -2)
        code, out, err = run_main(capsys, "ft", "--config", write_config(tmp_path, cfg))
        assert (code, out, err) == (2, "", f"config error: {message}\n")

    @pytest.mark.parametrize("tol", ["inf", "nan", "-1", "0"])
    def test_annihilate_tol_must_be_finite_and_positive(self, capsys, tol):
        # inf printed "ok": true whatever the residual, nan failed with an empty
        # message, and -1 failed verification
        code, out, err = run_main(capsys, "annihilate", "circle-line", "--samples", "16", f"--tol={tol}")
        assert (code, out, err) == (2, "", f"config error: tol must be finite and positive, got {float(tol)}\n")

    def test_solver_without_etas(self, capsys):
        code, out, err = run_main(capsys, "fourlines", "tau")
        assert (code, out) == (2, "")
        assert err == "config error: tau needs --etas with 3 comma-separated heights\n"

    @pytest.mark.parametrize("doc", [{"points": 5}, {"points": [5]}, {"points": [[0.0, None]]}, {"fibers": 5}])
    def test_classify_on_values_of_the_wrong_type(self, capsys, monkeypatch, doc):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        code, out, err = run_main(capsys, "fourlines", "classify", "--fibers", "-")
        assert (code, out) == (2, "")
        assert err.startswith("config error: bad fibers JSON: ")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("lattice-cross", "--alpha", "1", "--beta", "nan"), "alpha and beta must be finite"),
            (("hyperbola-lattice-cross", "--alpha", "inf", "--beta", "0.5"), "alpha and beta must be finite"),
            (("circle-circle", "--radius", "inf"), "radius must be finite"),
            (("circle-circle", "--radius", "nan"), "radius must be finite"),
            (("sphere-sphere", "--dim", "3", "--radius=-inf"), "radius must be finite"),
            (("hyperbola-angled-lines", "--alpha", "nan"), "alpha must be finite"),
            (("fourlines-constant-fiber", "--p", "2"), "p must be an integer >= 3"),
            # each printed a verdict with a NaN or Infinity token, which is not JSON
            (("parabola-line", "--direction", "nan,0"), "direction must be finite"),
            (("paraboloid-hyperplane", "--normal", "0,inf"), "normal must be finite"),
            (("fourlines-constant-fiber", "--p", "3", "--eta0", "nan"), "eta0 must be finite"),
        ],
    )
    def test_verdict_inputs_outside_the_contract(self, capsys, argv, message):
        code, out, err = run_main(capsys, "verdict", *argv)
        assert (code, out, err) == (2, "", f"config error: {message}\n")

    @pytest.mark.parametrize("argv", [("--tol", "nan"), ("--samples", "0")])
    def test_annihilate_rejects_its_arguments_before_building(self, capsys, monkeypatch, argv):
        # the certificate of --j 5 took about 27 ms of quadrature before the rejection
        calls, original = [], witnesses.mu_hat_at_points

        def spying(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(witnesses, "mu_hat_at_points", spying)
        code, out, err = run_main(capsys, "annihilate", "circle-lines", "--j", "5", *argv)
        assert (code, out, calls) == (2, "", [])
        assert err.startswith("config error: ")
        assert run_main(capsys, "annihilate", "circle-lines", "--j", "5", "--samples", "4")[0] == 0 and calls

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("delta", "--etas", "0,nan"), "heights must be finite, got nan"),
            (("tau", "--etas", "inf,0,1"), "heights must be finite, got inf"),
            (("rho", "--etas", "0,1,-inf"), "heights must be finite, got -inf"),
        ],
    )
    def test_fourlines_heights_must_be_finite(self, capsys, argv, message):
        # each printed NaN tokens, which are not JSON, and exited 0
        code, out, err = run_main(capsys, "fourlines", *argv)
        assert (code, out, err) == (2, "", f"config error: {message}\n")

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"points": [[math.nan, 0.1]]}, "xi must be finite, got nan"),
            ({"fibers": [{"xi": math.inf, "sigma": [0.1]}]}, "bad fiber: xi must be finite, got inf"),
        ],
    )
    def test_classify_xi_must_be_finite(self, capsys, monkeypatch, doc, message):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        code, out, err = run_main(capsys, "fourlines", "classify", "--fibers", "-")
        assert (code, out, err) == (2, "", f"config error: {message}\n")

    @pytest.mark.parametrize("verb", ["j", "zero"])
    def test_bessel_order_must_be_finite(self, capsys, verb):
        # an OverflowError traceback with exit 1
        code, out, err = run_main(capsys, "bessel", verb, "--order", "1e400")
        assert (code, out, err) == (2, "", "config error: order must be finite, got 1e400\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            # an OverflowError traceback with exit 1
            (("bessel", "j", "--order", "1e306", "--x", "1"), "order must be at most 1000, got 1e+306"),
            (("bessel", "j", "--order", "2001/2", "--x", "1"), "order must be at most 1000, got 1000.5"),
            (("bessel", "zero", "--order", "1001"), "order must be at most 1000, got 1001"),
            (("bessel", "zero", "--n", "301"), "n must be at most 300, got 301"),
            (("bessel", "j", "--x", "1e300"), "x must be at most 1e+06, got 1e+300"),
            (("bessel", "nonzero", "--x", "1000000.5"), "x must be at most 1e+06, got 1000000.5"),
            (("verdict", "circle-circle", "--radius", "1e9"), "radius must be at most 100000, got 1000000000.0"),
            # the certificate's witness takes the next zero, which the bound leaves out
            (("annihilate", "circle-bessel", "--n", "300"), "need k >= 0 and 1 <= n <= 299, got k = 0, n = 300"),
            (
                ("verdict", "sphere-sphere", "--dim", "3", "--radius", "100001"),
                "radius must be at most 100000, got 100001.0",
            ),
        ],
    )
    def test_bessel_inputs_are_bounded_before_any_work(self, capsys, monkeypatch, argv, message):
        # each ran without bound, in time or memory; the bound rejects it before
        # any series or recurrence, and without the bound the test fails at once
        def refuse(*args):
            raise AssertionError(f"huplab {' '.join(argv)} evaluated J")

        monkeypatch.setattr(bessel, "_series", refuse)
        monkeypatch.setattr(bessel, "_downward", refuse)
        code, out, err = run_main(capsys, *argv)
        assert (code, out, err) == (2, "", f"config error: {message}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            # 2.2 s at p = 2000 and 14.4 s at p = 6000: the double sum of solve_tau is O(p^2)
            ("fourlines", "tau", "--etas", "0,0.5,1", "--p", "1501"),
            # 8.5 s on one four-height fiber at p = 100000
            ("fourlines", "classify", "--p", "100000", "--fibers", "-"),
        ],
    )
    def test_fourlines_p_is_bounded_before_any_work(self, capsys, monkeypatch, argv):
        def refuse(*args):
            raise AssertionError(f"huplab {' '.join(argv)} evaluated H_k")

        monkeypatch.setattr(fourlines, "homog_sym", refuse)
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"fibers": [{"xi": 0.0, "sigma": [0, 0.5, 1, 1.5]}]})))
        code, out, err = run_main(capsys, *argv)
        p = argv[argv.index("--p") + 1]
        assert (code, out, err) == (2, "", f"config error: p must be at most 1500, got {p}\n")

    def test_numeric_failure_prints_one_stderr_line(self, capsys, monkeypatch):
        # the exp-curve's y = e^{t^2} overflows past t = 26.6: seven numpy
        # RuntimeWarnings reached stderr before the message
        cfg = {
            "curve": {"kind": "exp-curve"},
            "density": ["exp(-(0.1*abs(t)))"],
            "decay": {"kind": "exp", "rate": 0.1},
            "grid": {"xi": [0, 1, 2], "eta": [0.5, 1, 2]},
        }
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(cfg)))
        code, out, err = run_main(capsys, "ft", "--config", "-")
        assert (code, out) == (3, "")
        assert err.count("\n") == 1 and err.startswith("numeric failure: at point (xi, eta) = (0, 0.5): ")

    @pytest.mark.parametrize("verb", ["j", "nonzero"])
    @pytest.mark.parametrize("x", ["inf", "-inf", "nan"])
    def test_bessel_x_must_be_finite(self, capsys, verb, x):
        # inf was an OverflowError traceback with exit 1, nan a message about integers
        code, out, err = run_main(capsys, "bessel", verb, f"--x={x}")
        assert (code, out, err) == (2, "", f"config error: x must be finite, got {float(x)}\n")


def test_readme_catalog_examples_run(tmp_path, monkeypatch, capsys):
    # every `huplab verdict|bessel|fourlines` line of the README's shell examples
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```sh\n(.*?)```", readme, flags=re.S)
    lines = [shlex.split(line, comments=True) for block in blocks for line in block.splitlines()]
    examples = [argv[1:] for argv in lines if argv[:1] == ["huplab"] and argv[1] in ("verdict", "bessel", "fourlines")]
    assert len(examples) >= 15
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fibers.json").write_text(json.dumps({"fibers": [{"xi": 0.0, "sigma": [0.0, 0.5]}]}))
    for argv in examples:
        code, out, err = run_main(capsys, *argv)
        assert code == 0, (argv, err)
        assert json.loads(out)["schema_version"] == 1
