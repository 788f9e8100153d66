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

from huplab import cli
from huplab.expr import BinOp, Num, Var
from huplab.fourlines import Fiber
from huplab.geometry import (
    CURVE_KINDS,
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


def run_cli(*args, stdin_text=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "huplab", *args],
        capture_output=True,
        text=True,
        input=stdin_text,
        env=env,
        timeout=300,
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


class TestConfigErrorsExit2:
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
