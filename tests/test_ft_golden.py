"""Byte-pinned outputs of ``ft``: every curve kind under every decay law.

``ft_golden.json`` holds stdout, stderr and the exit code of ``huplab ft``
for each config in ``CONFIGS``, run from a directory that holds them as
``<name>.json``.  The grids are small, on every kind in ``CURVE_KINDS``,
with compact, exponential and Gaussian envelopes at rates and amplitudes
other than 1, so the truncation windows, the tail part of ``err`` and the
envelope-sized pre-splits all show in the bytes.  Under each decaying law one
density lies above its envelope: stderr names the worst sample of
``check_envelope``.
The golden was recorded before the decay laws moved into their classes, so
the test shows that the move changed no byte.  Regenerate it only for a
deliberate change of output: ``PYTHONPATH=src python tests/test_ft_golden.py``.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

from huplab import cli
from huplab.geometry import CURVE_KINDS

GOLDEN = Path(__file__).with_name("ft_golden.json")


def _grid(xi, eta):
    return {"grid": {"xi": xi, "eta": eta}}


_SQUARE = _grid([-2.0, 2.0, 5], [-2.0, 2.0, 5])

CONFIGS = {
    "circle": {"curve": {"kind": "circle"}, "density": ["cos(t)+i*sin(2*t)"], **_SQUARE},
    "circle-compact": {
        "curve": {"kind": "circle"},
        "density": ["chi(-1,2)(t)*(1+t)"],
        "decay": {"kind": "compact", "lo": -1.0, "hi": 2.0},
        **_SQUARE,
    },
    "hyperbola-branch": {
        "curve": {"kind": "hyperbola-branch"},
        "density": ["3*exp(-6*t)"],
        "decay": {"kind": "exp", "rate": 6.0, "amplitude": 3.0},
        **_SQUARE,
    },
    "hyperbola-branch-narrow": {
        "curve": {"kind": "hyperbola-branch"},
        "density": ["1.5*exp(-40*t^2)"],
        "decay": {"kind": "gaussian", "rate": 40.0, "amplitude": 1.5},
        **_SQUARE,
    },
    "hyperbola-full": {
        "curve": {"kind": "hyperbola-full"},
        "density": ["sin(t)*exp(-(t^2))"],
        "decay": {"kind": "gaussian"},
        **_grid([-3.0, 3.0, 5], [-3.0, 3.0, 5]),
    },
    "spiral": {
        "curve": {"kind": "spiral"},
        "density": ["exp(-0.5*t)*cos(t)"],
        "decay": {"kind": "exp", "rate": 0.5},
        **_SQUARE,
    },
    "spiral-compact": {
        "curve": {"kind": "spiral"},
        "density": ["chi(0.5,4)(t)*t"],
        "decay": {"kind": "compact", "lo": 0.5, "hi": 4.0},
        **_SQUARE,
    },
    "anti-spiral": {
        "curve": {"kind": "anti-spiral"},
        "density": ["0.5*exp(1.5*t)"],
        "decay": {"kind": "exp", "rate": 1.5, "amplitude": 0.5},
        "quad": {"abs_tol": 1e-6, "rel_tol": 1e-6},
        **_SQUARE,
    },
    "exp-curve": {
        "curve": {"kind": "exp-curve"},
        "density": ["exp(-2*t^2)"],
        "decay": {"kind": "gaussian", "rate": 2.0},
        **_grid([-2.0, 2.0, 5], [-0.0001, 0.0001, 5]),
    },
    "parabola": {
        "curve": {"kind": "parabola"},
        "density": ["2*exp(-0.5*t^2)"],
        "decay": {"kind": "gaussian", "rate": 0.5, "amplitude": 2.0},
        **_grid([-4.0, 4.0, 5], [-4.0, 4.0, 5]),
    },
    "parallel-lines": {
        "curve": {"kind": "parallel-lines", "heights": [0.0, 1.5]},
        "density": ["2*exp(-abs(t))", "exp(-3*t^2)"],
        "decay": {"kind": "exp", "rate": 1.0, "amplitude": 2.0},
        "quad": {"abs_tol": 1e-6, "rel_tol": 1e-6},
        **_SQUARE,
    },
    "expr": {
        "curve": {"kind": "expr", "x": "t", "y": "t^3", "domain": [-1.0, 1.0]},
        "density": ["1+t"],
        **_SQUARE,
    },
    "lambda-line": {
        "curve": {"kind": "parabola"},
        "density": ["exp(-(t^2))"],
        "decay": {"kind": "gaussian"},
        "lambda": {"kind": "line", "point": [0.0, 0.5], "direction": [1.0, 0.25]},
        "window": [-3.0, 3.0, -3.0, 3.0],
        "samples": 7,
    },
    "json": {
        "curve": {"kind": "spiral"},
        "density": ["exp(-t)*sin(3*t)"],
        "decay": {"kind": "exp", "rate": 1.0},
        "output": "json",
        **_grid([-1.0, 1.0, 3], [-1.0, 1.0, 3]),
    },
    "above-envelope": {
        "curve": {"kind": "parallel-lines", "heights": [0.0]},
        "density": ["exp(-(t^2)/4)"],
        "decay": {"kind": "gaussian", "rate": 0.5},
        **_grid([0.0, 0.0, 1], [0.0, 0.0, 1]),
    },
    "above-exp-envelope": {
        "curve": {"kind": "spiral"},
        "density": ["exp(-0.5*t)"],
        "decay": {"kind": "exp", "rate": 1.0},
        **_grid([0.0, 0.0, 1], [0.0, 0.0, 1]),
    },
}


def _argv(name: str) -> list[str]:
    return ["ft", "--config", f"{name}.json"]


def run(name: str) -> dict:
    """stdout, stderr and exit code of ``huplab ft --config NAME.json``, in-process."""
    argv = _argv(name)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _write_configs(directory: Path) -> None:
    for name, cfg in CONFIGS.items():
        (directory / f"{name}.json").write_text(json.dumps(cfg), encoding="utf-8")


def test_every_curve_kind_is_covered():
    assert {cfg["curve"]["kind"] for cfg in CONFIGS.values()} == set(CURVE_KINDS)


def test_ft_outputs_match_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_configs(tmp_path)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [entry["argv"] for entry in golden] == [_argv(name) for name in CONFIGS]
    mismatched = [name for name, entry in zip(CONFIGS, golden) if run(name) != entry]
    assert not mismatched


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        here = os.getcwd()
        os.chdir(scratch)
        _write_configs(Path(scratch))
        records = [run(name) for name in CONFIGS]
        os.chdir(here)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} records to {GOLDEN}", file=sys.stderr)
