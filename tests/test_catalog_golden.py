"""Byte-pinned outputs of the catalog commands: verdicts, fourlines, Bessel zeros, help and usage errors.

``catalog_golden.json`` holds stdout, stderr and the exit code of every
command line in ``CORPUS``.  It was recorded before the verdict catalog, the
Bessel recurrence and the verb dispatch became tables, so the test shows that
the rewrite changed no byte; the help of ``ft``, the usage errors and stderr
were recorded before the parser was built once per process.  All of it runs
in one process, so every line after the first parses with a parser that
earlier lines used.  Regenerate it only for a deliberate change of output:
``PYTHONPATH=src python tests/test_catalog_golden.py``.
"""

import contextlib
import io
import json
import math
import os
import sys
from pathlib import Path

import pytest

from huplab import cli

GOLDEN = Path(__file__).with_name("catalog_golden.json")

# input files the fourlines classify lines read, relative to the working directory
FILES = {
    "fibers.json": {"fibers": [{"xi": 0.0, "sigma": [0.0, 0.5, 1.0, 1.5]}, {"xi": 1.5, "sigma": [0.25]}]},
    "points.json": {"points": [[0.0, 3.5], [0.0, 0.5], [1.0, -0.5], [2.0, 0.1], [2.0, 1.3], [2.0, 0.7]]},
    "neither.json": {"heights": [0.0]},
}

_J01_OVER_PI = repr(2.404825557695773 / math.pi)


def _verdicts() -> list[list[str]]:
    lines = []
    for pair in ("lattice-cross", "hyperbola-lattice-cross", "Hyperbola_Lattice_Cross"):
        for alpha, beta in (("1", "1"), ("1", "2"), ("0.5", "1.9"), ("2", "0.6"), ("3", "0.3333333333333333")):
            lines.append(["verdict", pair, "--alpha", alpha, "--beta", beta])
    lines += [
        ["verdict", "lattice-cross", "--alpha", "1"],
        ["verdict", "lattice-cross", "--beta", "1"],
        ["verdict", "lattice-cross", "--alpha", "-1", "--beta", "1"],
        ["verdict", "lattice-cross", "--alpha", "1", "--beta", "0"],
        ["verdict", "lattice-cross", "--alpha", "1", "--beta", "1", "--radius", "2", "--p", "7"],
    ]
    for radius in ("0.1", "0.5", _J01_OVER_PI, "0.765479", "1", "1.5", "2.5", "7.25", "12.75", "0", "-1"):
        lines.append(["verdict", "circle-circle", "--radius", radius])
    lines.append(["verdict", "circle-circle"])
    for dim in ("2", "3", "4", "5", "6", "9"):
        for radius in ("0.25", "0.5", "1", "1.5", "2", "3.7", "11.5"):
            lines.append(["verdict", "sphere-sphere", "--dim", dim, "--radius", radius])
    lines += [
        ["verdict", "sphere-sphere", "--radius", "1"],
        ["verdict", "sphere-sphere", "--dim", "3"],
        ["verdict", "sphere-sphere"],
        ["verdict", "sphere-sphere", "--dim", "1", "--radius", "1"],
        ["verdict", "sphere-sphere", "--dim", "3", "--radius", "0"],
    ]
    for angle in ("1/3", "1/4", "2", "0", "0.25", "0.3333333333333333", "1/0", "abc", "-3/7"):
        lines.append(["verdict", "circle-lines", "--angle", angle])
    lines.append(["verdict", "circle-lines"])
    for direction in ("1,0", "0,1", "1,1", "0,0", "-2.5,0", "1,1e-300", "1,2,3", "a,b"):
        lines.append(["verdict", "parabola-line", "--direction", direction])
    lines.append(["verdict", "parabola-line"])
    for normal in ("0,0,1", "1,0,1", "0,1", "0,0,0", "0,0,-2", "0,0,1e-9,1", "x"):
        lines.append(["verdict", "paraboloid-hyperplane", "--dim", "3", "--normal", normal])
    lines.append(["verdict", "paraboloid-hyperplane", "--dim", "3"])
    for alpha in ("0.5", "0.7853981633974483", "0.78", "0", "-0.1", "1.2"):
        lines.append(["verdict", "hyperbola-angled-lines", "--alpha", alpha])
    lines.append(["verdict", "hyperbola-angled-lines"])
    for flags in (["--p", "3"], ["--p", "4", "--eta0", "0.5"], ["--p", "5", "--eta0", "1.75"], ["--eta0", "0.5"]):
        lines.append(["verdict", "fourlines-constant-fiber", *flags])
    for pair in (
        "circle-line",
        "circle-parallel-lines",
        "circle-spiral",
        "parabola-two-lines",
        "spiral-antispiral",
        "expcurve-hline",
        "expcurve-vline",
        "expcurve-two-vlines",
        "hyperbola-branch-reflected",
        "hyperbola-hline",
        "hyperbola-two-hlines",
        "CIRCLE_LINE",
        "circle-cantor-dust",
    ):
        lines.append(["verdict", pair])
    lines.append(["verdict", "circle-line", "--radius", "2", "--angle", "1/3", "--direction", "1,0", "--dim", "4"])
    return lines


def _fourlines() -> list[list[str]]:
    lines = [
        ["fourlines", "classify", "--p", p, "--fibers", name]
        for p in ("3", "4", "5")
        for name in ("fibers.json", "points.json")
    ]
    lines += [["fourlines", "classify", "--p", "3", "--fibers", "neither.json"], ["fourlines", "classify", "--p", "3"]]
    for etas in ("0,1", "0.25,1.5", "0.3,0.3", "1.9,0.1", "0,1,2"):
        lines.append(["fourlines", "delta", "--etas", etas])
    for verb in ("e", "rho"):
        for etas in ("0,1,0.5", "0.3,0.3,1.1", "0.1,0.7,1.9", "0,0.5"):
            lines.append(["fourlines", verb, "--etas", etas])
    for p in ("3", "4", "7", "2"):
        for etas in ("0,1,0.5", "0.1,0.7,1.9", "0,0,1"):
            lines.append(["fourlines", "tau", "--p", p, "--etas", etas])
    return lines


def _bessel() -> list[list[str]]:
    lines = [
        ["bessel", "zero", "--order", order, "--n", n]
        for order in ("0", "1", "2", "3", "1/2", "3/2", "5/2")
        for n in ("1", "2", "3", "4")
    ]
    lines += [["bessel", "zero", "--order", "0", "--n", "0"], ["bessel", "zero", "--order", "1/3"]]
    for x in ("0.5", "1", "2", "2.404825557695773", "3.141592653589793", "5.5", "11.9", "13", "24.5", "40"):
        lines.append(["bessel", "nonzero", "--x", x])
        for dim in ("2", "3", "4", "5"):
            lines.append(["bessel", "nonzero", "--x", x, "--parity", "half", "--dim", dim])
    lines += [["bessel", "nonzero", "--x", "0"], ["bessel", "nonzero", "--x", "1", "--parity", "half", "--dim", "1"]]
    return lines


HELP = [
    ["--help"],
    ["verdict", "--help"],
    ["fourlines", "--help"],
    ["bessel", "--help"],
    ["annihilate", "--help"],
    ["ft", "--help"],
]

# argparse's own rejections: usage and message on stderr, exit 2; an
# unrecognized argument is reported by the top level, with its usage
USAGE_ERRORS = [
    [],
    ["nope"],
    ["annihilate", "nope"],
    ["bessel", "j", "--x", "abc"],
    ["verdict"],
    ["bessel", "j", "--bogus", "1"],
]

CORPUS = _verdicts() + _fourlines() + _bessel() + HELP + USAGE_ERRORS


def run(argv: list[str]) -> dict:
    """stdout, stderr and exit code of ``huplab ARGV`` run in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # --help and usage errors
            code = exc.code
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _write_files(directory: Path) -> None:
    for name, doc in FILES.items():
        (directory / name).write_text(json.dumps(doc), encoding="utf-8")


def test_catalog_outputs_match_golden(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    _write_files(tmp_path)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [entry["argv"] for entry in golden] == CORPUS
    mismatched = [entry["argv"] for entry in golden if run(entry["argv"]) != entry]
    assert not mismatched


if __name__ == "__main__":
    import tempfile

    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as scratch:
        here = os.getcwd()
        os.chdir(scratch)
        _write_files(Path(scratch))
        records = [run(argv) for argv in CORPUS]
        os.chdir(here)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} records to {GOLDEN}", file=sys.stderr)
