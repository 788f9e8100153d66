"""Pinned outputs of ``ft`` on the 27 shifted 20x20 benchmark grids.

The grids are those of the ft-grid benchmark workload, restated here: the
hyperbola-full, parabola and spiral configs below, 20x20, with each axis's
origin shifted by m/4 of a step for m in {-1, 0, 1}.  Their points reach the
block-wise pre-splits and the refinement that the 5x5 grids of
``test_ft_golden.py`` seldom do.  ``ft_grid_golden.json`` holds, for each
grid, the sha256 of stdout and the exit code, which pin today's bytes, and
each point's value and err as recorded, which a change of output must stay
within: |new - recorded| <= err_new + err_recorded at every point.  The whole
check runs in-process in a few seconds.

``PYTHONPATH=src python tests/test_ft_grid_golden.py`` prints, per grid, the
max |new - recorded| / (err_new + err_recorded).  After a deliberate change
of output that stays within the error bars, ``--rehash`` re-records the
hashes and exit codes and keeps the recorded values; ``--record`` re-records
the values too.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from huplab import cli

from conftest import error_bar_ratio, ft_rows

GOLDEN = Path(__file__).with_name("ft_grid_golden.json")

GRID_N = 20
SHIFTS = (-1, 0, 1)

CONFIGS = {
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


def _axis(half_width: float, m: int) -> list:
    shift = m * (2.0 * half_width / (GRID_N - 1)) / 4.0
    return [-half_width + shift, half_width + shift, GRID_N]


def _config(name: str, mx: int, my: int) -> dict:
    spec = dict(CONFIGS[name])
    half_width = spec.pop("half_width")
    return {**spec, "grid": {"xi": _axis(half_width, mx), "eta": _axis(half_width, my)}}


def _keys():
    return [(name, mx, my) for name in CONFIGS for mx in SHIFTS for my in SHIFTS]


def run(directory: Path, name: str, mx: int, my: int) -> tuple:
    """Exit code and stdout of ``huplab ft`` on one shifted grid, in-process."""
    path = directory / f"{name}_{mx}_{my}.json"
    path.write_text(json.dumps(_config(name, mx, my)), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["ft", "--config", str(path)])
    return code, out.getvalue()


def _pin(code: int, stdout: str) -> dict:
    return {"code": code, "sha256": hashlib.sha256(stdout.encode()).hexdigest()}


def _recorded(entry: dict) -> list:
    return [(complex(re, im), err) for re, im, err in entry["rows"]]


def _dump(records: list) -> str:
    # one line per point, so a re-recording diffs point by point
    entries = []
    for record in records:
        head = json.dumps({k: v for k, v in record.items() if k != "rows"})[:-1]
        rows = ",\n  ".join(json.dumps(row) for row in record["rows"])
        entries.append(f' {head}, "rows": [\n  {rows}\n ]}}')
    return "[\n" + ",\n".join(entries) + "\n]\n"


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("ft-grids")
    return [run(directory, *key) for key in _keys()]


@pytest.fixture(scope="module")
def golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [entry["grid"] for entry in golden] == [f"{n} {mx},{my}" for n, mx, my in _keys()]
    return golden


def test_ft_grids_match_golden(outputs, golden):
    pinned = [{k: entry[k] for k in ("code", "sha256")} for entry in golden]
    mismatched = [entry["grid"] for entry, pin, out in zip(golden, pinned, outputs) if _pin(*out) != pin]
    assert not mismatched


def test_ft_grids_within_error_bars_of_golden(outputs, golden):
    ratios = {entry["grid"]: error_bar_ratio(ft_rows(out[1]), _recorded(entry)) for entry, out in zip(golden, outputs)}
    assert all(ratio <= 1.0 for ratio in ratios.values()), ratios


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        runs = [run(Path(scratch), *key) for key in _keys()]
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for entry, (_, stdout) in zip(golden, runs):
        ratio = error_bar_ratio(ft_rows(stdout), _recorded(entry))
        print(f"{entry['grid']}: max |new - recorded| / (err_new + err_recorded) = {ratio:.3g}")
    if sys.argv[1:] in (["--rehash"], ["--record"]):
        for entry, (code, stdout) in zip(golden, runs):
            entry.update(_pin(code, stdout))
            if sys.argv[1] == "--record":
                entry["rows"] = [[v.real, v.imag, e] for v, e in ft_rows(stdout)]
        GOLDEN.write_text(_dump(golden), encoding="utf-8")
        print(f"wrote {len(golden)} records to {GOLDEN}", file=sys.stderr)
