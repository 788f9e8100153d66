"""Hash-pinned outputs of ``ft`` on the 27 shifted 20x20 benchmark grids.

The grids are those of the ft-grid benchmark workload, restated here: the
hyperbola-full, parabola and spiral configs below, 20x20, with each axis's
origin shifted by m/4 of a step for m in {-1, 0, 1}.  Their points reach the
block-wise pre-splits and the refinement that the 5x5 grids of
``test_ft_golden.py`` seldom do.  ``ft_grid_golden.json`` holds the sha256 of
stdout and the exit code of each grid; the whole check runs in-process in
a few seconds.  Regenerate it only for a deliberate change of output:
``PYTHONPATH=src python tests/test_ft_grid_golden.py``.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from huplab import cli

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


def run(directory: Path, name: str, mx: int, my: int) -> dict:
    """sha256 of stdout and exit code of ``huplab ft`` on one shifted grid, in-process."""
    path = directory / f"{name}_{mx}_{my}.json"
    path.write_text(json.dumps(_config(name, mx, my)), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["ft", "--config", str(path)])
    return {"grid": f"{name} {mx},{my}", "code": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def test_ft_grids_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [entry["grid"] for entry in golden] == [f"{n} {mx},{my}" for n, mx, my in _keys()]
    mismatched = [entry["grid"] for entry, key in zip(golden, _keys()) if run(tmp_path, *key) != entry]
    assert not mismatched


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        records = [run(Path(scratch), *key) for key in _keys()]
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} records to {GOLDEN}", file=sys.stderr)
