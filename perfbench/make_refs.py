"""Record the ft-grid reference rows for the curves without a closed form.

    python3 perfbench/make_refs.py

Evaluates the hyperbola and spiral grids of the ft-grid workload at every
seed shift with the checkout's huplab, and writes ``(re, im, err)`` per row to
perfbench/ft_refs.json.  The committed file was recorded at the commit that
introduced the benchmark; rerun it only when the reference itself is meant to
change.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from huplab import cli  # noqa: E402


def main() -> int:
    refs: dict = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for name in ("hyperbola", "spiral"):
            refs[name] = {}
            for mx in workloads.SHIFT_STEPS:
                for my in workloads.SHIFT_STEPS:
                    path = os.path.join(tmp, "cfg.json")
                    with open(path, "w") as fh:
                        json.dump(workloads.ft_config(name, mx, my), fh)
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        code = cli.main(["ft", "--config", path])
                    if code != 0:
                        print(f"{name} {mx},{my}: exit {code}", file=sys.stderr)
                        return 1
                    rows = workloads.parse_ft_csv(out.getvalue())
                    refs[name][f"{mx},{my}"] = [[v.real, v.imag, err] for _, _, v, err in rows]
    workloads.REFS_PATH.write_text(json.dumps(refs, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
