"""Byte-pinned outputs of ``annihilate``: every certificate case, built and verified.

``annihilate_golden.json`` holds stdout and the exit code of every command
line in ``CORPUS``.  It was recorded while null transform rows were still
found by a numerical probe, before they were decided from parity, so the test
shows that the change moved no byte of a certificate.  Regenerate it only for
a deliberate change of output: ``PYTHONPATH=src python tests/test_annihilate_golden.py``.
"""

import json
import sys
from pathlib import Path

from test_catalog_golden import run

GOLDEN = Path(__file__).with_name("annihilate_golden.json")

CASES = ["circle-line", "circle-lines", "circle-bessel", "hyperbola-line", "expcurve-vline", "fourlines"]

CORPUS = (
    [["annihilate", case] for case in CASES]
    + [["annihilate", "circle-lines", "--j", str(j)] for j in range(2, 6)]
    + [["annihilate", "circle-bessel", "--k", str(k), "--n", str(n)] for k in range(4) for n in range(1, 4)]
    + [
        ["annihilate", "fourlines", "--p", str(p), "--eta0", eta0]
        for p in (3, 4, 5)
        for eta0 in ("0", "0.5", "1.25", "1.75")
    ]
)


def test_annihilate_outputs_match_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [entry["argv"] for entry in golden] == CORPUS
    # recorded before stderr was; every case writes none
    mismatched = [entry["argv"] for entry in golden if run(entry["argv"]) != {**entry, "stderr": ""}]
    assert not mismatched


if __name__ == "__main__":
    records = [run(argv) for argv in CORPUS]
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} records to {GOLDEN}", file=sys.stderr)
