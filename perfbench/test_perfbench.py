"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

They run short slices of each workload in-process; about a minute in all.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from huplab import cli  # noqa: E402

# a slice of each cycle that reaches every layer the workload uses
SLICES = {"certify": len(workloads.CERTIFY_ROUND), "ft-grid": 3, "catalog": 30}


def _traced_counts(name: str, tmp_path: Path) -> dict:
    ops = workloads.generate(name, 7, tmp_path)[: SLICES[name]]
    for op in ops:
        op.check = op.reference()
    tracer = layers.Tracer(run.nproc())
    done, _ = run.measure(cli, ops, 0.0, tracer)
    assert done.failed == 0, done.failures()
    metrics = tracer.metrics(1.0, 1.0)
    return {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_count_metrics_repeat_exactly(name, tmp_path, monkeypatch):
    monkeypatch.setenv("HUPLAB_THREADS", str(run.nproc()))
    first = _traced_counts(name, tmp_path / "a")
    second = _traced_counts(name, tmp_path / "b")
    assert first == second
    assert any(first.values()), "the slice exercised no counted layer"


def test_tracer_restores_every_binding(tmp_path):
    import huplab
    from huplab import geometry, transform

    before = (transform.integrate, huplab.mu_hat, geometry.ParamCurve.xy)
    tracer = layers.Tracer(1)
    tracer.install()
    assert transform.integrate is not before[0] and huplab.mu_hat is not before[1]
    tracer.uninstall()
    assert (transform.integrate, huplab.mu_hat, geometry.ParamCurve.xy) == before


def _first_output(op) -> str:
    code, out, err = run.call(cli, op.argv)
    assert code == 0, err
    return out


def test_checks_reject_wrong_outputs(tmp_path):
    certify = workloads.generate("certify", 3, tmp_path)[0]
    out = _first_output(certify)
    assert workloads._certify_check(out) > 0
    doc = json.loads(out)
    doc["verification"]["residual"] = 2e-6
    with pytest.raises(workloads.CheckError):
        workloads._certify_check(json.dumps(doc))

    spiral = workloads.generate("ft-grid", 3, tmp_path)[2]
    check = spiral.reference()
    lines = _first_output(spiral).splitlines()
    assert check("\n".join(lines)) == 400
    cells = lines[5].split(",")
    cells[2] = repr(float(cells[2]) + 1e-6)
    lines[5] = ",".join(cells)
    with pytest.raises(workloads.CheckError):
        check("\n".join(lines))

    for op in workloads.generate("catalog", 3, tmp_path)[: len(workloads.CATALOG_BLOCK)]:
        check = op.reference()
        out = _first_output(op)
        check(out)
        with pytest.raises(workloads.CheckError):
            check(_wrong_catalog_answer(out))


def _wrong_catalog_answer(out: str) -> str:
    doc = json.loads(out)
    if "answer" in doc:
        doc["answer"] = "Unknown"
    elif "zero" in doc:
        doc["zero"] *= 1 + 1e-9
    elif "value" in doc:
        doc["value"] += 1e-8
    elif "nonzero_for_all_orders" in doc:
        doc["nonzero_for_all_orders"] = not doc["nonzero_for_all_orders"]
    elif "results" in doc:
        doc["results"][0]["class"] = "P1"
    else:
        key = next(k for k in ("tau0", "e0", "delta0", "rho") if k in doc)
        doc[key][0] += 1e-6
    return json.dumps(doc)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalog", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_verdicts():
    import compare

    base = [(s, 100.0 + s % 3) for s in range(10)]
    assert compare.verdict(base, [(s, v * 0.8) for s, v in base], "lower", 0.1) == "improved"
    assert compare.verdict(base, [(s, v * 1.2) for s, v in base], "lower", 0.1) == "worse"
    assert compare.verdict(base, [(s, v * 1.01) for s, v in base], "lower", 0.1) == "no-worse"
    assert compare.verdict(base, [(s, v * 1.2) for s, v in base], "higher", 0.1) == "improved"
    noisy = [(s, 100.0 * (1 + (s % 4))) for s in range(10)]
    assert compare.verdict(noisy, noisy, "lower", 0.1) == "unresolved"
