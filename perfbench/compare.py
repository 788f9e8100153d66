"""Compare two files of benchmark results, one row per workload and metric.

A result file is the stdout of any number of ``run.py`` runs appended
together; each result line is assigned to the workload of the ``env`` line
before it.  For every metric the row shows each side's median and quartiles
over its runs and, for end-to-end metrics, a verdict against the bound in
BENCHMARK.json:

- unresolved: either side's quartile spread, as a share of its median, is
  wider than the bound, unless every run of the change reads better than
  every run of the base (then improved);
- worse: the change's median is worse than the base's by more than the bound;
- improved: the change's median is better by more than the base's quartile
  spread and the change wins at least nine tenths of the runs paired by seed
  (by position when the seeds differ), ties counting for neither;
- no-worse: otherwise.

Per-layer metrics have no bound; their rows carry no verdict.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path


def load(path: str) -> dict:
    """{(workload, traced): [(seed, metrics), ...]} from a result file."""
    runs: dict = defaultdict(list)
    env = None
    for line in Path(path).read_text().splitlines():
        if not line.startswith("{"):
            continue
        doc = json.loads(line)
        if "env" in doc:
            env = doc["env"]
        elif "metrics" in doc and env is not None:
            runs[(env["workload"], env["trace"])].append((env["seed"], doc["metrics"]))
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _pairs(base: list, change: list) -> list[tuple[float, float]]:
    by_seed = dict(base)
    if all(seed in by_seed for seed, _ in change):
        return [(by_seed[seed], value) for seed, value in change]
    return [(b, c) for (_, b), (_, c) in zip(base, change)]


def verdict(base: list, change: list, better: str, bound: float) -> str:
    """``base``/``change``: [(seed, value)]; ``better``: "lower" or "higher"."""
    sign = 1.0 if better == "lower" else -1.0
    b_vals, c_vals = [v for _, v in base], [v for _, v in change]
    b1, bm, b3 = quartiles(b_vals)
    c1, cm, c3 = quartiles(c_vals)
    all_better = all(sign * c < sign * b for c in c_vals for b in b_vals)
    if max((b3 - b1) / abs(bm), (c3 - c1) / abs(cm)) > bound:
        return "improved" if all_better else "unresolved"
    if sign * (cm - bm) / abs(bm) > bound:
        return "worse"
    pairs = _pairs(base, change)
    wins = sum(1 for b, c in pairs if sign * c < sign * b)
    if sign * (bm - cm) > b3 - b1 and wins >= 0.9 * len(pairs):
        return "improved"
    return "no-worse"


def _fmt(values: list[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:.5g} [{q1:.5g}, {q3:.5g}]"


def main(base_path: str, change_path: str, spec_path: Path) -> int:
    spec = json.loads(Path(spec_path).read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base, change = load(base_path), load(change_path)
    print(f"{'workload':10} {'metric':36} {'unit':6} {'base median [q1, q3]':34} {'change median [q1, q3]':34} verdict")
    for key in sorted(set(base) & set(change)):
        workload, traced = key
        names = list(dict.fromkeys(n for _, metrics in base[key] + change[key] for n in metrics))
        for name in names:
            b = [(seed, m[name]["value"]) for seed, m in base[key] if name in m]
            c = [(seed, m[name]["value"]) for seed, m in change[key] if name in m]
            if not b or not c:
                continue
            unit = next(m[name]["unit"] for _, m in base[key] if name in m)
            rule = bounds.get(name)
            mark = verdict(b, c, rule["better"], rule["bound"]) if rule and not traced else "-"
            print(
                f"{workload:10} {name:36} {unit:6} {_fmt([v for _, v in b]):34} {_fmt([v for _, v in c]):34} {mark}"
            )
    missing = sorted(set(base) ^ set(change))
    if missing:
        print("only on one side:", ", ".join(f"{w} (trace {int(t)})" for w, t in missing))
    return 0
