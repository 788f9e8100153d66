"""huplab benchmark: drive the CLI in-process and report end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --compare base.jsonl change.jsonl

Run from the root of a checkout; the program under test is ``src/huplab`` of
that checkout.  One closed-loop client runs the workload's cycle of
operations, whole cycles at a time, until ``--seconds`` have passed.  Every
operation is one ``huplab.cli.main(argv)`` call with stdout captured.  The
output is an ``env`` line, a ``detail`` line and, last, the result object.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"

import workloads  # noqa: E402  (perfbench/ is sys.path[0])

SETUP_PROBES = 5
MIN_CYCLES = 2  # every operation runs at least twice, for the byte-identity check
FAILURES_SHOWN = 5


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def environment(args) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "huplab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc(),
        "HUPLAB_THREADS": os.environ["HUPLAB_THREADS"],
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Cold import plus input generation, each in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), str(SRC), workload, str(seed), str(WORK_ROOT)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def call(cli, argv: list[str]) -> tuple[int, str, str]:
    """One operation: exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an unexpected exception is a failed operation, not a crashed run
            code, err = -1, io.StringIO(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


class Outcomes:
    """Per-operation results: first stdout, failures and latencies."""

    def __init__(self, ops):
        self.ops = ops
        self.first: list = [None] * len(ops)
        self.bad: dict[int, str] = {}
        self.runs = [0] * len(ops)
        self.seconds: list[float] = []
        self.labels: list[str] = []

    def record(self, index: int, code: int, out: str, err: str, dt: float) -> None:
        self.runs[index] += 1
        self.seconds.append(dt)
        self.labels.append(self.ops[index].label)
        if index in self.bad:
            return
        if code != 0:
            self.bad[index] = f"exit {code}: {err.strip()[-300:]}"
        elif self.first[index] is None:
            self.first[index] = out
        elif out != self.first[index]:
            self.bad[index] = "stdout differs from the first run of the same operation"

    def check(self) -> int:
        """Run every operation's reference check; return transform points per cycle."""
        points = 0
        for i, op in enumerate(self.ops):
            if i in self.bad or self.first[i] is None:
                continue
            try:
                points += op.check(self.first[i])
            except (workloads.CheckError, KeyError, TypeError, ValueError) as exc:
                self.bad[i] = f"check failed: {type(exc).__name__}: {exc}"
        return points

    @property
    def failed(self) -> int:
        return sum(self.runs[i] for i in self.bad)

    def failures(self) -> list[str]:
        return [" ".join(self.ops[i].argv) + " -> " + msg for i, msg in sorted(self.bad.items())][:FAILURES_SHOWN]


def measure(cli, ops, seconds: float, tracer=None) -> tuple[Outcomes, dict]:
    """Run whole cycles until ``seconds`` have passed (at least ``MIN_CYCLES``
    untraced, one traced).  With a tracer, every operation runs twice in a
    row, once traced and once not, alternating which goes first."""
    done = Outcomes(ops)
    traced: list[float] = []
    untraced: list[float] = []
    cycles = 0
    start = time.perf_counter()
    while cycles < (1 if tracer else MIN_CYCLES) or time.perf_counter() - start < seconds:
        for i, op in enumerate(ops):
            if tracer is None:
                t0 = time.perf_counter_ns()
                code, out, err = call(cli, op.argv)
                done.record(i, code, out, err, (time.perf_counter_ns() - t0) / 1e9)
                continue
            for with_trace in ((False, True) if (cycles + i) % 2 else (True, False)):
                if with_trace:
                    tracer.install()
                    tracer.begin_op()
                t0 = time.perf_counter_ns()
                code, out, err = call(cli, op.argv)
                t1 = time.perf_counter_ns()
                if with_trace:
                    tracer.uninstall()
                    tracer.end_op(len(traced), op.label, t0, t1)
                (traced if with_trace else untraced).append((t1 - t0) / 1e9)
                done.record(i, code, out, err, (t1 - t0) / 1e9)
        cycles += 1
    return done, {"cycles": cycles, "traced_s": traced, "untraced_s": untraced}


def run(args) -> int:
    if not (SRC / "huplab" / "cli.py").is_file():
        print(f"no huplab sources at {SRC / 'huplab'}; run from the root of a huplab checkout", file=sys.stderr)
        return 2
    os.environ["HUPLAB_THREADS"] = str(nproc())
    sys.path.insert(0, str(SRC))
    print(json.dumps({"env": environment(args)}), flush=True)

    setup = [] if args.trace else setup_seconds(args.workload, args.seed)
    workdir = WORK_ROOT / f"run-{os.getpid()}"
    try:
        from huplab import cli

        ops = workloads.generate(args.workload, args.seed, workdir)
        for op in ops:
            op.check = op.reference()
        tracer = None
        if args.trace:
            import layers

            tracer = layers.Tracer(int(os.environ["HUPLAB_THREADS"]))
        done, timing = measure(cli, ops, args.seconds, tracer)
        points_per_cycle = done.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(done.seconds)
    ops_per_cycle = len(ops)
    busy = sum(done.seconds)
    detail = {
        "workload": args.workload,
        "cycles": timing["cycles"],
        "ops_per_cycle": ops_per_cycle,
        "attempted": attempted,
        "failed": done.failed,
        "error_rate": done.failed / attempted,
        "failures": done.failures(),
        "points_per_op": points_per_cycle / ops_per_cycle,
        "op_p50_ms_by_label": {
            label: round(statistics.median(t for t, l in zip(done.seconds, done.labels) if l == label) * 1e3, 3)
            for label in sorted(set(done.labels))
        },
    }
    if tracer is None:
        detail["points_per_s"] = points_per_cycle / ops_per_cycle * attempted / busy
        detail["setup_samples_s"] = setup
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "op_p50_ms": {"value": statistics.median(done.seconds) * 1e3, "unit": "ms"},
            "op_p90_ms": {"value": p90(done.seconds) * 1e3, "unit": "ms"},
            "ops_per_s": {"value": attempted / busy, "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
    else:
        metrics = tracer.metrics(statistics.median(timing["untraced_s"]) * 1e3, statistics.median(timing["traced_s"]) * 1e3)
        spans = WORK_ROOT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        with gzip.open(spans, "wt", compresslevel=1) as fh:
            fh.write("\n".join(tracer.lines) + "\n")
        detail["spans_file"] = str(spans.relative_to(ROOT))
        detail["traced_ops"] = tracer.ops
    print(json.dumps({"detail": detail}), flush=True)
    result = {"correct": done.failed == 0, "attempted": attempted, "failed": done.failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"), help="compare two result files")
    args = parser.parse_args(argv)
    if args.compare:
        import compare

        return compare.main(*args.compare, ROOT / "BENCHMARK.json")
    if not args.workload:
        parser.error("--workload is required unless --compare is given")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
