"""Per-layer spans around huplab's public functions, and the metrics they give.

The layers are the modules of ``src/huplab``.  :meth:`Tracer.install` wraps
the functions named in ``WRAPPED`` and rebinds every name in every huplab
module that refers to the original (``transform.integrate``,
``witnesses.mu_hat``, ``huplab.bessel_j``, ...), so calls through any import
path are seen.  :meth:`Tracer.uninstall` puts the originals back.

A span records its name, its parent span, start and end (``perf_counter_ns``)
and one work slot: panels for ``integrate``, samples for the integrand and
``evaluate_array``, and thread CPU time for a point (``mu_hat``).  Spans are
appended to an in-memory list; nothing is written while an operation runs.  The pool's worker threads start with an
empty stack, so their top-level spans take as parent the innermost open
span of the operation's own thread (the ``mu_hat_at_points`` batch that
submitted them).  A span's self time is its duration minus the union of its
children's intervals; durations are wall time and include time a thread
waited for the interpreter lock.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import threading
from collections import defaultdict
from time import perf_counter_ns, thread_time_ns

import numpy as np

LAYERS = ("cli", "witnesses", "transform", "quadrature", "expr", "geometry", "bessel", "fourlines")

CONSTRUCTORS = (
    "circle_line_annihilator",
    "circle_rational_lines_annihilator",
    "circle_bessel_circle_annihilator",
    "hyperbola_line_annihilator",
    "expcurve_vertical_line_annihilator",
    "fourlines_annihilator",
)
SOLVERS = ("solve_tau", "solve_delta", "solve_e", "rho")

WRAPPED = {
    "cli": ("main",),
    "witnesses": CONSTRUCTORS + ("verify_certificate", "known_pair_verdict"),
    "transform": ("mu_hat", "mu_hat_at_points"),
    "quadrature": ("integrate", "truncate_interval"),
    "expr": ("parse", "pretty", "evaluate", "evaluate_array"),
    "geometry": ("sample_set", "ParamCurve.xy", "ParamCurve.deriv_sup"),
    "bessel": ("bessel_j", "bessel_zero", "all_orders_nonzero"),
    "fourlines": ("classify", "homog_sym", "periodize") + SOLVERS,
}

# the closure integrate() receives is transform's; it is timed as its own span
INTEGRAND = "transform.integrand"

# name, unit for every per-layer metric, in report order
METRICS = (
    [(f"{layer}.self_ms_per_op", "ms") for layer in LAYERS]
    + [
        ("witnesses.build_ms_per_op", "ms"),
        ("witnesses.verify_ms_per_op", "ms"),
        ("witnesses.verdict_us_per_call", "us"),
        ("transform.points_per_op", "count"),
        ("transform.batch_self_ms_per_op", "ms"),
        ("transform.point_us_p50", "us"),
        ("transform.pool_efficiency", "ratio"),
        ("quadrature.calls_per_point", "count"),
        ("quadrature.panels_per_point_p50", "count"),
        ("quadrature.panels_per_point_max", "count"),
        ("quadrature.evals_per_point", "count"),
        ("quadrature.fixed_us_per_call", "us"),
        ("quadrature.ns_per_eval", "ns"),
        ("expr.calls_per_point", "count"),
        ("expr.us_per_call", "us"),
        ("expr.ns_per_sample", "ns"),
        ("geometry.xy_us_per_call", "us"),
        ("geometry.sample_set_ms_per_op", "ms"),
        ("bessel.j_calls_per_op", "count"),
        ("bessel.j_us_per_call", "us"),
        ("bessel.zero_ms_per_call", "ms"),
        ("fourlines.classify_us_per_call", "us"),
        ("fourlines.homog_sym_calls_per_op", "count"),
        ("fourlines.solve_us_per_call", "us"),
        ("trace.overhead_frac", "ratio"),
        ("trace.coverage", "ratio"),
    ]
)


def _covered(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def _size_of_first(args, result) -> int:
    return int(np.size(args[0]))


def _size_of_second(args, result) -> int:
    return int(np.size(args[1]))


def _panels(args, result) -> int:
    return int(result.panels)


WORK_COUNTS = {
    "expr.evaluate_array": _size_of_second,
    "quadrature.integrate": _panels,
    INTEGRAND: _size_of_first,
}
# for a point, the work slot holds the thread's CPU time, which leaves out
# time spent waiting for the interpreter lock
CPU_TIMED = "transform.mu_hat"


class Tracer:
    """Records spans for one operation at a time and folds them into totals."""

    def __init__(self, threads: int):
        self.threads = threads
        self._local = threading.local()
        self._op_stack: list = []
        self._spans: list = []
        self._patches: list = []
        self._calls: dict = defaultdict(int)
        self._incl: dict = defaultdict(int)
        self._self: dict = defaultdict(int)
        self._work: dict = defaultdict(int)
        self._layer_self: dict = defaultdict(int)
        self._point_ns: list[int] = []
        self._point_panels: list[int] = []
        self._pool_busy = 0
        self._pool_capacity = 0
        self._covered = 0
        self._wall = 0
        self.ops = 0
        self.lines: list[str] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _call(self, name, fn, args, kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else (self._op_stack[-1] if self._op_stack else None)
        rec = [name, parent, 0, 0, 0, threading.get_ident()]
        stack.append(rec)
        cpu = thread_time_ns() if name == CPU_TIMED else 0
        rec[2] = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[3] = perf_counter_ns()
            stack.pop()
            self._spans.append(rec)
        count = WORK_COUNTS.get(name)
        if count is not None:
            rec[4] = count(args, result)
        elif cpu:
            rec[4] = thread_time_ns() - cpu
        return result

    def _wrap(self, name, fn):
        tracer = self
        if name == "quadrature.integrate":

            @functools.wraps(fn)
            def wrapper(f, *args, **kwargs):
                def integrand(t):
                    return tracer._call(INTEGRAND, f, (t,), {})

                return tracer._call(name, fn, (integrand,) + args, kwargs)

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return tracer._call(name, fn, args, kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every function in ``WRAPPED`` under every name that binds it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "huplab" or n.startswith("huplab.")]
        for layer, names in WRAPPED.items():
            module = sys.modules[f"huplab.{layer}"]
            for qualname in names:
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[attr]
                    self._patches.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(f"{layer}.{qualname}", original))
                    continue
                original = getattr(module, qualname)
                wrapper = self._wrap(f"{layer}.{qualname}", original)
                for mod in modules:
                    for attr in [a for a, v in vars(mod).items() if v is original]:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def begin_op(self) -> None:
        self._spans = []
        self._op_stack = self._stack()

    def end_op(self, index: int, label: str, start: int, end: int) -> None:
        """Fold the operation's spans into the totals and keep them for output."""
        spans = self._spans
        self.ops += 1
        self._wall += end - start
        children: dict = defaultdict(list)
        for rec in spans:
            if rec[1] is not None:
                children[id(rec[1])].append(rec)
        below_cli = []
        for rec in spans:
            name, _, t0, t1, work, _ = rec
            kids = children.get(id(rec), ())
            own = (t1 - t0) - _covered([(k[2], k[3]) for k in kids], t0, t1)
            self._calls[name] += 1
            self._incl[name] += t1 - t0
            self._self[name] += own
            self._work[name] += work
            layer = name.split(".", 1)[0]
            self._layer_self[layer] += own
            if layer != "cli":
                below_cli.append((t0, t1))
            if name == "transform.mu_hat":
                self._point_ns.append(t1 - t0)
                self._point_panels.append(sum(k[4] for k in kids if k[0] == "quadrature.integrate"))
            elif name == "transform.mu_hat_at_points":
                points = [k for k in kids if k[0] == "transform.mu_hat"]
                workers = 1 if len(points) < 4 else min(self.threads, len(points))
                self._pool_busy += sum(k[4] for k in points)
                self._pool_capacity += (t1 - t0) * workers
        self._covered += _covered(below_cli, start, end)
        self._append_line(index, label, start, spans)
        self._spans = []

    def _append_line(self, index: int, label: str, start: int, spans: list) -> None:
        position = {id(rec): i for i, rec in enumerate(spans)}
        threads: dict = {}
        rows = [
            [
                rec[0],
                position.get(id(rec[1]), -1),
                (rec[2] - start) // 1000,
                (rec[3] - rec[2]) // 1000,
                threads.setdefault(rec[5], len(threads)),
                rec[4],
            ]
            for rec in spans
        ]
        self.lines.append(json.dumps({"op": index, "label": label, "spans": rows}, separators=(",", ":")))

    # -- metrics ---------------------------------------------------------------

    def metrics(self, untraced_p50_ms: float, traced_p50_ms: float) -> dict:
        ops = max(self.ops, 1)
        calls, incl, own, work = self._calls, self._incl, self._self, self._work
        points = calls["transform.mu_hat"]

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        def names_sum(table: dict, names) -> int:
            return sum(table[n] for n in names)

        constructors = [f"witnesses.{n}" for n in CONSTRUCTORS]
        solvers = [f"fourlines.{n}" for n in SOLVERS]
        values = {f"{layer}.self_ms_per_op": self._layer_self[layer] / ops / 1e6 for layer in LAYERS}
        values.update(
            {
                "witnesses.build_ms_per_op": names_sum(incl, constructors) / ops / 1e6,
                "witnesses.verify_ms_per_op": incl["witnesses.verify_certificate"] / ops / 1e6,
                "witnesses.verdict_us_per_call": ratio(
                    incl["witnesses.known_pair_verdict"], calls["witnesses.known_pair_verdict"]
                )
                / 1e3,
                "transform.points_per_op": points / ops,
                "transform.batch_self_ms_per_op": own["transform.mu_hat_at_points"] / ops / 1e6,
                "transform.point_us_p50": statistics.median(self._point_ns) / 1e3 if self._point_ns else 0.0,
                "transform.pool_efficiency": ratio(self._pool_busy, self._pool_capacity),
                "quadrature.calls_per_point": ratio(calls["quadrature.integrate"], points),
                "quadrature.panels_per_point_p50": statistics.median(self._point_panels) if self._point_panels else 0,
                "quadrature.panels_per_point_max": max(self._point_panels, default=0),
                "quadrature.evals_per_point": ratio(work[INTEGRAND], points),
                "quadrature.fixed_us_per_call": ratio(own["quadrature.integrate"], calls["quadrature.integrate"])
                / 1e3,
                "quadrature.ns_per_eval": ratio(incl[INTEGRAND], work[INTEGRAND]),
                "expr.calls_per_point": ratio(calls["expr.evaluate_array"], points),
                "expr.us_per_call": ratio(incl["expr.evaluate_array"], calls["expr.evaluate_array"]) / 1e3,
                "expr.ns_per_sample": ratio(incl["expr.evaluate_array"], work["expr.evaluate_array"]),
                "geometry.xy_us_per_call": ratio(incl["geometry.ParamCurve.xy"], calls["geometry.ParamCurve.xy"])
                / 1e3,
                "geometry.sample_set_ms_per_op": incl["geometry.sample_set"] / ops / 1e6,
                "bessel.j_calls_per_op": calls["bessel.bessel_j"] / ops,
                "bessel.j_us_per_call": ratio(incl["bessel.bessel_j"], calls["bessel.bessel_j"]) / 1e3,
                "bessel.zero_ms_per_call": ratio(incl["bessel.bessel_zero"], calls["bessel.bessel_zero"]) / 1e6,
                "fourlines.classify_us_per_call": ratio(incl["fourlines.classify"], calls["fourlines.classify"])
                / 1e3,
                "fourlines.homog_sym_calls_per_op": calls["fourlines.homog_sym"] / ops,
                "fourlines.solve_us_per_call": ratio(names_sum(incl, solvers), names_sum(calls, solvers)) / 1e3,
                "trace.overhead_frac": ratio(traced_p50_ms, untraced_p50_ms) - 1.0,
                "trace.coverage": ratio(self._covered, self._wall),
            }
        )
        return {name: {"value": values[name], "unit": unit} for name, unit in METRICS}
