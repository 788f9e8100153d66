"""Shared independent oracles for the test suite.

These deliberately avoid the library's own code paths: the Bessel oracle is
a plain ascending series, and the integration oracle is composite Simpson
with Richardson refinement.  ``reference_integrate`` and ``reference_mu_hat``
are the former per-point path (one adaptive integration per point and
component, on a uniform pre-split), kept as the reference for the batched
evaluation.
"""

import heapq
import json
import math

import numpy as np
import pytest
from hypothesis import settings

from huplab.quadrature import (
    GK41,
    NonconvergenceError,
    QuadratureError,
    QuadResult,
    truncate_interval,
    truncation_error,
)
from huplab.transform import FTValue

# ``--hypothesis-profile=cli-fuzz`` runs test_cli_fuzz's larger sweep: 400
# examples for each of its five commands
settings.register_profile("cli-fuzz", max_examples=400)

_EPS = float(np.finfo(np.float64).eps)


def bessel_series(k: int, x: float, terms: int = 120) -> float:
    """Ascending power series for integer-order J_k, summed with fsum."""
    if x == 0.0:
        return 1.0 if k == 0 else 0.0
    out = []
    term = (x / 2.0) ** k / math.factorial(k)
    q = x * x / 4.0
    for m in range(terms):
        out.append(term)
        term = -term * q / ((m + 1) * (m + 1 + k))
    return math.fsum(out)


def simpson(f, a: float, b: float, n: int = 2048) -> complex:
    """Composite Simpson on n subintervals (n even)."""
    if n % 2:
        n += 1
    h = (b - a) / n
    acc = f(a) + f(b)
    for i in range(1, n):
        acc += f(a + i * h) * (4 if i % 2 else 2)
    return acc * h / 3.0


def _reference_panels(f, lo, hi, folded):
    center = 0.5 * (lo + hi)[:, None]
    half = 0.5 * (hi - lo)[:, None]
    x = center + half * GK41.nodes[None, :]
    if folded:
        flat = x.ravel()
        both = np.asarray(f(np.concatenate([flat, -flat])), dtype=np.complex128)
        pos = both[: flat.size].reshape(x.shape)
        neg = both[flat.size :].reshape(x.shape)
        fx = pos + neg
        raw = np.abs(pos) + np.abs(neg)
    else:
        fx = np.asarray(f(x.ravel()), dtype=np.complex128).reshape(x.shape)
        raw = np.abs(fx)
    if not np.all(np.isfinite(fx.view(np.float64))):
        bad = np.argwhere(~np.isfinite(fx))
        raise QuadratureError(f"integrand returned a nonfinite value near t={x[tuple(bad[0])]}")
    h = half[:, 0]
    kronrod = (fx * GK41.weights).sum(axis=1) * h
    gauss = (fx * GK41.gauss).sum(axis=1) * h
    err = np.abs(kronrod - gauss) + 10.0 * _EPS * (raw * GK41.weights).sum(axis=1) * h
    return kronrod, err


def reference_integrate(f, interval, opts, envelope=None, hint=None) -> QuadResult:
    """One adaptive integration: a uniform pre-split of at least 3 panels (123
    nodes), none wider than 8 pi/hint and at most 1,024 of them, then
    bisection of the worst panels."""
    window = truncate_interval(interval, envelope, opts)
    if window is None:
        return QuadResult(0j, 0.0, (0.0, 0.0), 0)
    tail_err = truncation_error(interval, window, envelope)
    a, b = window
    folded = a == -b and b > 0
    if folded:
        a = 0.0
    n0 = 3
    if hint:
        n0 = int(min(max(3, math.ceil((b - a) * hint / (8.0 * math.pi))), 1024))
    n0 = min(n0, opts.max_subdivisions)
    edges = np.linspace(a, b, n0 + 1)
    values, errs = _reference_panels(f, edges[:-1], edges[1:], folded)
    heap = [(-errs[i], edges[i], edges[i + 1], values[i]) for i in range(n0)]
    heapq.heapify(heap)
    n_panels = n0
    while True:
        total = complex(sum(item[3] for item in heap))
        total_err = -math.fsum(item[0] for item in heap)
        if total_err <= max(opts.abs_tol, opts.rel_tol * abs(total)):
            break
        if n_panels >= opts.max_subdivisions:
            worst = min(heap)
            raise NonconvergenceError(
                f"no convergence after {n_panels} panels "
                f"(total err {total_err:.3g}, worst panel [{worst[1]:.6g}, {worst[2]:.6g}] err {-worst[0]:.3g})",
                (worst[1], worst[2]),
                -worst[0],
            )
        batch = min(max(32, len(heap) // 4), len(heap), opts.max_subdivisions - n_panels)
        popped = [heapq.heappop(heap) for _ in range(batch)]
        lo = np.array([p[1] for p in popped])
        hi = np.array([p[2] for p in popped])
        mid = 0.5 * (lo + hi)
        new_lo = np.concatenate([lo, mid])
        new_hi = np.concatenate([mid, hi])
        values, errs = _reference_panels(f, new_lo, new_hi, folded)
        for i in range(len(new_lo)):
            heapq.heappush(heap, (-errs[i], new_lo[i], new_hi[i], values[i]))
        n_panels += batch
    ordered = sorted(heap, key=lambda item: item[1])
    value = complex(np.sum(np.array([item[3] for item in ordered])))
    err = tail_err - math.fsum(item[0] for item in heap)
    return QuadResult(value, err, (float(window[0]), float(window[1])), n_panels)


def reference_mu_hat(measure, xi: float, eta: float, opts) -> FTValue:
    """The transform at one point: one ``reference_integrate`` per component."""
    curve = measure.curve
    value, err = 0j, 0.0
    lo, hi = math.inf, -math.inf
    for comp in range(curve.n_components):
        interval = curve.domain(comp)
        window = truncate_interval(interval, measure.decay, opts)
        if window is None:
            continue
        dx_sup, dy_sup = curve.deriv_sup(comp, *window)
        hint = math.pi * (abs(xi) * dx_sup + abs(eta) * dy_sup)
        g = measure.density(comp)

        def integrand(t, comp=comp, g=g):
            x, y = curve.xy(comp, t)
            return np.exp(-1j * math.pi * ((x + 0.0) * xi + (y + 0.0) * eta)) * g(t)

        res = reference_integrate(integrand, interval, opts, measure.decay, hint if hint > 0 else None)
        value += res.value
        err += res.err_estimate
        lo, hi = min(lo, res.window[0]), max(hi, res.window[1])
    if lo > hi:
        lo = hi = 0.0
    return FTValue(value, err, (lo, hi))


def ft_rows(stdout: str) -> list:
    """(value, err) of each row that ``huplab ft`` printed, as CSV or JSON; none if it printed nothing."""
    if not stdout:
        return []
    if stdout.startswith("xi,eta,re,im,abs,err\n"):
        rows = [line.split(",") for line in stdout.splitlines()[1:]]
        return [(complex(float(row[2]), float(row[3])), float(row[5])) for row in rows]
    return [(complex(row["re"], row["im"]), row["err"]) for row in json.loads(stdout)["rows"]]


def error_bar_ratio(new: list, old: list) -> float:
    """max |new - old| / (err_new + err_old) over two runs' (value, err) rows; 0 where equal."""
    assert len(new) == len(old)
    worst = 0.0
    for (v, e), (w, f) in zip(new, old):
        if v != w:
            worst = max(worst, abs(v - w) / (e + f) if e + f > 0 else math.inf)
    return worst


@pytest.fixture
def bessel_oracle():
    return bessel_series


@pytest.fixture
def simpson_oracle():
    return simpson
