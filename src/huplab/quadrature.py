"""Adaptive complex-valued integration.

Every panel is scored with a nested Gauss(7)/Kronrod(15) pair; the embedded
difference plus a roundoff floor is the panel error estimate.  Refinement
bisects the worst panels first (a heap keyed on the estimate, ties broken by
position, so results are bit-reproducible).  When the caller supplies an
oscillation rate w, the interval is pre-split before adaptivity begins, which
keeps highly oscillatory phases resolved from the start.  A panel spans at
most pi of phase, or up to 4 pi where a declared decay envelope is so small
that the Gauss-7 error model allows it; long pre-splits are sized block by
block from the local rate.  The envelope only picks the first panels: every
error estimate is the panels' own.

Unbounded intervals are truncated from declared decay envelopes only, never
from sampling: the cutoff T is chosen so the envelope's tail integral is
below abs_tol/10.  Each decay law states its exponent, tail and cutoff in
its class in ``geometry``.  Exactly symmetric intervals [-b, b] are folded
to [0, b] with integrand f(t) + f(-t); an odd integrand therefore vanishes
pointwise and integrates to zero regardless of how wild its phase is.
A caller that knows an integrand to be odd takes it as 0 with :func:`null_err`.

:func:`integrate_rows` runs these stages for many integrands that share
their nodes (the transform at many frequency points); :func:`integrate` is
its batch of one.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .geometry import CompactSupport, Decay

__all__ = [
    "QuadOpts",
    "QuadResult",
    "QuadratureError",
    "NonconvergenceError",
    "MissingEnvelopeError",
    "integrate",
    "integrate_rows",
    "null_err",
    "truncate_interval",
]

_PRESPLIT_CAP = 8192

# 15-point Kronrod extension of 7-point Gauss-Legendre, nodes ascending.
_XK = [
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
]
_WK = [
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
]
_WK_CENTER = 0.209482141084727828012999174891714
_WG = [
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
]
_WG_CENTER = 0.417959183673469387755102040816327

NODES = np.array([-x for x in _XK] + [0.0] + list(reversed(_XK)))
WEIGHTS_K = np.array(_WK + [_WK_CENTER] + list(reversed(_WK)))
WEIGHTS_G = np.zeros(15)
WEIGHTS_G[7] = _WG_CENTER
for _i, _gi in enumerate((1, 3, 5)):
    WEIGHTS_G[_gi] = _WG[_i]
    WEIGHTS_G[14 - _gi] = _WG[_i]

_EPS = float(np.finfo(np.float64).eps)


class QuadratureError(ArithmeticError):
    pass


class NonconvergenceError(QuadratureError):
    """Adaptive refinement exhausted its panel budget."""

    def __init__(self, message: str, worst_panel: Tuple[float, float], worst_err: float):
        super().__init__(message)
        self.worst_panel = worst_panel
        self.worst_err = worst_err


class MissingEnvelopeError(QuadratureError):
    """Unbounded interval with no declared decay envelope."""


@dataclass(frozen=True)
class QuadOpts:
    """Tolerances, panel budget and oscillation hint of an integration.

    ``oscillation_hint`` bounds how fast the integrand's phase turns, in
    radians per unit of the parameter.  :func:`integrate` pre-splits the
    window by it; the transforms (``mu_hat``, ``mu_hat_at_points``) take it
    as a floor on each point's own phase rate, so a large hint only adds
    panels.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 1 << 16
    oscillation_hint: Optional[float] = None

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


@dataclass(frozen=True)
class QuadResult:
    value: complex
    err_estimate: float
    window: Tuple[float, float]
    panels: int


def truncate_interval(
    interval: Tuple[float, float], envelope: Optional[Decay], opts: QuadOpts
) -> Optional[Tuple[float, float]]:
    """Finite integration window for a possibly unbounded interval.

    Returns None when the interval and the envelope's support are disjoint
    (the integral is exactly zero).
    """
    a, b = interval
    if a >= b:
        raise ValueError(f"degenerate interval {interval}")
    unbounded = math.isinf(a) or math.isinf(b)
    if isinstance(envelope, CompactSupport):
        a, b = envelope.clip(a, b)
        return None if a >= b else (a, b)
    if not unbounded:
        return (a, b)
    if envelope is None:
        raise MissingEnvelopeError(f"interval {interval} is unbounded and no decay envelope was declared")
    budget = opts.abs_tol / 10.0
    if math.isinf(a) and math.isinf(b):
        budget /= 2.0
    t = envelope.cutoff(budget)
    lo = a if not math.isinf(a) else -t
    hi = b if not math.isinf(b) else t
    return None if lo >= hi else (lo, hi)


def truncation_error(interval: Tuple[float, float], window: Tuple[float, float], envelope: Optional[Decay]) -> float:
    if envelope is None or isinstance(envelope, CompactSupport):
        return 0.0
    err = 0.0
    if math.isinf(interval[0]):
        err += envelope.tail(abs(window[0]))
    if math.isinf(interval[1]):
        err += envelope.tail(window[1])
    return err


# the integrand values of a batch are built in blocks of at most this many
# complex entries (256 KiB), and one pass over the pre-splits keeps at most
# this many panel sums (24 bytes each, 6 MiB) unless a single row needs more,
# so the memory of a batch does not grow with its number of rows; 2^16-entry
# blocks ran no faster and raised the peak memory of a certificate 2 MB more
_CHUNK = 1 << 14
_PASS_PANELS = 1 << 18
# a pre-split of more than _BLOCKWISE_PANELS panels is sized block by block
# from the oscillation rate and the envelope on each of _RATE_BLOCKS equal blocks
_BLOCKWISE_PANELS = 64
_RATE_BLOCKS = 16
# the roundoff floor of a null integrand is measured on this many equal panels
_NULL_PANELS = 64
# Gauss-7 error on a panel of width h: c7 h^15 |f^(14)|.  For an integrand of
# amplitude A whose phase turns by theta over the panel that is about
# c7 A h theta^14; blocks ask _SAFETY times less of it than their share of
# abs_tol, since g and a curving phase add to the derivative
_C7 = math.factorial(7) ** 4 / (15 * math.factorial(14) ** 3)
_SAFETY = 1e3
_THETA_MAX = 4.0 * math.pi


def _nonfinite(t) -> QuadratureError:
    return QuadratureError(f"integrand returned a nonfinite value near t={t}")


def _score(at_nodes, lo: np.ndarray, hi: np.ndarray, folded: bool, rows: np.ndarray):
    """Kronrod sums of the panels [lo_j, hi_j] for each of ``rows``.

    ``at_nodes`` is evaluated once on the panels' nodes (see
    ``integrate_rows``).  Returns values and error estimates (rows x panels)
    and, by position in ``rows``, the first node of each row whose integrand
    is not finite there.
    """
    # the Kronrod nodes (panels x 15) and half-widths; evaluated at the nodes,
    # then at their mirror images when folded
    h = 0.5 * (hi - lo)
    x = 0.5 * (lo + hi)[:, None] + h[:, None] * NODES
    n = x.size
    values_at = at_nodes(np.concatenate([x.ravel(), -x.ravel()]) if folded else x.ravel())
    shape = (len(rows), len(h))
    values, errs = np.empty(shape, dtype=np.complex128), np.empty(shape)
    bad = {}
    step = max(1, _CHUNK // (n * (2 if folded else 1)))
    for start in range(0, len(rows), step):
        part = slice(start, start + step)
        fs = np.asarray(values_at(rows[part]), dtype=np.complex128)
        if folded:
            fx = fs[:, :n] + fs[:, n:]
            raw = np.abs(fs[:, :n])
            raw += np.abs(fs[:, n:])
        else:
            fx, raw = fs, np.abs(fs)
        del fs
        fx, raw = fx.reshape((-1,) + x.shape), raw.reshape((-1,) + x.shape)
        for k in np.flatnonzero(~np.isfinite(fx).all(axis=(1, 2))):
            bad[start + k] = x[tuple(np.argwhere(~np.isfinite(fx[k]))[0])]
        i15 = (fx * WEIGHTS_K).sum(axis=-1) * h
        i7 = (fx * WEIGHTS_G).sum(axis=-1) * h
        # roundoff floor scales with the unfolded magnitudes
        errs[part] = np.abs(i15 - i7) + 10.0 * _EPS * (raw * WEIGHTS_K).sum(axis=-1) * h
        values[part] = i15
    return values, errs, bad


def _one_row(f: Callable[[np.ndarray], np.ndarray]):
    """The ``at_nodes`` of ``integrate_rows`` for the single integrand ``f``."""

    def at_nodes(t: np.ndarray):
        fs = np.asarray(f(t), dtype=np.complex128)[None]
        return lambda rows: fs

    return at_nodes


def null_err(f: Callable[[np.ndarray], np.ndarray], b: float) -> float:
    """Error estimate of the integral of an odd ``f`` over [-b, b] taken as exactly 0.

    That is the Kronrod error of f(t) + f(-t) on _NULL_PANELS equal panels of
    [0, b]: the roundoff floor 10 eps sum (|f(t)| + |f(-t)|) w h where f is
    odd to the last bit.  A nonfinite ``f`` raises :class:`QuadratureError`
    naming its lowest node there.
    """
    edges = np.linspace(0.0, b, _NULL_PANELS + 1)
    _, errs, bad = _score(_one_row(f), edges[:-1], edges[1:], True, np.zeros(1, dtype=np.int64))
    if bad:
        raise _nonfinite(bad[0])
    return math.fsum(errs[0].tolist())


def _refine(at_nodes, row: int, edges, values, errs, folded: bool, tail_err: float, opts: QuadOpts):
    """Bisect the worst panels of one row's pre-split until its error meets
    tolerance; returns value, error estimate and panel count."""
    heap = [(-errs[i], edges[i], edges[i + 1], values[i]) for i in range(len(values))]
    heapq.heapify(heap)
    n_panels = len(heap)
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
        new_values, new_errs, bad = _score(at_nodes, new_lo, new_hi, folded, np.array([row]))
        if bad:
            raise _nonfinite(bad[0])
        for i in range(len(new_lo)):
            heapq.heappush(heap, (-new_errs[0, i], new_lo[i], new_hi[i], new_values[0, i]))
        n_panels += batch
    ordered = sorted(heap, key=lambda item: item[1])
    value = complex(np.sum(np.array([item[3] for item in ordered])))
    return value, tail_err - math.fsum(item[0] for item in heap), n_panels


def _panel_phase(envelope: Optional[Decay], lo: float, hi: float, folded: bool, width: float, abs_tol: float) -> float:
    """The phase a panel of the block [lo, hi] of a range ``width`` long may span.

    The largest theta in [pi, _THETA_MAX] for which the Gauss-7 error model
    c7 A w theta^14 of the block's w stays within w/width of abs_tol, with
    _SAFETY to spare; A is the envelope's sup on the block, doubled when the
    range is folded.  Without a decaying envelope theta is pi.
    """
    if envelope is None or isinstance(envelope, CompactSupport):
        return math.pi
    near = 0.0 if lo <= 0.0 <= hi else min(abs(lo), abs(hi))
    amplitude = envelope.amplitude * (2.0 if folded else 1.0)
    log_theta = (math.log(abs_tol / (width * _SAFETY * _C7 * amplitude)) + envelope.exponent(near)) / 14.0
    return max(math.pi, math.exp(min(log_theta, math.log(_THETA_MAX))))


def _presplits(rate, a: float, b: float, folded: bool, n0: np.ndarray, envelope, abs_tol: float) -> list:
    """Each row's pre-split of [a, b], as segments (lo, hi, panels).

    The uniform pre-split of ``n0`` panels is sized for the fastest
    oscillation anywhere in the range.  Where it has more than
    _BLOCKWISE_PANELS panels, each of _RATE_BLOCKS equal blocks instead gets
    panels spanning at most theta of phase at the rate on that block, when
    that takes fewer panels in all.  theta is pi, or up to 4 pi where the declared envelope
    is small enough for the Gauss-7 error model (see ``_panel_phase``).
    """
    splits = [((a, b, int(n)),) for n in n0]
    wide = np.flatnonzero(n0 > _BLOCKWISE_PANELS)
    if not wide.size:
        return splits
    blocks = np.linspace(a, b, _RATE_BLOCKS + 1).tolist()
    spans = list(zip(blocks[:-1], blocks[1:]))
    rates = np.array([rate(lo, hi) for lo, hi in spans])
    if folded:  # a block stands for its mirror image too
        rates = np.maximum(rates, [rate(-hi, -lo) for lo, hi in spans])
    theta = np.array([_panel_phase(envelope, lo, hi, folded, b - a, abs_tol) for lo, hi in spans])
    counts = np.maximum(1.0, np.ceil(np.diff(blocks)[:, None] * rates / theta[:, None]))
    for k in wide:
        if counts[:, k].sum() < n0[k]:
            splits[k] = tuple((lo, hi, int(c)) for (lo, hi), c in zip(spans, counts[:, k]))
    return splits


def _finish(at_nodes, row: int, parts: list, folded: bool, tail_err: float, opts: QuadOpts):
    """Value, error estimate and panel count of one row from the panels
    (edges, values, errors) of its pre-split, refined if they miss tolerance."""
    if len(parts) == 1:
        edges, values, errs = parts[0]
    else:
        edges = np.concatenate([p[0][:-1] for p in parts] + [parts[-1][0][-1:]])
        values = np.concatenate([p[1] for p in parts])
        errs = np.concatenate([p[2] for p in parts])
    total, total_err = np.sum(values), math.fsum(errs.tolist())
    if total_err <= max(opts.abs_tol, opts.rel_tol * abs(total)):
        return total, tail_err + total_err, len(values)
    return _refine(at_nodes, row, edges, values, errs, folded, tail_err, opts)


def integrate_rows(
    at_nodes: Callable[[np.ndarray], Callable[[np.ndarray, slice], np.ndarray]],
    rate: Callable[[float, float], np.ndarray],
    n_rows: int,
    window: Tuple[float, float],
    tail_err: float,
    opts: QuadOpts,
    envelope: Optional[Decay] = None,
):
    """Integrate ``n_rows`` integrands that share their nodes over one finite window.

    ``at_nodes(t)`` evaluates what the integrands share at the parameters
    ``t`` and returns a function ``values(rows)`` from an array of row
    indices to the rows' values at ``t`` (rows x len(t)); those values are
    built for at most _CHUNK entries at a time.
    ``rate(lo, hi)`` bounds each row's oscillation rate on [lo, hi], and
    ``envelope`` is the decay the integrands declare, if any.

    A row whose rate over the whole window asks for at most 64 panels of pi
    phase each (at least 8, at most ``max_subdivisions``) gets that uniform
    pre-split; rows that share a pre-split share its nodes.  A longer one is
    sized block by block from ``rate`` and ``envelope``, each panel spanning
    pi of phase, or up to 4 pi where the envelope is small (see
    ``_presplits``), unless the uniform pre-split (at most ``_PRESPLIT_CAP``
    panels) is shorter.  The envelope only picks the first panels; every
    error estimate comes from the panels' Kronrod sums, and rows that miss
    tolerance are refined alone by bisecting their worst panels first.
    Pre-splits are evaluated in passes that keep at most _PASS_PANELS panel
    sums.

    Returns each row's value, error estimate (``tail_err`` included) and
    panel count, and the first failure as (row, QuadratureError), or None.
    It returns as soon as a row fails: that row's entries and all later ones
    are meaningless.
    """
    a, b = window
    folded = a == -b and b > 0
    if folded:
        a = 0.0
    hint = rate(*window)
    n0 = np.minimum(np.maximum(8.0, np.ceil((b - a) * hint / math.pi)), _PRESPLIT_CAP)
    n0 = np.minimum(np.where(hint > 0, n0, 8.0), opts.max_subdivisions).astype(np.int64)
    value, err = np.zeros(n_rows, dtype=np.complex128), np.full(n_rows, tail_err)
    panels = np.zeros(n_rows, dtype=np.int64)
    splits = _presplits(rate, a, b, folded, n0, envelope, opts.abs_tol)
    sizes = [sum(segment[2] for segment in split) for split in splits]
    start = 0
    while start < n_rows:
        stop, held = start + 1, sizes[start]
        while stop < n_rows and held + sizes[stop] <= _PASS_PANELS:
            held += sizes[stop]
            stop += 1
        rows_of: dict = {}
        for r, split in zip(range(start, stop), splits[start:stop]):
            for segment in split:
                rows_of.setdefault(segment, []).append(r)
        pieces: dict = {r: {} for r in range(start, stop)}
        for (lo, hi, n), rows in rows_of.items():
            seg_edges = np.linspace(lo, hi, n + 1)
            vals, errs, bad = _score(at_nodes, seg_edges[:-1], seg_edges[1:], folded, np.array(rows))
            for k, r in enumerate(rows):
                pieces[r][lo, hi, n] = (seg_edges, vals[k], errs[k], bad.get(k))
        for r, split in zip(range(start, stop), splits[start:stop]):
            parts = [pieces[r][segment] for segment in split]
            bad = [p[3] for p in parts if p[3] is not None]
            try:
                if bad:
                    raise _nonfinite(bad[0])
                value[r], err[r], panels[r] = _finish(at_nodes, r, [p[:3] for p in parts], folded, tail_err, opts)
            except QuadratureError as exc:
                return value, err, panels, (r, exc)
        start = stop
    return value, err, panels, None


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    interval: Tuple[float, float],
    opts: QuadOpts = QuadOpts(),
    envelope: Optional[Decay] = None,
) -> QuadResult:
    """Integrate a complex-valued integrand over a possibly unbounded interval.

    ``f`` receives a float64 sample array and must return matching complex
    values.  The result satisfies ``|value - true| <= err_estimate`` on
    smooth integrands, with ``err_estimate`` driven below
    ``max(abs_tol, rel_tol*|value|)`` or :class:`NonconvergenceError` raised.
    This is :func:`integrate_rows` for one row, with ``oscillation_hint`` as
    its rate.
    """
    window = truncate_interval(interval, envelope, opts)
    if window is None:
        return QuadResult(0j, 0.0, (0.0, 0.0), 0)
    hint = np.array([opts.oscillation_hint or 0.0])
    tail_err = truncation_error(interval, window, envelope)
    value, err, panels, failure = integrate_rows(_one_row(f), lambda lo, hi: hint, 1, window, tail_err, opts, envelope)
    if failure:
        raise failure[1]
    return QuadResult(complex(value[0]), float(err[0]), (float(window[0]), float(window[1])), int(panels[0]))
