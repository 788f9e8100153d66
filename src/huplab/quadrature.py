"""Adaptive complex-valued integration.

Every panel is scored with one :class:`Rule`, ``GK41``, the 41-point
Kronrod extension of the 20-point Gauss rule (QUADPACK's dqk41: Piessens
et al., *QUADPACK*, 1983; its nodes derived as in Laurie, "Calculation of
Gauss-Kronrod quadrature rules", Math. Comp. 66, 1997): its ``weights``
give the panel's value, and their difference from its embedded ``gauss``
weights plus a roundoff floor the panel error estimate.  Refinement
bisects the worst panels first (ties broken by position, so results are
bit-reproducible).  When the caller supplies an oscillation rate w, the
interval is pre-split before adaptivity begins, which keeps highly
oscillatory phases resolved from the start.  A panel spans at most
``GK41.phase`` of phase, or up to ``GK41.phase_max`` where a declared decay
envelope is so small that the rule's Gauss error model allows it; long
pre-splits are sized block by block from the local rate.  The envelope only
picks the first panels: every error estimate is the panels' own.

Unbounded intervals are truncated from declared decay envelopes only, never
from sampling: the window is the envelope's ``window(a, b, abs_tol/10)``,
whose clipped tails weigh below abs_tol/10.  Each envelope class in
``geometry`` states that rule for itself, with the tail, amplitude and
exponent read here; ``Measure.check_envelope`` samples the same rule's
widest window.  Exactly symmetric intervals [-b, b] are folded
to [0, b] with integrand f(t) + f(-t); an odd integrand therefore vanishes
pointwise and integrates to zero regardless of how wild its phase is.

:func:`integrate_rows` integrates the rows e^{-i pi (xi x(t) + eta y(t))} g(t)
of a :class:`Rows`, one per frequency point on one curve; :func:`integrate`
is its batch of one, a row at frequency 0 on no curve.  After truncation it
settles each row once, in the first of these stages that takes it:

1. zero density: where g is 0 by its expression tree, every row is 0;
2. parity-null: on a folded window, a row whose parities show it to be odd
   is 0, with the roundoff floor of :func:`null_err`;
3. trapezoid: on a window that is one whole period of a closed curve, a row
   whose density is a trigonometric polynomial (``expr.band``) is the
   trapezoid sum on N equispaced nodes, which converges geometrically for a
   periodic integrand analytic in a strip, and N is chosen for each row in
   advance from a bound on that error (Trefethen and Weideman, "The
   exponentially convergent trapezoidal rule", SIAM Review 56, 2014); a row
   that needs too many nodes, or misses tolerance, goes on to
4. panels: the rest are summed panel by panel with array operations, from
   one table of panel counts (spans x rows): the rows with the same count
   on a span share its nodes.  A row that misses tolerance or is not finite
   is refined alone, from its own column of that table.

A row's bits do not depend on the other rows of its batch, unless the rows
fill a grid of frequencies and share one pre-split, the fastest row's
column, the phase factored as e^{-i pi xi x} e^{-i pi eta y} and scored for
all rows by one matmul per block of panels: then they depend on the set of
rows in the batch, but not on their order.  On a folded window a factor of
known parity is built at the nodes t >= 0 only, and an even factor lets the
fold be summed before the matmul, over half the nodes.  Along an
equispaced frequency axis, or one on an equispaced lattice with holes, a
factor is built by recurrence, directly at every _ANCHOR-th lattice value
and as the value before times e^{-i pi delta x} between; its drift from the
direct exponentials is bounded, added to every row's error, and allowed
only where that term is at most abs_tol/10.  Elsewhere each entry is one
exponential.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from .expr import EVEN, ODD, UNKNOWN, Band
from .geometry import Decay

__all__ = [
    "QuadOpts",
    "QuadResult",
    "QuadratureError",
    "NonconvergenceError",
    "MissingEnvelopeError",
    "Rows",
    "integrate",
    "integrate_rows",
    "null_err",
    "truncate_interval",
]

# a uniform pre-split takes at most this many panels, 8192 pi of phase
_PRESPLIT_CAP = 1024


class Rule(NamedTuple):
    """A Gauss rule on [-1, 1] and the nodes that extend it."""

    nodes: np.ndarray  # ascending
    weights: np.ndarray  # of the extended rule
    gauss: np.ndarray  # of the embedded Gauss rule, 0 at the nodes it lacks
    error_constant: float  # c: the Gauss rule's error on a panel of width h is c h^(order + 1) |f^(order)|
    order: int  # the Gauss rule is exact below this degree
    phase: float  # the phase a pre-split panel spans
    phase_max: float  # the most it spans where a decaying envelope allows (see ``_panel_phase``)


def _mirror(left, center: float, odd: bool = False) -> np.ndarray:
    """A rule's values at all its nodes from those at the nodes < 0, ascending, and at 0."""
    left = np.array(left)
    return np.concatenate([left, [center], (-left if odd else left)[::-1]])


# the 41-point Kronrod extension of the 20-point Gauss-Legendre rule (QUADPACK's
# dqk41), derived at 120 digits: the zeros of P_20 and of the Stieltjes
# polynomial E_21, and the weights that integrate P_0, ..., P_40 exactly
GK41 = Rule(
    nodes=_mirror(
        [-0.998859031588277663838315576545863, -0.9931285991850949247861223884713203,
         -0.9815078774502502591933429947202169, -0.9639719272779137912676661311972772,
         -0.9408226338317547535199827222124434, -0.9122344282513259058677524412032981,
         -0.8782768112522819760774429951130785, -0.8391169718222188233945290617015207,
         -0.7950414288375511983506388332727879, -0.7463319064601507926143050703556416,
         -0.6932376563347513848054907118459315, -0.6360536807265150254528366962262859,
         -0.5751404468197103153429460365864251, -0.510867001950827098004364050955251,
         -0.4435931752387251031999922134926401, -0.3737060887154195606725481770249272,
         -0.3016278681149130043205553568585923, -0.2277858511416450780804961953685746,
         -0.1526054652409226755052202410226775, -0.07652652113349733375464040939883821],
        center=0.0,
        odd=True,
    ),
    weights=_mirror(
        [0.003073583718520531501218293246030987, 0.008600269855642942198661787950102347,
         0.01462616925697125298378796030886836, 0.02038837346126652359801023143275471,
         0.02588213360495115883450506709615314, 0.03128730677703279895854311932380074,
         0.03660016975820079803055724070721101, 0.04166887332797368626378830593689474,
         0.04643482186749767472023188092610752, 0.05094457392372869193270767005034495,
         0.05519510534828599474483237241977733, 0.05911140088063957237496722064859422,
         0.06265323755478116802587012217425498, 0.06583459713361842211156355696939794,
         0.0686486729285216193456234118853678, 0.07105442355344406830579036172321017,
         0.07303069033278666749518941765891311, 0.07458287540049918898658141836248753,
         0.07570449768455667465954277537661656, 0.076377867672080736705502835038061],
        0.07660071191799965644504990153010174,
    ),
    gauss=_mirror(
        [0.0, 0.01761400713915211831186196235185282, 0.0, 0.04060142980038694133103995227493211,
         0.0, 0.06267204833410906356950653518704161, 0.0, 0.08327674157670474872475814322204621,
         0.0, 0.1019301198172404350367501354803499, 0.0, 0.1181945319615184173123773777113823,
         0.0, 0.1316886384491766268984944997481631, 0.0, 0.1420961093183820513292983250671649,
         0.0, 0.1491729864726037467878287370019694, 0.0, 0.1527533871307258506980843319550976],
        0.0,
    ),
    error_constant=math.factorial(20) ** 4 / (41 * math.factorial(40) ** 3),
    order=40,
    phase=8.0 * math.pi,
    phase_max=32.0 * math.pi,
)

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
    panels, or trapezoid nodes.  It is None or finite and >= 0.
    ``max_subdivisions`` caps a row's panels, 41 nodes each.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 1 << 14
    oscillation_hint: Optional[float] = None

    def __post_init__(self):
        if not (0 < self.abs_tol < math.inf and 0 < self.rel_tol < math.inf):
            raise ValueError("tolerances must be finite and positive")
        if not isinstance(self.max_subdivisions, numbers.Integral) or self.max_subdivisions < 1:
            raise ValueError(f"max_subdivisions must be an integer >= 1, got {self.max_subdivisions!r}")
        if self.oscillation_hint is not None and not 0 <= self.oscillation_hint < math.inf:
            raise ValueError(f"oscillation_hint must be None or finite and >= 0, got {self.oscillation_hint}")


@dataclass(frozen=True)
class QuadResult:
    value: complex
    err_estimate: float
    window: Tuple[float, float]
    panels: int


class Rows(NamedTuple):
    """The integrands e^{-i pi (xi_r x(t) + eta_r y(t))} g(t) of :func:`integrate_rows`, one row per point.

    ``xi`` and ``eta`` are the frequency points.  ``xy(t)`` gives the curve
    (x, y) at the flat nodes ``t``, or None for no curve, where the one row
    (at frequency 0) is g itself.  ``g(t)`` is the density at the nodes, ``deriv_sup(lo, hi)``
    bounds |x'| and |y'| on [lo, hi], and ``parity`` gives x, y and g as
    ``expr`` parities in t, read only on a folded window.  ``band`` is g's
    ``expr.band``, or None where g is not known to be a trigonometric
    polynomial.  On a closed curve ``strip(a)`` bounds |Im (x, y)(t + ia)|
    on arrays of a (the curve kind's ``strip``); elsewhere it is None.
    :func:`integrate_rows` reads the strip only where the window is the
    whole interval, one period, and takes a band of norm 0 as g = 0.
    """

    xi: np.ndarray
    eta: np.ndarray
    xy: Callable[[np.ndarray], Optional[Tuple[np.ndarray, np.ndarray]]]
    g: Callable[[np.ndarray], np.ndarray]
    deriv_sup: Callable[[float, float], Tuple[float, float]]
    parity: Tuple[int, int, int]
    band: Optional[Band] = None
    strip: Optional[Callable[[np.ndarray], np.ndarray]] = None


def truncate_interval(
    interval: Tuple[float, float], envelope: Optional[Decay], opts: QuadOpts
) -> Optional[Tuple[float, float]]:
    """Finite integration window for an interval, bounded or not: ``envelope.window(a, b, abs_tol / 10)``.

    A compact support clips the interval to itself; a decay law clips each
    end that lies past its cutoff, bounded or not, so that a long domain is
    integrated where its density lives and the tails it leaves out sum to
    at most abs_tol / 10.  Returns None when the interval and the support
    are disjoint (the integral is exactly zero) or the interval lies wholly
    past the cutoff.  With no envelope the interval must be bounded, and is
    its own window.
    """
    a, b = interval
    if a >= b:
        raise ValueError(f"degenerate interval {interval}")
    if envelope is None:
        if math.isinf(a) or math.isinf(b):
            raise MissingEnvelopeError(f"interval {interval} is unbounded and no decay envelope was declared")
        return (a, b)
    return envelope.window(a, b, opts.abs_tol / 10.0)


def truncation_error(
    interval: Tuple[float, float], window: Optional[Tuple[float, float]], envelope: Optional[Decay]
) -> float:
    """The envelope's bound on the tails of ``interval`` that ``window`` clipped (None: all of it); 0 for a support."""
    if envelope is None:
        return 0.0
    if window is None:  # the interval lies wholly past the cutoff, on one side of 0
        return envelope.tail(min(abs(interval[0]), abs(interval[1])))
    lo_tail = envelope.tail(abs(window[0])) if interval[0] < window[0] else 0.0
    hi_tail = envelope.tail(window[1]) if window[1] < interval[1] else 0.0
    return lo_tail + hi_tail


# the integrand values of a batch are built and scored in blocks of at most
# this many complex entries (256 KiB) unless one row needs more, so the memory
# of a batch does not grow with its number of rows; 2^16-entry blocks ran no
# faster and raised the peak memory of a certificate 2 MB more
_CHUNK = 1 << 14
# a pre-split takes the fewest panels that hold at least _NODES_MIN nodes: 3
_NODES_MIN = 120
# a pre-split of more panels than _RATE_BLOCKS, one a block, is sized block by
# block from the oscillation rate and the envelope on each of as many equal blocks
_RATE_BLOCKS = 16
# the roundoff floor of a null integrand is measured on this many equal panels
_NULL_PANELS = 8
# a trapezoid row takes a multiple of _PERIODIC_STEP nodes, at most
# _PERIODIC_NODES_MAX, so that one row's values fit one block of _CHUNK entries;
# a row that needs more takes panels.  _TINY floors the frequency radius,
# so that the strip half-width a stays finite at frequency 0
_PERIODIC_STEP = 16
_PERIODIC_NODES_MAX = 1 << 14
_TINY = 1e-300
# on a shared grid, a factor along an equispaced frequency axis is built
# directly at every _ANCHOR-th value and by recurrence between (``_powers``);
# an axis is equispaced within _EQUISPACED_ULPS ulps of its largest |value|
_ANCHOR = 16
_EQUISPACED_ULPS = 4
# for an integrand of amplitude A whose phase turns by theta over a panel of
# width h, the rule's Gauss error model is about c A h theta^order.  It bounds
# the rule's |K - G| on a plane wave with room to spare, 9 times at 12 pi, 52
# at 16 pi and 580 at 20 pi, so blocks ask _SLACK times their share of abs_tol
# of it: on the test grids no row then misses tolerance from 1e-6 to 1e-13
_SLACK = 1e2


def _nodes(lo: np.ndarray, hi: np.ndarray, folded: bool):
    """The nodes of the panels [lo_j, hi_j] and the panels' half-widths.

    The nodes are panels x k for the k ``GK41.nodes``, or panels x 2k where
    ``folded``: each panel's k nodes, then their mirror images.
    """
    h = 0.5 * (hi - lo)
    x = 0.5 * (lo + hi)[:, None] + h[:, None] * GK41.nodes
    return (np.concatenate([x, -x], axis=1) if folded else x), h


def _score(fs, h: np.ndarray, folded: bool):
    """Kronrod values and error estimates (rows x panels) of the integrand values ``fs``.

    ``fs`` holds each row's values at the nodes of ``_nodes`` for the panels
    of half-widths ``h``.  What the fold and sums make of a nonfinite value
    shows as a nonfinite value and error; the caller silences numpy's warnings.
    """
    k = len(GK41.nodes)
    fs = np.asarray(fs, dtype=np.complex128).reshape(len(fs), h.size, -1)
    if folded:
        fx = fs[..., :k] + fs[..., k:]
        raw = np.abs(fs[..., :k])
        raw += np.abs(fs[..., k:])
    else:
        fx, raw = fs, np.abs(fs)
    kronrod = (fx * GK41.weights).sum(axis=-1) * h
    gauss = (fx * GK41.gauss).sum(axis=-1) * h
    # roundoff floor scales with the unfolded magnitudes
    return kronrod, np.abs(kronrod - gauss) + 10.0 * _EPS * (raw * GK41.weights).sum(axis=-1) * h


def _at(rows: Rows, t: np.ndarray):
    """x, y and g at the flat nodes ``t``, which all rows share; on no curve None, None and the one row."""
    xy = rows.xy(t)
    return (None, None, np.asarray(rows.g(t), dtype=np.complex128)[None]) if xy is None else (*xy, rows.g(t))


def _values(rows: Rows, r: np.ndarray, x, y, g) -> np.ndarray:
    """The rows ``r``'s values (rows x nodes) from what ``_at`` gives at the nodes."""
    if x is None:
        return g
    # in place: the same operations as e^{-i pi (x xi + y eta)} g, with fewer temporaries
    phase = np.multiply.outer(rows.xi[r], x)
    phase += np.multiply.outer(rows.eta[r], y)
    z = np.multiply(-1j * math.pi, phase)
    np.exp(z, out=z)
    z *= g
    return z


def _score_row(f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray, folded: bool):
    """Kronrod values and error estimates of the panels [lo_j, hi_j] for the one row ``f``.

    ``f(t)`` gives the row's values at the flat nodes ``t``.  A nonfinite
    integrand, or fold f(t) + f(-t), raises :class:`QuadratureError` naming
    its lowest node.
    """
    t, h = _nodes(lo, hi, folded)
    k = len(GK41.nodes)
    with np.errstate(invalid="ignore", over="ignore"):
        fs = np.asarray(f(t.ravel()), dtype=np.complex128).reshape(1, -1)
        fx = fs.reshape(t.shape)
        fx = fx[:, :k] + fx[:, k:] if folded else fx
        bad = np.flatnonzero(~np.isfinite(fx))
        if bad.size:
            raise QuadratureError(f"integrand returned a nonfinite value near t={t[:, :k].flat[bad[0]]}")
        values, errs = _score(fs, h, folded)
    return values[0], errs[0]


def null_err(f: Callable[[np.ndarray], np.ndarray], b: float) -> float:
    """Error estimate of the integral of an odd ``f`` over [-b, b] taken as exactly 0.

    That is the Kronrod error of f(t) + f(-t) on _NULL_PANELS equal panels of
    [0, b]: the roundoff floor 10 eps sum (|f(t)| + |f(-t)|) w h where f is
    odd to the last bit.  A nonfinite ``f`` raises :class:`QuadratureError`
    naming its lowest node there.
    """
    edges = np.linspace(0.0, b, _NULL_PANELS + 1)
    return math.fsum(_score_row(f, edges[:-1], edges[1:], True)[1].tolist())


def _edges(spans, column) -> np.ndarray:
    """The panel edges of a pre-split: ``column[s]`` equal panels on each span s where that is not 0."""
    used = np.flatnonzero(column).tolist()
    return np.concatenate([np.linspace(*spans[s], column[s] + 1)[:-1] for s in used] + [spans[used[-1]][1:]])


def _refine(rows: Rows, r: int, edges: np.ndarray, folded: bool, tail_err: float, opts: QuadOpts):
    """Score row ``r`` alone on the panels between ``edges``, then bisect its worst panels
    until its error meets tolerance; returns value, error estimate and panel count."""
    def row(t: np.ndarray) -> np.ndarray:
        return _values(rows, np.array([r]), *_at(rows, t))

    # the panels in t order: [lo_j, hi_j], their values and error estimates
    lo, hi = edges[:-1], edges[1:]
    values, errs = _score_row(row, lo, hi, folded)
    while True:
        total, total_err = complex(np.sum(values)), math.fsum(errs.tolist())
        if total_err <= max(opts.abs_tol, opts.rel_tol * abs(total)):
            return total, tail_err + total_err, lo.size
        # the largest error first, and the lowest panel first among equal errors
        worst = np.lexsort((lo, -errs))
        if lo.size >= opts.max_subdivisions:
            w = worst[0]
            message = f"(total err {total_err:.3g}, worst panel [{lo[w]:.6g}, {hi[w]:.6g}] err {errs[w]:.3g})"
            raise NonconvergenceError(f"no convergence after {lo.size} panels {message}", (lo[w], hi[w]), errs[w])
        i = worst[: min(max(32, lo.size // 4), opts.max_subdivisions - lo.size)]
        mid = 0.5 * (lo[i] + hi[i])
        new_values, new_errs = _score_row(row, np.concatenate([lo[i], mid]), np.concatenate([mid, hi[i]]), folded)
        # a bisected panel keeps its place as its left half, and its right half follows it
        values[i], errs[i] = new_values[: i.size], new_errs[: i.size]
        values, errs = np.insert(values, i + 1, new_values[i.size :]), np.insert(errs, i + 1, new_errs[i.size :])
        lo, hi = np.insert(lo, i + 1, mid), np.insert(hi, i, mid)


def _periodic_nodes(rows: Rows, x: np.ndarray, tol: float):
    """Each row's trapezoid node count N and the bound on its error, or N = 0 past _PERIODIC_NODES_MAX.

    g is a trigonometric polynomial of degree B with sum |c_k| <= L
    (``rows.band``) and the phase grows by at most e^{x s(a)} off the real
    axis (s is ``rows.strip``), so on the strip |Im t| < a the row is at most
    M = L e^{x s(a) + B a}, and the N-node trapezoid sum of one period is
    within 4 pi M / (e^{aN} - 1) of the integral (Trefethen and Weideman,
    SIAM Review 56, 2014, Thm 3.2).  N is the smallest multiple of
    _PERIODIC_STEP above 2B, and above B + x, where that bound, at
    a = arccosh((N - B) / x), is at most ``tol``; it is reckoned in logs.
    """
    degree, norm = rows.band
    nodes, bound = np.zeros(x.size, dtype=np.int64), np.full(x.size, math.inf)
    if 2 * degree >= _PERIODIC_NODES_MAX:
        return nodes, bound
    # below N = B + x the bound is infinite
    n = np.maximum(2 * degree // _PERIODIC_STEP, np.floor((degree + x) / _PERIODIC_STEP)) + 1.0
    n *= _PERIODIC_STEP
    log_scale, log_tol = math.log(4.0 * math.pi * norm) if norm > 0 else -math.inf, math.log(tol)
    pending = np.flatnonzero(n <= _PERIODIC_NODES_MAX)
    while pending.size:
        m, xr = n[pending], x[pending]
        a = np.arccosh(np.maximum(1.0, (m - degree) / xr))
        log_bound = log_scale + xr * rows.strip(a) + degree * a - a * m - np.log(-np.expm1(-a * m))
        met = log_bound <= log_tol  # a NaN bound is not met
        nodes[pending[met]], bound[pending[met]] = m[met], np.exp(log_bound[met])
        pending = pending[~met]
        n[pending] += _PERIODIC_STEP
        pending = pending[n[pending] <= _PERIODIC_NODES_MAX]
    return nodes, bound


def _periodic_rows(rows: Rows, window: Tuple[float, float], opts: QuadOpts):
    """Each row's trapezoid value and error over the window, one whole period, and its node count N.

    N is ``_periodic_nodes``' at the rate x = pi |(xi, eta)|, or
    ``oscillation_hint`` where larger, and tolerance abs_tol/10.  The error
    is that bound plus (10 + theta) eps sum |g| w, where w is the node
    weight and theta = pi (|xi| max |x| + |eta| max |y|) over the nodes
    bounds the phase argument, whose rounding the sum carries too.  The
    rows with the same N share the nodes, and their values are built for at
    most _CHUNK entries at a time.  A row past _PERIODIC_NODES_MAX has
    N = 0, value -0 and error inf.
    """
    x = np.maximum(math.pi * np.hypot(rows.xi, rows.eta), max(opts.oscillation_hint or 0.0, _TINY))
    nodes, err = _periodic_nodes(rows, x, opts.abs_tol / 10.0)
    value = np.full(nodes.size, complex(-0.0, -0.0))
    lo, hi = window
    for m in np.unique(nodes[nodes > 0]).tolist():
        w = (hi - lo) / m
        cx, cy, g = _at(rows, np.linspace(lo, hi, m + 1)[:-1])
        members = np.flatnonzero(nodes == m)
        step = max(1, _CHUNK // m)
        for start in range(0, members.size, step):
            part = members[start : start + step]
            value[part] = _values(rows, part, cx, cy, g).sum(axis=1) * w
        theta = math.pi * (np.abs(rows.xi[members]) * np.abs(cx).max() + np.abs(rows.eta[members]) * np.abs(cy).max())
        err[members] += (10.0 + theta) * _EPS * w * math.fsum(np.abs(g).tolist())
    return value, err, nodes


def _panel_phase(envelope: Optional[Decay], lo: float, hi: float, folded: bool, width: float, abs_tol: float) -> float:
    """The phase a panel of the block [lo, hi] of a range ``width`` long may span.

    The largest theta in [``GK41.phase``, ``GK41.phase_max``] for which the
    Gauss error model c A w theta^order of the block's w stays within
    _SLACK w/width of abs_tol; c is ``GK41.error_constant``
    and A the envelope's sup on the block, doubled when the range is folded.
    Without an envelope, or with a compact support, whose amplitude is inf,
    theta is ``GK41.phase``.
    """
    if envelope is None:
        return GK41.phase
    near = 0.0 if lo <= 0.0 <= hi else min(abs(lo), abs(hi))
    amplitude = envelope.amplitude * (2.0 if folded else 1.0)
    # in logs: c A underflows where the amplitude is tiny
    log_bound = math.log(_SLACK * abs_tol / width) - math.log(GK41.error_constant) - math.log(amplitude)
    log_bound += envelope.exponent(near)
    return max(GK41.phase, math.exp(min(log_bound / GK41.order, math.log(GK41.phase_max))))


def _presplits(rate, window: Tuple[float, float], folded: bool, envelope, opts: QuadOpts):
    """The pre-splits of the window, or of its half t >= 0 where ``folded``, as a table of panel counts.

    Returns the spans, the counts (spans x rows) and the fastest row's
    column of counts; a row's pre-split is ``counts[s]`` equal panels on
    each span s, in t order, and none where that is 0 (see ``_edges``).
    Span 0 is the whole range; where some row's n0 exceeds _RATE_BLOCKS,
    spans 1 to _RATE_BLOCKS are its equal blocks.  A row's rate over the
    whole window asks for n0 panels of ``GK41.phase`` each (at least the
    panels of _NODES_MIN nodes, at most _PRESPLIT_CAP and
    ``max_subdivisions``) on span 0: the uniform pre-split sized for the
    fastest oscillation anywhere in the range.  Where n0 exceeds
    _RATE_BLOCKS, so that a pre-split of at least a panel a block may take
    fewer, each block instead gets panels spanning at most theta of phase
    at the row's rate on that block, when that takes fewer panels in all.
    theta is ``GK41.phase``, or up to ``GK41.phase_max`` where the declared
    envelope is small enough for the rule's Gauss error model (see
    ``_panel_phase``).  The fastest row's column is the same sizing at the
    largest rate: on each block the largest count of any row (ceil is
    monotone), or the largest n0 on span 0 where that is no more panels.
    """
    a, b = (0.0 if folded else window[0]), window[1]
    hint, least = rate(*window), -(-_NODES_MIN // len(GK41.nodes))
    n0 = np.minimum(np.maximum(least, np.ceil((b - a) * hint / GK41.phase)), _PRESPLIT_CAP)
    n0 = np.minimum(np.where(hint > 0, n0, least), opts.max_subdivisions).astype(np.int64)
    spans, counts, peak = [(a, b)], n0[None], None
    wide = n0 > _RATE_BLOCKS
    if wide.any():
        blocks = np.linspace(a, b, _RATE_BLOCKS + 1).tolist()
        spans += zip(blocks[:-1], blocks[1:])
        rates = np.array([rate(lo, hi) for lo, hi in spans[1:]])
        if folded:  # a block stands for its mirror image too
            rates = np.maximum(rates, [rate(-hi, -lo) for lo, hi in spans[1:]])
        theta = np.array([_panel_phase(envelope, lo, hi, folded, b - a, opts.abs_tol) for lo, hi in spans[1:]])
        # floats until a row is chosen block-wise: a rate that overflows leaves inf or NaN here
        sizes = np.maximum(1.0, np.ceil(np.diff(blocks)[:, None] * rates / theta[:, None]))
        blockwise = wide & (sizes.sum(axis=0) < n0)
        counts = np.concatenate([np.where(blockwise, 0, n0)[None], np.where(blockwise, sizes, 0)]).astype(np.int64)
        peak = sizes.max(axis=1)
    fastest = np.zeros(len(spans), dtype=np.int64)
    if peak is not None and peak.sum() < n0.max():  # a NaN peak keeps the uniform column
        fastest[1:] = peak
    else:
        fastest[0] = n0.max()
    return spans, counts, fastest


def _powers(s: np.ndarray, axis, c: np.ndarray) -> np.ndarray:
    """e^{-i pi s_j c} (#s x panels x k) at the coordinates c along the axis s on its lattice (see ``_step``).

    The powers are built over the whole lattice, its holes included: every
    _ANCHOR-th entry directly, bit for bit as ``_factors`` builds it, and
    each entry between as the one before times R = e^{-i pi delta c}, so a
    lattice of L values takes ceil(L / _ANCHOR) + 1 exponentials a node,
    not #s.  Each power is one contiguous panels x k slab; the holes' are
    dropped.
    """
    delta, _, lattice, j = axis
    out = np.empty(lattice.shape + c.shape, dtype=np.complex128)
    anchors = out[::_ANCHOR]
    np.multiply(-1j * math.pi, lattice[::_ANCHOR, None, None] * c, out=anchors)
    np.exp(anchors, out=anchors)
    ratio = np.multiply(-1j * math.pi, delta * c)
    np.exp(ratio, out=ratio)
    for m in range(1, min(_ANCHOR, lattice.size)):
        np.multiply(out[m - 1 : -1 : _ANCHOR], ratio, out=out[m::_ANCHOR])
    return out if lattice.size == s.size else out[j]


def _factors(xs: np.ndarray, cu: np.ndarray, ys: np.ndarray, cv: np.ndarray, steps):
    """The u = e^{-i pi xs x} (panels x #xs x k) and v = e^{-i pi ys y} (panels x k x #ys) at x = cu and y = cv.

    An axis whose entry of ``steps`` is its ``_step`` is built by
    ``_powers`` and given as a transposed view of its powers; an axis whose
    entry is None takes one exponential an entry.
    """
    sx, sy = steps
    if sx is None:
        u = np.multiply(-1j * math.pi, xs[:, None] * cu[:, None, :])
        np.exp(u, out=u)
    else:
        u = _powers(xs, sx, cu).transpose(1, 0, 2)
    if sy is None:
        v = np.multiply(-1j * math.pi, cv[:, :, None] * ys)
        np.exp(v, out=v)
    else:
        v = _powers(ys, sy, cv).transpose(1, 2, 0)
    return u, v


def _halves(f: np.ndarray, parity: int, axis: int):
    """A factor at the nodes t >= 0 and at their mirror images, from what ``_factors`` built."""
    if parity == EVEN:
        return f, f
    if parity == ODD:
        return f, f.conj()
    return np.split(f, 2, axis=axis)


def _distinct(v: np.ndarray):
    """The sorted distinct values of ``v`` and each entry's index among them."""
    s = np.sort(v)
    keep = np.ones(s.size, dtype=bool)
    keep[1:] = s[1:] != s[:-1]
    return s[keep], np.searchsorted(s[keep], v)


def _step(s: np.ndarray):
    """(delta, gap, lattice, j) where the sorted distinct values s lie on an equispaced lattice, else None.

    The lattice is s_0 + i delta for i = 0, ..., L - 1, from s_0 to s_last:
    L - 1 is (s_last - s_0) over the least difference of successive values,
    rounded, and delta is (s_last - s_0) / (L - 1).  j is each value's
    index on it, and the lattice holds s_j there and s_0 + i delta at its
    holes, where values are missing; L is at most 2 #s.  gap is the largest
    |s_j - (l_a + (j - a) delta)| over the values, with a the multiple of
    _ANCHOR at or below j and l_a the lattice's value there: how far
    ``_powers`` puts its s_j.  The axis is equispaced where gap is at most
    _EQUISPACED_ULPS ulps of max |s| and #s >= 3; with two values the
    recurrence would build as many exponentials as it saves.
    """
    if s.size < 3:
        return None
    span = s[-1] - s[0]
    n = np.rint(span / np.diff(s).min())
    if not n < 2 * s.size:  # NaN included
        return None
    delta = span / int(n)
    j = np.rint((s - s[0]) / delta).astype(np.int64)
    lattice = s[0] + np.arange(int(n) + 1) * delta
    lattice[j] = s
    past = j % _ANCHOR
    gap = float(np.abs(s - (lattice[j - past] + past * delta)).max())
    return (float(delta), gap, lattice, j) if gap <= _EQUISPACED_ULPS * np.spacing(np.abs(s).max()) else None


def _drift(s: np.ndarray, axis, c_max: float) -> float:
    """A bound on |entry - direct exponential| of ``_powers`` on the axis s of ``_step`` ``axis``.

    An entry is at most m = min(_ANCHOR, L) - 1 steps past its anchor, on a
    lattice of L values.  At |c| <= c_max, pi c_max (gap + 4 eps (max |s| +
    m |delta|)) covers the gap and the rounding of the phase arguments of
    the anchor, of R carried over m steps and of the direct exponential;
    4 (m + 1) eps covers the exponentials' own rounding and that of m
    complex multiplies.  As |u| = |v| = 1, a row's value moves by at most
    this times sum |g| w h.
    """
    delta, gap, lattice, _ = axis
    m = min(_ANCHOR, lattice.size) - 1
    return math.pi * c_max * (gap + 4.0 * _EPS * (float(np.abs(s).max()) + m * abs(delta))) + 4 * (m + 1) * _EPS


def _shares(grid, panels: np.ndarray, fastest: np.ndarray) -> bool:
    """Whether all rows take the fastest row's pre-split rather than their own.

    ``grid`` is ``_distinct`` of the rows' xi and of their eta.  They share
    it when the distinct rows fill at least half of the #xi x #eta grid and
    (#xi + #eta) times its panels is less than the sum of the distinct
    rows' own panels: the factors cost #xi + #eta exponentials per node, a
    row alone one.  An axis that ``_grid_rows`` builds by recurrence costs
    fewer, but the model counts #xi + #eta, so whether a batch shares its
    pre-split does not depend on the recurrence.
    """
    (xs, iu), (ys, iv) = grid
    _, distinct = np.unique(iu * ys.size + iv, return_index=True)
    return 2 * distinct.size >= xs.size * ys.size and (xs.size + ys.size) * fastest.sum() < panels[distinct].sum()


def _grid_rows(rows: Rows, grid, spans, fastest: np.ndarray, folded: bool, abs_tol: float):
    """Each row's value and quadrature error on one shared pre-split, and its panel count.

    The pre-split is the fastest row's column ``fastest`` over ``spans``
    (see ``_presplits``).  The phase factors as
    u v = e^{-i pi xs x} e^{-i pi ys y} over ``grid`` (see ``_shares``).
    Each block of panels gives every row's Kronrod sum and Kronrod - Gauss
    difference at once, by one matmul of the u, weighted by either set of
    weights, with the v.  On a folded window an even coordinate's factor at -t
    is its value at t, an odd one's the conjugate of it: a factor of known
    parity is built at the nodes t >= 0 only.  The integrand is
    u+ v+ g+ + u- v- g-, the signs marking the nodes t and -t, with h in g;
    where a factor is even it is folded before the matmul, over a panel's
    nodes t >= 0: u even: u+ against v+ g+ + v- g-; else v even:
    u+ g+ + u- g- against v+.  Otherwise, and on windows that are not
    folded, the u weighted by g h goes against the v over all nodes, t and
    -t side by side.  The roundoff floor 10 eps sum (|g+| + |g-|) w h is the
    same for every row, as |u| = |v| = 1.  A nonfinite g makes every row's
    sums nonfinite.

    An axis that ``_step`` finds on an equispaced lattice is built by
    ``_powers``, one anchor every _ANCHOR lattice values and one ratio per
    node, where its drift bound (``_drift`` at the largest |coordinate| over
    the panels) times sum |g| w h, the same for every row, is at most
    ``abs_tol``/10; that term is then added to every row's error.
    Elsewhere, a NaN bound included, the axis takes one exponential an
    entry, with the bits it had before the recurrence.  The u under both
    weights are written into one buffer, allocated once.
    """
    (xs, iu), (ys, iv) = grid
    edges = _edges(spans, fastest)
    t, h = _nodes(edges[:-1], edges[1:], folded)
    x, y, g = _at(rows, t.ravel())
    g = np.asarray(g, dtype=np.complex128).reshape(t.shape) * h[:, None]
    nk = len(GK41.nodes)
    mass = math.fsum((np.abs(g) @ np.tile(GK41.weights, t.shape[1] // nk)).tolist())
    floor = 10.0 * _EPS * mass
    pu, pv = rows.parity[:2] if folded else (UNKNOWN, UNKNOWN)
    # each coordinate where its factor is built: at t >= 0 where its parity is known
    cu, cv = (c.reshape(t.shape)[:, : nk if p != UNKNOWN else None] for c, p in ((x, pu), (y, pv)))
    steps, drift = [None, None], 0.0
    for i, (s, c) in enumerate(((xs, cu), (ys, cv))):
        if (axis := _step(s)) and (term := mass * _drift(s, axis, float(np.abs(c).max()))) <= abs_tol / 10.0:
            steps[i], drift = axis, drift + term
    # the nodes of the matmul: t >= 0 where an even factor folds the integrand, else all of t
    fold = EVEN in (pu, pv)
    k = nk if fold else t.shape[1]
    wk, wd = np.tile(GK41.weights, k // nk), np.tile(GK41.weights - GK41.gauss, k // nk)
    n_u, n_v = xs.size, ys.size
    # the values each factor is built at: its lattice's where it takes the recurrence
    l_u, l_v = (s.size if a is None else a[2].size for s, a in zip((xs, ys), steps))
    sums, diffs = np.zeros((n_u, n_v), dtype=np.complex128), np.zeros((n_u, n_v))
    # a block's largest arrays, the u under both weights, the factors (the
    # v built at most at every node of t) and the matmul's result, hold at
    # most _CHUNK entries unless one panel needs more
    step = max(1, _CHUNK // max(2 * n_u * k, l_u * cu.shape[1], l_v * t.shape[1], 2 * n_u * n_v))
    weighted = np.empty((min(step, len(h)), 2 * n_u, k), dtype=np.complex128)
    for start in range(0, len(h), step):
        panels = slice(start, start + step)
        u, v = _factors(xs, cu[panels], ys, cv[panels], steps)
        scaled = weighted[: len(h[panels])]
        if fold:
            gp, gm = np.split(g[panels], 2, axis=1)
            if pu == EVEN:
                vp, vm = _halves(v, pv, 1)
                v = vp * gp[:, :, None] + vm * gm[:, :, None]
            else:
                up, um = _halves(u, pu, 2)
                u = up * gp[:, None] + um * gm[:, None]
            np.multiply(u, wk, out=scaled[:, :n_u])
            np.multiply(u, wd, out=scaled[:, n_u:])
        else:
            gh = g[panels, None, :]
            u = np.concatenate(_halves(u, pu, 2), axis=2) if pu == ODD else u
            v = np.concatenate(_halves(v, pv, 1), axis=1) if pv == ODD else v
            np.multiply(u, gh * wk, out=scaled[:, :n_u])
            np.multiply(u, gh * wd, out=scaled[:, n_u:])
        both = np.matmul(scaled, v)
        sums += both[:, :n_u].sum(axis=0)
        diffs += np.abs(both[:, n_u:]).sum(axis=0)
    return sums[iu, iv], diffs[iu, iv] + (floor + drift), len(h)


def _span_rows(rows: Rows, spans, counts: np.ndarray, folded: bool):
    """Each row's value and quadrature error on its own column of ``counts`` (see ``_presplits``).

    The rows with the same count on a span share its nodes: x, y and g are
    evaluated once per span and count, and the rows' values are built and
    scored for at most _CHUNK entries at a time, unless one row needs more.
    -0.0 + x is x to the bit, and the spans are taken in t order, so a
    row's partial sums are added up in t order whatever rows share them.
    """
    value, total_err = np.full(counts.shape[1], complex(-0.0, -0.0)), np.zeros(counts.shape[1])
    for (lo, hi), column in zip(spans, counts):
        for k in np.unique(column[column > 0]).tolist():
            edges = np.linspace(lo, hi, k + 1)
            t, h = _nodes(edges[:-1], edges[1:], folded)
            x, y, g = _at(rows, t.ravel())
            members = np.flatnonzero(column == k)
            step = max(1, _CHUNK // t.size)
            for start in range(0, members.size, step):
                part = members[start : start + step]
                vals, errs = _score(_values(rows, part, x, y, g), h, folded)
                value[part] += vals.sum(axis=1)
                # fsum over a memoryview reads floats one at a time, with no list of the panels held
                row_errs = memoryview(errs.reshape(-1))
                total_err[part] += [math.fsum(row_errs[i : i + k]) for i in range(0, errs.size, k)]
    return value, total_err


def integrate_rows(rows: Rows, interval: Tuple[float, float], opts: QuadOpts, envelope: Optional[Decay] = None):
    """Integrate every row of ``rows`` over one component's ``interval``.

    The interval is truncated by the decay ``envelope``, if any (see
    :func:`truncate_interval`), and every row's error includes the
    :func:`truncation_error` of that window.  Where the envelope's support
    misses the interval, or the interval lies wholly past its cutoff, the
    window is None and every row is 0 with the error of that tail (0 for a
    compact support); an unbounded interval with no envelope is row 0's
    :class:`MissingEnvelopeError`.  Row r's phase turns on [lo, hi] at most
    at the rate pi (|xi_r| sup |x'| + |eta_r| sup |y'|), or
    ``oscillation_hint`` where that is larger.

    Each row is then settled once, by the first of these stages that takes
    it, in row order within a stage:

    1. where ``rows.band`` has norm 0, g is 0 (sums, products and quotients
       round monotonically, so a norm that rounds to 0 leaves every value
       of g 0): every row is -0, and no node is evaluated;
    2. on a folded window, where ``rows.parity`` shows g odd and the phase
       even in t (each coordinate even or meeting a zero frequency), a row
       is exactly -0, with ``null_err``'s roundoff floor added to its error
       and no phase evaluated;
    3. where ``rows.strip`` and ``rows.band`` are set and the window is the
       whole interval, one period, a row is its trapezoid sum (see
       ``_periodic_rows``) where that is finite and meets tolerance;
    4. the rest take panels: one pre-split each (see ``_presplits``), or
       one shared pre-split for the batch where that costs fewer
       exponentials (see ``_shares`` and ``_grid_rows``), and a row that
       misses tolerance or is not finite is refined alone from its own
       pre-split (see ``_refine``).

    So a row's bits do not depend on its batch, except on a shared
    pre-split: there they depend on the set of rows in the panel stage, but
    not on their order.  numpy's warnings are silenced throughout: every
    nonfinite value shows in the sums, and refining its row names its node.

    Returns each row's value, error estimate and panel count (0 outside the
    panel stage), the first failing row of the panel stage as (row,
    QuadratureError) or None, and the window or None.  It returns as soon
    as a row fails: the panel stage's entries from that row on are
    meaningless.
    """
    n = rows.xi.size
    value, err, panels = np.zeros(n, dtype=np.complex128), np.zeros(n), np.zeros(n, dtype=np.int64)
    try:
        window = truncate_interval(interval, envelope, opts)
    except QuadratureError as exc:
        return value, err, panels, (0, exc), None
    if window is None:
        return value, np.full(n, truncation_error(interval, window, envelope)), panels, None, None
    window = (float(window[0]), float(window[1]))
    tail_err = truncation_error(interval, window, envelope)
    # -0 leaves a sum of components to the bit
    value, err = np.full(n, complex(-0.0, -0.0)), np.full(n, tail_err)
    folded = window[0] == -window[1] and window[1] > 0
    px, py, pg = rows.parity if folded else (UNKNOWN, UNKNOWN, UNKNOWN)
    # the rows no stage has settled yet, in input order
    live = np.arange(n if rows.band is None or rows.band.norm != 0.0 else 0)
    if pg == ODD and (null := ((rows.xi[live] == 0.0) | (px == EVEN)) & ((rows.eta[live] == 0.0) | (py == EVEN))).any():
        err[live[null]] += null_err(rows.g, window[1])
        live = live[~null]
    if rows.strip is not None and rows.band is not None and window == interval and live.size:
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            v, e, _ = _periodic_rows(rows._replace(xi=rows.xi[live], eta=rows.eta[live]), window, opts)
            met = np.isfinite(v) & (e <= np.fmax(opts.abs_tol, opts.rel_tol * np.hypot(v.real, v.imag)))
        value[live[met]], err[live[met]] = v[met], e[met] + tail_err
        live = live[~met]
    if not live.size:
        return value, err, panels, None, window
    # the panel stage's rows are the live ones
    rows = rows._replace(xi=rows.xi[live], eta=rows.eta[live])
    hint = opts.oscillation_hint or 0.0
    abs_xi, abs_eta = np.abs(rows.xi), np.abs(rows.eta)

    def rate(lo: float, hi: float) -> np.ndarray:
        dx_sup, dy_sup = rows.deriv_sup(lo, hi)
        w = math.pi * (abs_xi * dx_sup + abs_eta * dy_sup)
        return np.maximum(w, hint) if hint else w  # w is >= 0 or NaN, which a hint of 0 keeps

    with np.errstate(invalid="ignore", over="ignore"):
        spans, counts, fastest = _presplits(rate, window, folded, envelope, opts)
        panels[live] = counts.sum(axis=0)
        # a row alone costs one exponential a node; sharing costs two
        grid = (_distinct(rows.xi), _distinct(rows.eta)) if live.size > 1 else None
        if grid and _shares(grid, panels[live], fastest):
            v, total_err, panels[live] = _grid_rows(rows, grid, spans, fastest, folded, opts.abs_tol)
        else:
            v, total_err = _span_rows(rows, spans, counts, folded)
        value[live], err[live] = v, tail_err + total_err
        # hypot is abs() of one complex to the bit; np.abs of an array is not
        met = np.isfinite(v) & (total_err <= np.fmax(opts.abs_tol, opts.rel_tol * np.hypot(v.real, v.imag)))
        # row r of the panel stage is row i of the batch
        for r, i in zip(np.flatnonzero(~met).tolist(), live[~met].tolist()):
            try:
                value[i], err[i], panels[i] = _refine(rows, r, _edges(spans, counts[:, r]), folded, tail_err, opts)
            except QuadratureError as exc:
                return value, err, panels, (i, exc), window
        return value, err, panels, None, window


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
    This is :func:`integrate_rows` for one row at frequency 0 on no curve,
    so ``oscillation_hint`` is its rate.
    """
    rows = Rows(np.zeros(1), np.zeros(1), lambda t: None, f, lambda lo, hi: (0.0, 0.0), (UNKNOWN,) * 3)
    value, err, panels, failure, window = integrate_rows(rows, interval, opts, envelope)
    if failure:
        raise failure[1]
    return QuadResult(complex(value[0]), float(err[0]), window or (0.0, 0.0), int(panels[0]))
