"""Command-line surface.

Subcommands: ``ft`` (transform on a grid or on test-set samples, from a JSON
config), ``annihilate`` (build and verify a certificate), ``fourlines``
(fiber classification and coefficient systems), ``bessel``, ``verdict``.

Configs and the certificates ``annihilate`` prints share one JSON schema:
``_CURVES``, ``_DECAYS`` and ``_LAMBDAS`` map each kind to its constructor and
its fields, and ``_load`` / ``_dump`` read those tables in both directions.
The curve kinds are the keys of ``geometry.CURVE_KINDS``; an unknown kind is
reported with the list of known ones, and a key that the named kind does not
have is rejected.

Exit codes: 0 ok, 2 configuration error (a density that exceeds its declared
decay envelope is one), 3 numeric failure (a quadrature failure names its
point on stderr; an expression evaluated outside its domain exits 3 too),
4 certificate verification failure.  Identical invocations produce
byte-identical output.

Each call of ``main`` whose command line starts with a subcommand builds
one parser, that subcommand's own (``_COMMANDS``), where the full parser
builds six: 0.2-0.3 ms against 0.9-1.0 ms to parse a line (best of 7 on
2 vCPU, Python 3.11).  Help and usage errors read as with the full parser,
which is built only to report an unrecognized argument or to read a line
that names no subcommand.  Importing this module builds no parser.  ``ft`` and the
certificates read the transform as arrays (``transform.mu_hat_columns``),
with no object per point.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import json
import math
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Any, Callable, Optional

from . import bessel as bessel_mod
from . import fourlines as fl
from . import witnesses
from .bessel import AllIntegers, BesselError, EvenHalfIntegers, Order
from .expr import EvalDomainError, ExprSyntaxError, parse, pretty
from .geometry import (
    CURVE_KINDS,
    POINTS_MAX,
    CircleSet,
    CompactSupport,
    CurveSet,
    ExpDecay,
    FiberList,
    GaussianDecay,
    LatticeCross,
    Line,
    Lines,
    Measure,
    ParamCurve,
    sample_set,
)
from .quadrature import QuadOpts, QuadratureError
from .transform import mu_hat_columns
from .witnesses import Certificate, check_verify_args, verify_certificate

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_CERTIFICATE = 4


class ConfigError(ValueError):
    pass


def _number(value: Any, where: str) -> float:
    """The finite JSON number ``value`` of the config key ``where``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return float(value)


# the loaders of the values inside config objects check their JSON type alone:
# a number's finiteness is left to the constructor, whose message names the key


def _real(value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a JSON number")
    return float(value)


def _list(value: Any) -> list:
    if not isinstance(value, list):
        raise TypeError(f"{value!r} is not a JSON list")
    return value


def _flag(value: Any) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"{value!r} is not true or false")
    return value


def _count(value: Any, where: str) -> int:
    """The integral JSON number ``value`` of the config key ``where``."""
    if not _number(value, where).is_integer():
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return int(value)


def _check_keys(obj: dict, allowed: set[str], required: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"missing key(s) {sorted(missing)} in {where}")


# ---------------------------------------------------------------------------
# JSON schema: one table per object type, read by _load and _dump


@dataclasses.dataclass(frozen=True)
class _Field:
    """One JSON key, the constructor argument and attribute it maps to, and its conversions."""

    key: str
    load: Callable[[Any], Any] = _real
    dump: Callable[[Any], Any] = lambda value: value
    attr: str = ""  # defaults to ``key``
    optional: bool = False  # when absent, the constructor's default applies

    def __post_init__(self):
        if not self.attr:
            object.__setattr__(self, "attr", self.key)


def _pair(value: Any) -> tuple[float, float]:
    x, y = map(_real, _list(value))
    return x, y


def _floats(value: Any) -> tuple[float, ...]:
    return tuple(map(_real, _list(value)))


def _load_fields(
    ctor: Callable, fields: tuple[_Field, ...], obj: Any, where: str, extra: frozenset = frozenset()
) -> Any:
    """Call ``ctor`` on the fields of the JSON object ``obj``, which must also hold the ``extra`` keys."""
    required = {f.key for f in fields if not f.optional} | extra
    _check_keys(obj, {f.key for f in fields} | extra, required, where)
    try:
        return ctor(**{f.attr: f.load(obj[f.key]) for f in fields if f.key in obj})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {where}: {exc}") from None


def _dump_fields(obj: Any, fields: tuple[_Field, ...]) -> dict:
    return {f.key: f.dump(getattr(obj, f.attr)) for f in fields}


def _load(table: dict, desc: Any, where: str) -> Any:
    """Build the object that a ``{"kind": ..., ...}`` description names in ``table``."""
    kind = desc.get("kind") if isinstance(desc, dict) else None
    if not isinstance(kind, str) or kind not in table:
        raise ConfigError(f"unknown {where} kind {kind!r} (known: {', '.join(table)})")
    ctor, fields = table[kind]
    return _load_fields(ctor, fields, desc, where, frozenset({"kind"}))


def _dump(table: dict, obj: Any) -> dict:
    """The description of ``obj`` that ``_load`` with the same table turns back into it."""
    # curves share one class and carry their kind; every other kind is a class of its own
    kind = obj.kind if isinstance(obj, ParamCurve) else next(k for k in table if table[k][0] is type(obj))
    return {"kind": kind, **_dump_fields(obj, table[kind][1])}


def _list_of(ctor: Callable, fields: tuple[_Field, ...], where: str) -> tuple[Callable, Callable]:
    """Load and dump conversions for a JSON list of objects without a kind."""
    return (
        lambda items: tuple(_load_fields(ctor, fields, item, where) for item in _list(items)),
        lambda objs: [_dump_fields(obj, fields) for obj in objs],
    )


_CURVE_FIELDS = {
    "heights": _Field("heights", _floats, list),
    "x_expr": _Field("x", parse, pretty, attr="x_expr"),
    "y_expr": _Field("y", parse, pretty, attr="y_expr"),
    "expr_domain": _Field("domain", _pair, list, attr="expr_domain"),
}
_CURVES = {
    kind: (partial(ParamCurve, kind), tuple(_CURVE_FIELDS[name] for name in spec.fields))
    for kind, spec in CURVE_KINDS.items()
}
_DECAYS = {
    "compact": (CompactSupport, (_Field("lo"), _Field("hi"))),
    "exp": (ExpDecay, (_Field("rate"), _Field("amplitude", optional=True))),
    "gaussian": (GaussianDecay, (_Field("rate", optional=True), _Field("amplitude", optional=True))),
}
_LINE = (_Field("point", _pair, list), _Field("direction", _pair, list))
_FIBERS = _Field("fibers", *_list_of(fl.Fiber, (_Field("xi"), _Field("sigma", _floats, list)), "fiber"))
_LAMBDAS = {
    "line": (Line, _LINE),
    "lines": (Lines, (_Field("lines", *_list_of(Line, _LINE, "line")),)),
    "circle": (CircleSet, (_Field("radius"),)),
    "lattice-cross": (LatticeCross, (_Field("alpha"), _Field("beta"))),
    "curve": (CurveSet, (_Field("curve", lambda d: _load(_CURVES, d, "curve"), partial(_dump, _CURVES)),)),
    "fibers": (FiberList, (_FIBERS, _Field("periodic2", _flag, optional=True))),
}
_QUAD = (_Field("abs_tol", optional=True), _Field("rel_tol", optional=True))


# ---------------------------------------------------------------------------
# commands


def _read_json(path: str, what: str) -> Any:
    """The JSON document in the file ``path``, or on stdin when ``path`` is ``-``."""
    try:
        return json.loads(sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from None


def _load_config(path: str) -> dict:
    cfg = _read_json(path, "config")
    _check_keys(
        cfg,
        {"curve", "density", "decay", "lambda", "grid", "samples", "window", "quad", "output"},
        {"curve", "density"},
        "config",
    )
    if ("grid" in cfg) == ("lambda" in cfg):
        raise ConfigError("config needs exactly one of 'grid' or 'lambda'")
    return cfg


def _grid_points(grid: dict) -> list[tuple[float, float]]:
    _check_keys(grid, {"xi", "eta"}, {"xi", "eta"}, "grid")
    axes = []
    for key in ("xi", "eta"):
        axis = grid[key]
        if not (isinstance(axis, list) and len(axis) == 3):
            raise ConfigError(f"grid.{key} must be [min, max, n]")
        lo, hi = (_number(v, f"grid.{key}[{i}]") for i, v in enumerate(axis[:2]))
        n = _count(axis[2], f"grid.{key}[2]")
        if n < 1:
            raise ConfigError(f"grid.{key} is empty (n = {n})")
        axes.append((lo, hi, n))
    if (size := axes[0][2] * axes[1][2]) > POINTS_MAX:
        raise ConfigError(f"grid has {size} points, more than {POINTS_MAX}")
    axes = [[lo] if n == 1 else [lo + (hi - lo) * i / (n - 1) for i in range(n)] for lo, hi, n in axes]
    return [(x, y) for x in axes[0] for y in axes[1]]


def _emit(command: str, fields: dict, code: int = EXIT_OK) -> int:
    """Print a command's JSON document and return its exit code."""
    print(json.dumps({"schema_version": SCHEMA_VERSION, "command": command, **fields}, indent=2))
    return code


def cmd_ft(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    curve = _load(_CURVES, cfg["curve"], "curve")
    density_sources = cfg["density"]
    if not isinstance(density_sources, list) or not all(isinstance(d, str) for d in density_sources):
        raise ConfigError("density must be a list of expression strings")
    try:
        densities = tuple(parse(d) for d in density_sources)
    except ExprSyntaxError as exc:
        raise ConfigError(f"bad density: {exc}") from None
    decay = None if cfg.get("decay") is None else _load(_DECAYS, cfg["decay"], "decay")
    measure = Measure(curve, densities, decay)
    measure.check_envelope()
    opts = _load_fields(QuadOpts, _QUAD, cfg.get("quad", {}), "quad")
    if "grid" in cfg:
        points = _grid_points(cfg["grid"])
    else:
        lam = _load(_LAMBDAS, cfg["lambda"], "lambda")
        window = cfg.get("window")
        if not (isinstance(window, list) and len(window) == 4):
            raise ConfigError("lambda evaluation needs 'window': [xmin, xmax, ymin, ymax]")
        window = tuple(_number(v, f"window[{i}]") for i, v in enumerate(window))
        points = sample_set(lam, _count(cfg.get("samples", 256), "samples"), window)
    output = args.output or cfg.get("output", "csv")
    if output not in ("csv", "json"):  # before any point is evaluated
        raise ConfigError(f"unknown output format {output!r}")
    value, err, _ = mu_hat_columns(measure, points, opts)
    rows = [(x, y, v.real, v.imag, abs(v), e) for (x, y), v, e in zip(points, value.tolist(), err.tolist())]
    if output == "json":
        keys = ("xi", "eta", "re", "im", "abs", "err")
        return _emit("ft", {"rows": [dict(zip(keys, row)) for row in rows]})
    lines = "".join("%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n" % row for row in rows)
    sys.stdout.write("xi,eta,re,im,abs,err\n" + lines)
    return EXIT_OK


def _certificate_to_dict(cert: Certificate) -> dict:
    return {
        "measure": {
            "curve": _dump(_CURVES, cert.measure.curve),
            "densities": [pretty(d) for d in cert.measure.densities],
            "decay": None if cert.measure.decay is None else _dump(_DECAYS, cert.measure.decay),
        },
        "lambda": _dump(_LAMBDAS, cert.lam),
        "window": list(cert.window),
        "witness_point": list(cert.witness_point),
        "residual_on_lambda": cert.residual_on_lambda,
        "witness_magnitude": cert.witness_magnitude,
        "samples_used": cert.samples_used,
        "basis": cert.basis,
    }


# each annihilate case builds its certificate from the parsed arguments
_CASES = {
    "circle-line": lambda args: witnesses.circle_line_annihilator(),
    "circle-lines": lambda args: witnesses.circle_rational_lines_annihilator(args.j),
    "circle-bessel": lambda args: witnesses.circle_bessel_circle_annihilator(args.k, args.n),
    "hyperbola-line": lambda args: witnesses.hyperbola_line_annihilator(),
    "expcurve-vline": lambda args: witnesses.expcurve_vertical_line_annihilator(),
    "fourlines": lambda args: witnesses.fourlines_annihilator(args.p, args.eta0),
}


def cmd_annihilate(args: argparse.Namespace) -> int:
    check_verify_args(args.samples, args.tol)  # before the certificate is built
    cert = _CASES[args.case](args)
    report = verify_certificate(cert, n_lambda=args.samples, tol=args.tol)
    fields = {"case": args.case, "certificate": _certificate_to_dict(cert), "verification": dataclasses.asdict(report)}
    return _emit("annihilate", fields, EXIT_OK if report.ok else EXIT_CERTIFICATE)


def _cx(z: complex) -> list[float]:
    return [z.real, z.imag]


def _named(prefix: str, values) -> dict:
    return {f"{prefix}{i}": _cx(v) for i, v in enumerate(values)}


# each coefficient system: the number of heights it takes, and its output fields
# from the unit points e^{i pi eta} and --p.  The solvers are looked up in ``fl``
# on each call, so a wrapper bound there (perfbench's tracer) sees the call.
_SOLVERS = {
    "tau": (3, lambda z, p: {"p": p, **_named("tau", fl.solve_tau(*z, p))}),
    "delta": (2, lambda z, p: _named("delta", fl.solve_delta(*z))),
    "e": (3, lambda z, p: _named("e", fl.solve_e(*z))),
    "rho": (3, lambda z, p: {"rho": _cx(fl.rho(*z))}),
}


def _classify(args: argparse.Namespace) -> dict:
    cfg = fl.FourLinesConfig(args.p)
    if not args.fibers:
        raise ConfigError("classify needs --fibers FILE (or - for stdin)")
    doc = _read_json(args.fibers, "fibers")
    try:
        if isinstance(doc, dict) and "points" in doc:
            fibers = fl.periodize([_pair(point) for point in _list(doc["points"])])
        elif isinstance(doc, dict) and "fibers" in doc:
            fibers = _FIBERS.load(doc["fibers"])
        else:
            raise ConfigError("fibers JSON must contain 'points' or 'fibers'")
    except TypeError as exc:  # a value of the wrong JSON type; other bad values raise ValueError
        raise ConfigError(f"bad fibers JSON: {exc}") from None
    fl.check_heights(fibers)
    results = []
    for fiber in fibers:
        cls = fl.classify(fiber, cfg)
        results.append({"xi": fiber.xi, "sigma": list(fiber.sigma), "class": cls.tag, "witness": list(cls.witness)})
    return {"p": args.p, "results": results}


def cmd_fourlines(args: argparse.Namespace) -> int:
    if args.verb == "classify":
        return _emit("fourlines classify", _classify(args))
    count, solve = _SOLVERS[args.verb]
    if args.etas is None:
        raise ConfigError(f"{args.verb} needs --etas with {count} comma-separated heights")
    etas = [float(v) for v in args.etas.split(",") if v.strip()]
    if len(etas) != count:
        raise ConfigError(f"expected {count} comma-separated heights, got {len(etas)}")
    for eta in etas:
        if not math.isfinite(eta):
            raise ConfigError(f"heights must be finite, got {eta}")
    points = [cmath.exp(1j * math.pi * eta) for eta in etas]
    return _emit(f"fourlines {args.verb}", {"etas": etas, **solve(points, args.p)})


def _nonzero(args: argparse.Namespace) -> dict:
    parity = AllIntegers() if args.parity == "integers" else EvenHalfIntegers(args.dim)
    nonzero = bessel_mod.all_orders_nonzero(args.x, parity)
    fields = {"x": args.x, "parity": args.parity, "nonzero_for_all_orders": nonzero}
    return {**fields, "dim": args.dim} if args.parity == "half" else fields


# the output fields of each bessel verb
_BESSEL = {
    "j": lambda args: {"order": str(o := Order.of(args.order)), "x": args.x, "value": bessel_mod.bessel_j(o, args.x)},
    "zero": lambda args: {
        "order": str(o := Order.of(args.order)), "n": args.n, "zero": bessel_mod.bessel_zero(o, args.n)
    },
    "nonzero": _nonzero,
}


def cmd_bessel(args: argparse.Namespace) -> int:
    return _emit(f"bessel {args.verb}", _BESSEL[args.verb](args))


def _parse_angle(text: str):
    if "/" in text:
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad angle {text!r}: {exc}") from None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"bad angle {text!r}") from None


def _components(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


# verdict flags in output order: argparse options, and the conversion of a text flag
# into the catalog's parameter (None: argparse's type converts it)
_VERDICT_PARAMS: dict[str, tuple[dict, Optional[Callable[[str], Any]]]] = {
    "alpha": ({"type": float}, None),
    "beta": ({"type": float}, None),
    "radius": ({"type": float}, None),
    "angle": ({"help": "exact rational like 1/3 for rationality checks; floats give Unknown"}, _parse_angle),
    "direction": ({"help": "dx,dy"}, _components),
    "normal": ({"help": "comma-separated components"}, _components),
    "dim": ({"type": int}, None),
    "p": ({"type": int}, None),
    "eta0": ({"type": float}, None),
}


def cmd_verdict(args: argparse.Namespace) -> int:
    params = {
        name: value if convert is None else convert(value)
        for name, (_, convert) in _VERDICT_PARAMS.items()
        if (value := getattr(args, name)) is not None
    }
    try:
        verdict = witnesses.known_pair_verdict(args.pair, **params)
    except KeyError as exc:
        raise ConfigError(f"missing parameter {exc} for pair {args.pair!r}") from None
    shown = {k: (str(v) if isinstance(v, Fraction) else v) for k, v in params.items()}
    return _emit("verdict", {"pair": args.pair, "params": shown, **dataclasses.asdict(verdict)})


def _ft_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="JSON config file, or - for stdin")
    p.add_argument("--output", choices=("csv", "json"), default=None)


def _annihilate_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("case", choices=_CASES)
    p.add_argument("--j", type=int, default=3, help="number of concurrent lines (circle-lines)")
    p.add_argument("--k", type=int, default=0, help="circle coefficient order (circle-bessel)")
    p.add_argument("--n", type=int, default=1, help="zero index (circle-bessel)")
    p.add_argument("--p", type=int, default=3, help="fourth-line height (fourlines)")
    p.add_argument("--eta0", type=float, default=0.0, help="fiber height in [0,2) (fourlines)")
    p.add_argument("--samples", type=int, default=512)
    p.add_argument("--tol", type=float, default=witnesses.RESIDUAL_TOL)
    p.add_argument("--output", choices=("json",), default="json")


def _fourlines_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("verb", choices=("classify", *_SOLVERS))
    p.add_argument("--p", type=int, default=3)
    p.add_argument("--fibers", help="JSON file with 'fibers' or raw 'points' (- for stdin)")
    p.add_argument("--etas", help="comma-separated heights in [0,2), e.g. 0,0.5,1")
    p.add_argument("--output", choices=("json",), default="json")


def _bessel_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("verb", choices=_BESSEL)
    p.add_argument("--order", default="0", help="integer or half-integer, e.g. 3 or 1/2")
    p.add_argument("--x", type=float, default=1.0)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--parity", choices=("integers", "half"), default="integers")
    p.add_argument("--dim", type=int, default=2, help="ambient dimension for half-integer orders")
    p.add_argument("--output", choices=("json",), default="json")


def _verdict_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("pair")
    for name, (options, _) in _VERDICT_PARAMS.items():
        p.add_argument(f"--{name}", **options)
    p.add_argument("--output", choices=("json",), default="json")


# each subcommand: its help line, the function that adds its arguments, and its command
_COMMANDS = {
    "ft": ("evaluate a measure transform on a grid or on test-set samples", _ft_arguments, cmd_ft),
    "annihilate": ("construct and verify an annihilating-measure certificate", _annihilate_arguments, cmd_annihilate),
    "fourlines": ("fiber classification and coefficient systems", _fourlines_arguments, cmd_fourlines),
    "bessel": ("Bessel values, zeros, and all-orders checks", _bessel_arguments, cmd_bessel),
    "verdict": ("HUP / NotHUP / Unknown for cataloged pairs", _verdict_arguments, cmd_verdict),
}


def build_parser() -> argparse.ArgumentParser:
    """The full command-line parser: every subcommand with its arguments."""
    parser = argparse.ArgumentParser(
        prog="huplab",
        description="Fourier transforms of measures on plane curves, annihilating-measure "
        "certificates, Bessel utilities, and four-parallel-lines fiber algebra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments, func) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        add_arguments(p)
        p.set_defaults(func=func)
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``argv`` read as the full parser reads it, by the parser of the subcommand it names alone.

    The top level takes no option but -h, so that parser sees what it would
    see under the full one and reports help and usage errors alike; only an
    unrecognized argument is reported with the full parser's usage.
    """
    if not argv or argv[0] not in _COMMANDS:
        return build_parser().parse_args(argv)
    name = argv[0]
    _, add_arguments, func = _COMMANDS[name]
    parser = argparse.ArgumentParser(prog=f"huplab {name}")
    add_arguments(parser)
    args, extras = parser.parse_known_args(argv[1:])
    if extras:
        build_parser().error(f"unrecognized arguments: {' '.join(extras)}")
    args.command, args.func = name, func
    return args


# exception types -> stderr label and exit code
_FAILURES = {
    (ValueError, OSError): ("config error", EXIT_CONFIG),
    (QuadratureError, BesselError, EvalDomainError): ("numeric failure", EXIT_NUMERIC),
}


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_args(argv)
    try:
        return args.func(args)
    except tuple(t for types in _FAILURES for t in types) as exc:
        label, code = next(outcome for types, outcome in _FAILURES.items() if isinstance(exc, types))
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
