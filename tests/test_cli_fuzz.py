"""A seeded contract fuzzer for the command line.

Hypothesis draws whole ``ft`` configs and command lines for ``annihilate``,
``bessel``, ``fourlines`` and ``verdict``, with numbers from the edges of
the floats (0, 5e-324, 1e300, the largest float, NaN and infinities), and
runs ``cli.main`` in-process with every warning an error.  The contract: no
exception escapes, the exit code is 0, 2, 3 or 4, and a rerun prints the
same bytes.

Tier-1 runs a fixed-seed slice of ``SLICE`` examples per command.  The
``cli-fuzz`` settings profile, registered in conftest, runs the larger sweep:

    PYTHONPATH=src python -m pytest tests/test_cli_fuzz.py --hypothesis-profile=cli-fuzz
"""

import io
import json
import math
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from test_cli import _DECAYS, _LAMBDAS, _any_curve
from test_expr import _any_tree

from huplab import cli, witnesses
from huplab.expr import pretty

SEED = 32
SLICE = 15
SWEEP = settings.get_current_profile_name() == "cli-fuzz"
EXIT_CODES = {cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_NUMERIC, cli.EXIT_CERTIFICATE}


def _mostly(good, bad):
    """``good`` nine times in ten, else ``bad``; drawn from the middle of a range, as hypothesis favours its ends."""
    return st.integers(0, 19).flatmap(lambda i: bad if i in (9, 10) else good)


_EDGES = [0.0, -0.0, 1.0, -1.0, 0.5, 2.5, -7.0, 40.0, 1e-300, 5e-324, 1e300, -1e300, sys.float_info.max]
_number = _mostly(st.floats(-50.0, 50.0), st.sampled_from(_EDGES))
# JSON as Python writes and reads it takes NaN and Infinity too
_json_number = _mostly(_number, st.sampled_from([math.nan, math.inf, -math.inf]))
_text = _mostly(_json_number.map(repr), st.sampled_from(["", "x", "1/0", "1e999"]))
_small = _mostly(st.integers(-1, 6), st.sampled_from([-2, 10**6, 10**12])).map(str)


def _options(draw, table: dict) -> list[str]:
    """Each option of ``table`` (flag: strategy of its text) nine times in ten, as --flag=text, in order."""
    return [f"{flag}={draw(values)}" for flag, values in table.items() if draw(_mostly(st.just(True), st.just(False)))]


# densities within a gaussian envelope of rate <= 1, and on the circle periodic ones too
_DECAYING = ["exp(-(t^2))", "sin(t)*exp(-(t^2))", "cos(3*t)*exp(-(t^2))", "exp(-(t^2))/(2*pi)", "0"]
_PERIODIC = ["1/(2*pi)", "sin(3*t)", "cos(t)^2", "chi(-1,1)(t)"]
_junk_density = st.one_of(_any_tree.map(pretty), st.sampled_from(["t", "sin(t", ""]))
_decay = _mostly(
    st.one_of(
        st.builds(lambda rate: {"kind": "gaussian", "rate": rate}, st.floats(0.05, 1.0)),
        st.sampled_from(sorted(_DECAYS)).flatmap(lambda kind: _DECAYS[kind]).map(lambda d: cli._dump(cli._DECAYS, d)),
    ),
    st.one_of(st.none(), st.fixed_dictionaries({"kind": st.sampled_from(sorted(cli._DECAYS)), "rate": _json_number})),
)
_lambda = st.sampled_from(sorted(_LAMBDAS)).flatmap(lambda kind: _LAMBDAS[kind])
_tol = _mostly(st.sampled_from([1e-13, 1e-10, 1e-6]), st.sampled_from([1.0, 0.0, -1.0, math.nan, math.inf]))


@st.composite
def _ft(draw):
    """``ft --config -`` and its config."""
    curve = draw(_any_curve)
    count = draw(_mostly(st.just(curve.n_components), st.integers(0, 4)))
    density = _mostly(st.sampled_from(_DECAYING + (_PERIODIC if curve.kind == "circle" else [])), _junk_density)
    cfg = {"curve": cli._dump(cli._CURVES, curve), "density": draw(st.lists(density, min_size=count, max_size=count))}
    if (decay := draw(st.none() if curve.kind == "circle" and draw(st.booleans()) else _decay)) is not None:
        cfg["decay"] = decay
    if draw(st.booleans()):
        axis = st.tuples(_json_number, _json_number, _mostly(st.integers(1, 3), st.just(0))).map(list)
        cfg["grid"] = {"xi": draw(axis), "eta": draw(axis)}
    else:
        cfg["lambda"] = cli._dump(cli._LAMBDAS, draw(_lambda))
        # each side from its low end and, mostly, a positive width
        side = st.tuples(_json_number, _mostly(st.floats(0.5, 50.0), _json_number)).map(lambda s: [s[0], s[0] + s[1]])
        window = st.tuples(side, side).map(lambda xy: [*xy[0], *xy[1]])
        cfg["window"] = draw(_mostly(window, st.lists(_json_number, min_size=4, max_size=4)))
        cfg["samples"] = draw(_mostly(st.integers(1, 6), st.integers(-1, 0)))
    cfg["quad"] = draw(st.fixed_dictionaries({}, optional={"abs_tol": _tol, "rel_tol": _tol}))
    argv = ["ft", "--config", "-", *_options(draw, {"--output": st.sampled_from(["csv", "json"])})]
    return argv, json.dumps(cfg)


@st.composite
def _annihilate(draw):
    options = {"--j": _small, "--k": _small, "--n": _small, "--p": _small, "--eta0": _text,
               "--samples": _mostly(st.sampled_from(["1", "16", "64"]), st.sampled_from(["0", "-1", "1000000000"])),
               "--tol": _mostly(st.sampled_from(["1e-8", "1e-6"]), _text)}
    return ["annihilate", draw(st.sampled_from(sorted(cli._CASES))), *_options(draw, options)], ""


@st.composite
def _bessel(draw):
    orders = _mostly(st.sampled_from(["0", "1", "5", "-3", "1/2", "7/2", "-1/2"]),
                     st.sampled_from(["1/3", "x", "1e9", "100000"]))
    options = {"--order": orders, "--x": _text, "--n": _small,
               "--parity": st.sampled_from(["integers", "half"]), "--dim": _small}
    return ["bessel", draw(st.sampled_from(sorted(cli._BESSEL))), *_options(draw, options)], ""


@st.composite
def _fourlines(draw):
    verb = draw(st.sampled_from(["classify", *sorted(cli._SOLVERS)]))
    count = 0 if verb == "classify" else cli._SOLVERS[verb][0]
    etas = _mostly(st.lists(_text, min_size=count, max_size=count), st.lists(_text, max_size=4)).map(",".join)
    argv = ["fourlines", verb, *_options(draw, {"--p": _small, "--etas": etas, "--fibers": st.just("-")})]
    points = st.lists(st.tuples(_json_number, _json_number).map(list), max_size=6)
    fibers = _LAMBDAS["fibers"].map(lambda fibers: cli._dump(cli._LAMBDAS, fibers))
    doc = _mostly(st.one_of(fibers, st.fixed_dictionaries({"points": points})),
                  st.sampled_from([[], {}, {"fibers": 1}, {"points": [[1]]}]))
    return argv, json.dumps(draw(doc))


@st.composite
def _verdict(draw):
    angles = _mostly(st.sampled_from(["1/3", "2/7", "-1/4", "0", "3"]), st.one_of(_text, st.just("1/0")))
    components = st.lists(_text, min_size=1, max_size=3).map(",".join)
    options = {"--alpha": _text, "--beta": _text, "--radius": _text, "--angle": angles, "--direction": components,
               "--normal": components, "--dim": _small, "--p": _small, "--eta0": _text}
    pair = _mostly(st.sampled_from(sorted(witnesses._CATALOG)), st.just("nope"))
    return ["verdict", draw(pair), *_options(draw, options)], ""


_COMMANDS = {"ft": _ft(), "annihilate": _annihilate(), "bessel": _bessel(), "fourlines": _fourlines(),
             "verdict": _verdict()}


def _run(argv: list[str], stdin: str):
    """Exit code, stdout and stderr of ``huplab ARGV`` in-process, with ``stdin`` on stdin and warnings as errors."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")
        with mock.patch.object(sys, "stdin", io.StringIO(stdin)):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's usage errors and help
                code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", sorted(_COMMANDS))
@seed(SEED)
@given(data=st.data())
@settings(max_examples=settings.default.max_examples if SWEEP else SLICE, database=None, deadline=None)
def test_cli_keeps_its_contract(command, data):
    argv, stdin = data.draw(_COMMANDS[command], label="argv and stdin")
    first = _run(argv, stdin)
    assert first[0] in EXIT_CODES, first
    assert _run(argv, stdin) == first
