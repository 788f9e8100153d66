"""Closed-form expression language for densities.

Grammar (standard precedence, ``^`` binds tightest and is right-associative,
then unary minus, then ``*``/``/``, then ``+``/``-``)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?
    atom   := NUMBER | 't' | 'pi' | 'e' | 'i'
            | FUNC '(' expr ')'
            | 'chi' '(' expr ',' expr ')' '(' expr ')'
            | '(' expr ')'

The tables ``_BINARY`` and ``FUNCTIONS`` are the grammar's single source: a
row per binary operator (precedence, operand print levels, evaluation, parity,
affine and band rules) and per function FUNC (evaluation, parity and band
rules), which the parser, printer, evaluator, :func:`parity` and :func:`band`
look up.  ``chi(a,b)(x)`` is the indicator of the open interval (a, b): 1 for
a < x < b, 0 otherwise; the endpoints themselves evaluate to 0.  Complex values are written ``a+b*i``.

Evaluation is total on its domain: division by zero, log of a nonpositive
real, and nonfinite intermediates raise :class:`EvalDomainError` instead of
propagating NaN/inf.  Trees are immutable; parse/print round-trips preserve
structure exactly.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

__all__ = [
    "Expr",
    "Num",
    "Var",
    "Const",
    "Neg",
    "BinOp",
    "Call",
    "Chi",
    "ExprSyntaxError",
    "EvalDomainError",
    "parse",
    "pretty",
    "evaluate",
    "evaluate_array",
    "EVEN",
    "ODD",
    "UNKNOWN",
    "parity",
    "Band",
    "band",
]

CONSTANTS = {"pi": complex(np.pi), "e": complex(np.e), "i": 1j}


class ExprSyntaxError(ValueError):
    """Parse failure; ``offset`` is the byte offset into the source text."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvalDomainError(ArithmeticError):
    """Evaluation hit a domain violation; ``subexpr`` pinpoints the culprit."""

    def __init__(self, message: str, subexpr: str):
        super().__init__(f"{message} in '{subexpr}'")
        self.subexpr = subexpr


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str = "t"


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # a key of _BINARY
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str  # a key of FUNCTIONS
    arg: "Expr"


@dataclass(frozen=True)
class Chi:
    lo: "Expr"
    hi: "Expr"
    arg: "Expr"


Expr = Union[Num, Var, Const, Neg, BinOp, Call, Chi]

# how a tree's value at -t relates to its value at t; as numbers they
# multiply like the signs they stand for
EVEN, ODD, UNKNOWN = 1, -1, 0

# precedence levels, loosest first; an operand printed at a level above its
# own is parenthesized
_ADD, _MUL, _NEG, _POW, _ATOM = 1, 2, 3, 4, 5


def _check_finite(value, node: Expr):
    if not np.all(np.isfinite(value)):
        raise EvalDomainError("nonfinite value", pretty(node))
    return value


def _divide(left, right, node: Expr):
    if np.any(right == 0):
        raise EvalDomainError("division by zero", pretty(node))
    return left / right


def _power(left, right, node: Expr):
    # + 0.0 turns a -0 imaginary part into +0, here and in sqrt: on the
    # negative real axis both then take the principal branch
    return np.power(left + 0.0, right)


def _power_parity(node: BinOp, left: int, right: int) -> int:
    if left == right == EVEN:
        return EVEN
    if isinstance(node.right, Num) and float(node.right.value).is_integer():
        return left if node.right.value % 2 else left * left
    return UNKNOWN


def _log(arg, node: Expr):
    if np.any((np.imag(arg) == 0) & (np.real(arg) <= 0)):
        raise EvalDomainError("log of nonpositive real", pretty(node))
    return np.log(np.asarray(arg, dtype=np.complex128))


class Band(NamedTuple):
    """A trigonometric polynomial sum_{|k| <= degree} c_k e^{ikt}, with sum |c_k| <= norm."""

    degree: int
    norm: float


def _exp(v: float) -> float:
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


# every operator's and function's value is checked to be finite after ``apply``
class _Binary(NamedTuple):
    level: int  # the operator's precedence level
    left: int  # the levels its operands print at
    right: int
    apply: Callable  # (left value, right value, node) -> value
    parity: Callable  # (node, left parity, right parity) -> parity
    affine: Callable  # (left, right) -> (k, c) with the node k t + c, from those of its operands, or None
    band: Callable  # (node, left band, right band) -> Band or None; an operand's is None where it has none


class _Function(NamedTuple):
    apply: Callable  # (argument value, node) -> value
    parity: Callable  # argument parity -> parity
    band: Callable  # (k, c) with the argument k t + c, or None -> Band or None


# parity rules of a binary operator: the operands' common parity, or their product
_shared = lambda node, p, q: p if p == q else UNKNOWN
_product = lambda node, p, q: p * q


def _bands(rule: Callable) -> Callable:
    return lambda node, p, q: None if p is None or q is None else rule(node, p, q)


_widest = _bands(lambda node, p, q: Band(max(p.degree, q.degree), p.norm + q.norm))


def _over_constant(node: BinOp, p: Band, q: Band) -> Optional[Band]:
    # a quotient is a polynomial only by a constant leaf, and one that is not 0
    if not isinstance(node.right, (Num, Const)) or _constant(node.right) == 0:
        return None
    return Band(p.degree, p.norm / abs(_constant(node.right)))


def _integer_power(node: BinOp, p: Band, q: Band) -> Optional[Band]:
    if not (isinstance(node.right, Num) and float(node.right.value).is_integer() and node.right.value >= 0):
        return None
    n = int(node.right.value)
    try:
        return Band(p.degree * n, p.norm**n)
    except OverflowError:
        return Band(p.degree * n, math.inf)


# a product or quotient of affine trees is affine where one factor, or the divisor, is constant (k = 0)
_BINARY = {
    "+": _Binary(_ADD, _ADD, _MUL, lambda a, b, node: a + b, _shared,
                 lambda p, q: (p[0] + q[0], p[1] + q[1]), _widest),
    "-": _Binary(_ADD, _ADD, _MUL, lambda a, b, node: a - b, _shared,
                 lambda p, q: (p[0] - q[0], p[1] - q[1]), _widest),
    "*": _Binary(_MUL, _MUL, _NEG, lambda a, b, node: a * b, _product,
                 lambda p, q: (p[1] * q[0] + q[1] * p[0], p[1] * q[1]) if p[0] == 0 or q[0] == 0 else None,
                 _bands(lambda node, p, q: Band(p.degree + q.degree, p.norm * q.norm))),
    "/": _Binary(_MUL, _MUL, _NEG, _divide, _product,
                 lambda p, q: (p[0] / q[1], p[1] / q[1]) if q[0] == 0 and q[1] != 0 else None,
                 _bands(_over_constant)),
    "^": _Binary(_POW, _ATOM, _NEG, _power, _power_parity, lambda p, q: None,
                 lambda node, p, q: None if p is None else _integer_power(node, p, q)),
}

# parity rules of a function of one argument: odd, even, or even on even arguments only
_odd = lambda p: p
_even = lambda p: p * p
_on_even = lambda p: EVEN if p == EVEN else UNKNOWN


# band rules of a function of an affine argument k t + c: sin and cos of a real
# integer k, e^{+-i(kt + c)}/2 and so sum |c_k| = cosh(Im c), and exp of an
# imaginary integer k, |e^c|; any other argument, or function, has no band
def _harmonic(arg) -> Optional[Band]:
    if arg is None or arg[0].imag != 0 or not arg[0].real.is_integer():
        return None
    return Band(int(abs(arg[0].real)), 0.5 * (_exp(arg[1].imag) + _exp(-arg[1].imag)))


def _exp_band(arg) -> Optional[Band]:
    if arg is None or arg[0].real != 0 or not arg[0].imag.is_integer():
        return None
    return Band(int(abs(arg[0].imag)), _exp(arg[1].real))


_no_band = lambda arg: None

FUNCTIONS = {
    "sin": _Function(lambda arg, node: np.sin(arg), _odd, _harmonic),
    "cos": _Function(lambda arg, node: np.cos(arg), _even, _harmonic),
    "exp": _Function(lambda arg, node: np.exp(arg), _on_even, _exp_band),
    "cosh": _Function(lambda arg, node: np.cosh(arg), _even, _no_band),
    "sinh": _Function(lambda arg, node: np.sinh(arg), _odd, _no_band),
    "sqrt": _Function(lambda arg, node: np.sqrt(np.asarray(arg, dtype=np.complex128) + 0.0), _on_even, _no_band),
    "log": _Function(_log, _on_even, _no_band),
    "abs": _Function(lambda arg, node: np.abs(arg), _even, _no_band),
}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<id>[A-Za-z_][A-Za-z0-9_]*)"
    rf"|(?P<op>[{re.escape(''.join(_BINARY))}(),])"
    r"|(?P<end>\Z))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while not tokens or tokens[-1][0] != "end":
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            raise ExprSyntaxError(f"unexpected character {stripped[0]!r}", len(text) - len(stripped))
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, value: str) -> None:
        kind, val, off = self.next()
        if val != value:
            raise ExprSyntaxError(f"expected {value!r}, found {val!r}" if val else f"expected {value!r}", off)

    def expr(self, level: int = _ADD) -> Expr:
        """The longest expression at ``level`` or tighter."""
        if level == _NEG and self.peek()[1] == "-":
            self.next()
            return Neg(self.expr(_NEG))
        if level == _ATOM:
            return self.atom()
        node = self.expr(level + 1)  # no operator has level _NEG: there this is the power
        while (row := _BINARY.get(self.peek()[1])) is not None and row.level == level:
            node = BinOp(self.next()[1], node, self.expr(row.right))
            if row.left > level:  # right-associative: the left operand binds tighter
                break
        return node

    def group(self, n: int) -> list[Expr]:
        """``'(' expr (',' expr)* ')'`` with ``n`` expressions."""
        self.expect("(")
        args = [self.expr()]
        while len(args) < n:
            self.expect(",")
            args.append(self.expr())
        self.expect(")")
        return args

    def atom(self) -> Expr:
        kind, val, off = self.peek()
        if val == "(":
            return self.group(1)[0]
        self.next()
        if kind == "num":
            return Num(float(val))
        if kind == "id":
            if val == "t":
                return Var()
            if val in CONSTANTS:
                return Const(val)
            if val == "chi":
                return Chi(*self.group(2), *self.group(1))
            if val in FUNCTIONS:
                return Call(val, *self.group(1))
            raise ExprSyntaxError(f"unknown identifier {val!r}", off)
        raise ExprSyntaxError(f"unexpected {val!r}" if val else "unexpected end of input", off)


def parse(text: str) -> Expr:
    """Parse ``text`` into an expression tree."""
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    parser = _Parser(text)
    node = parser.expr()
    kind, val, off = parser.peek()
    if kind != "end":
        raise ExprSyntaxError(f"unexpected {val!r}", off)
    return node


def _fmt(node: Expr, min_level: int) -> str:
    level = _ATOM
    if isinstance(node, Num):
        text = repr(node.value)
    elif isinstance(node, (Var, Const)):
        text = node.name
    elif isinstance(node, Neg):
        level = _NEG
        text = "-" + _fmt(node.arg, _POW)
    elif isinstance(node, BinOp):
        row = _BINARY[node.op]
        level = row.level
        text = _fmt(node.left, row.left) + node.op + _fmt(node.right, row.right)
    elif isinstance(node, Call):
        text = f"{node.func}({_fmt(node.arg, 0)})"
    elif isinstance(node, Chi):
        text = f"chi({_fmt(node.lo, 0)},{_fmt(node.hi, 0)})({_fmt(node.arg, 0)})"
    else:  # pragma: no cover
        raise TypeError(f"not an Expr node: {node!r}")
    return "(" + text + ")" if level < min_level else text


def pretty(node: Expr) -> str:
    """Render a tree back to source; ``parse(pretty(x))`` equals ``x``."""
    return _fmt(node, 0)


def _eval(node: Expr, t):
    if isinstance(node, Num):
        return complex(node.value)
    if isinstance(node, Var):
        return t
    if isinstance(node, Const):
        return CONSTANTS[node.name]
    if isinstance(node, Neg):
        return -_eval(node.arg, t)
    if isinstance(node, BinOp):
        return _check_finite(_BINARY[node.op].apply(_eval(node.left, t), _eval(node.right, t), node), node)
    if isinstance(node, Call):
        return _check_finite(FUNCTIONS[node.func].apply(_eval(node.arg, t), node), node)
    if isinstance(node, Chi):
        lo, hi, arg = (_eval(part, t) for part in (node.lo, node.hi, node.arg))
        for part, val in (("lower bound", lo), ("upper bound", hi), ("argument", arg)):
            if np.any(np.imag(val) != 0):
                raise EvalDomainError(f"complex {part} for indicator", pretty(node))
        mask = (np.real(lo) < np.real(arg)) & (np.real(arg) < np.real(hi))
        return np.asarray(mask, dtype=np.complex128)
    raise TypeError(f"not an Expr node: {node!r}")  # pragma: no cover


def evaluate(node: Expr, t: float) -> complex:
    """Evaluate at a single real parameter value."""
    if not np.isfinite(t):
        raise EvalDomainError("nonfinite parameter", "t")
    return complex(evaluate_array(node, [t])[0])


def evaluate_array(node: Expr, t: np.ndarray) -> np.ndarray:
    """Vectorized evaluation over a real sample array (complex128 output)."""
    with np.errstate(all="ignore"):
        out = _eval(node, np.asarray(t, dtype=np.float64))
    return np.asarray(out, dtype=np.complex128) + np.zeros(np.shape(t), dtype=np.complex128)


def parity(node) -> int:
    """EVEN, ODD or UNKNOWN, from the tree alone: sound rules, not complete ones.

    ``chi(a,b)(u)`` is even when a, b and u are, or when u is odd and the
    bounds are -b and an even b.  Anything but a tree is UNKNOWN.
    """
    if isinstance(node, (Num, Const, Var)):
        return ODD if isinstance(node, Var) else EVEN
    if isinstance(node, Neg):
        return parity(node.arg)
    if isinstance(node, BinOp):
        return _BINARY[node.op].parity(node, parity(node.left), parity(node.right))
    if isinstance(node, Call):
        return FUNCTIONS[node.func].parity(parity(node.arg))
    if isinstance(node, Chi):
        arg = parity(node.arg)
        mirrored = Neg(node.hi) == node.lo or Neg(node.lo) == node.hi
        even_bounds = parity(node.lo) == parity(node.hi) == EVEN
        return EVEN if even_bounds and (arg == EVEN or arg == ODD and mirrored) else UNKNOWN
    return UNKNOWN


def _constant(node: Union[Num, Const]) -> complex:
    return complex(node.value) if isinstance(node, Num) else CONSTANTS[node.name]


def _affine(node) -> Optional[tuple[complex, complex]]:
    """(k, c) with the tree k t + c, or None where its tree shows no such form."""
    if isinstance(node, (Num, Const)):
        return 0j, _constant(node)
    if isinstance(node, Var):
        return 1 + 0j, 0j
    if isinstance(node, Neg):
        arg = _affine(node.arg)
        return None if arg is None else (-arg[0], -arg[1])
    if isinstance(node, BinOp):
        left, right = _affine(node.left), _affine(node.right)
        return None if left is None or right is None else _BINARY[node.op].affine(left, right)
    return None


def band(node) -> Optional[Band]:
    """The tree as a trigonometric polynomial in t, from the tree alone, or None.

    Constants have degree 0.  sin and cos of k t + c with a real integer k,
    and exp of i k t + c, have degree |k|.  A sum has the larger degree of
    its terms, a product the sum of its factors', a quotient by a constant
    leaf (a number or a named constant) its dividend's, and a power with a
    number exponent n, an integer >= 0, n times its base's.  t itself, chi,
    the other functions and anything but a tree have none.  ``norm`` bounds
    sum |c_k| by the same rules: the triangle inequality for sums and
    sum |c_k| of a product at most the product of its factors' sums.
    """
    if isinstance(node, (Num, Const)):
        return Band(0, abs(_constant(node)))
    if isinstance(node, Neg):
        return band(node.arg)
    if isinstance(node, BinOp):
        return _BINARY[node.op].band(node, band(node.left), band(node.right))
    if isinstance(node, Call):
        return FUNCTIONS[node.func].band(_affine(node.arg))
    return None
