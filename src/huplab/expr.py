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
row per binary operator (precedence, operand print levels, evaluation, parity
rule) and per function FUNC (evaluation, parity rule), which the parser,
printer, evaluator and :func:`parity` look up.  ``chi(a,b)(x)`` is the
indicator of the open interval (a, b): 1 for a < x < b, 0 otherwise; the
endpoints themselves evaluate to 0.  Complex values are written ``a+b*i``.

Evaluation is total on its domain: division by zero, log of a nonpositive
real, and nonfinite intermediates raise :class:`EvalDomainError` instead of
propagating NaN/inf.  Trees are immutable; parse/print round-trips preserve
structure exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, NamedTuple, Union

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


# every operator's and function's value is checked to be finite after ``apply``
class _Binary(NamedTuple):
    level: int  # the operator's precedence level
    left: int  # the levels its operands print at
    right: int
    apply: Callable  # (left value, right value, node) -> value
    parity: Callable  # (node, left parity, right parity) -> parity


class _Function(NamedTuple):
    apply: Callable  # (argument value, node) -> value
    parity: Callable  # argument parity -> parity


# parity rules of a binary operator: the operands' common parity, or their product
_shared = lambda node, p, q: p if p == q else UNKNOWN
_product = lambda node, p, q: p * q

_BINARY = {
    "+": _Binary(_ADD, _ADD, _MUL, lambda a, b, node: a + b, _shared),
    "-": _Binary(_ADD, _ADD, _MUL, lambda a, b, node: a - b, _shared),
    "*": _Binary(_MUL, _MUL, _NEG, lambda a, b, node: a * b, _product),
    "/": _Binary(_MUL, _MUL, _NEG, _divide, _product),
    "^": _Binary(_POW, _ATOM, _NEG, _power, _power_parity),
}

# parity rules of a function of one argument: odd, even, or even on even arguments only
_odd = lambda p: p
_even = lambda p: p * p
_on_even = lambda p: EVEN if p == EVEN else UNKNOWN

FUNCTIONS = {
    "sin": _Function(lambda arg, node: np.sin(arg), _odd),
    "cos": _Function(lambda arg, node: np.cos(arg), _even),
    "exp": _Function(lambda arg, node: np.exp(arg), _on_even),
    "cosh": _Function(lambda arg, node: np.cosh(arg), _even),
    "sinh": _Function(lambda arg, node: np.sinh(arg), _odd),
    "sqrt": _Function(lambda arg, node: np.sqrt(np.asarray(arg, dtype=np.complex128) + 0.0), _on_even),
    "log": _Function(_log, _on_even),
    "abs": _Function(lambda arg, node: np.abs(arg), _even),
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
