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

Functions: sin, cos, exp, cosh, sinh, sqrt, log, abs.  ``chi(a,b)(x)`` is the
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
from typing import Union

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

FUNCTIONS = ("sin", "cos", "exp", "cosh", "sinh", "sqrt", "log", "abs")
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
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


@dataclass(frozen=True)
class Chi:
    lo: "Expr"
    hi: "Expr"
    arg: "Expr"


Expr = Union[Num, Var, Const, Neg, BinOp, Call, Chi]

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<id>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ExprSyntaxError(f"unexpected character {stripped[0]!r}", len(text) - len(stripped))
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "id":
            tokens.append(("id", m.group("id"), m.start("id")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
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

    def parse(self) -> Expr:
        node = self.expr()
        kind, val, off = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected {val!r}", off)
        return node

    def expr(self) -> Expr:
        node = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.peek()[1] in ("*", "/"):
            op = self.next()[1]
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> Expr:
        if self.peek()[1] == "-":
            self.next()
            return Neg(self.factor())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek()[1] == "^":
            self.next()
            return BinOp("^", base, self.factor())
        return base

    def atom(self) -> Expr:
        kind, val, off = self.next()
        if kind == "num":
            return Num(float(val))
        if kind == "id":
            if val == "t":
                return Var()
            if val in CONSTANTS:
                return Const(val)
            if val == "chi":
                self.expect("(")
                lo = self.expr()
                self.expect(",")
                hi = self.expr()
                self.expect(")")
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return Chi(lo, hi, arg)
            if val in FUNCTIONS:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return Call(val, arg)
            raise ExprSyntaxError(f"unknown identifier {val!r}", off)
        if val == "(":
            node = self.expr()
            self.expect(")")
            return node
        raise ExprSyntaxError(f"unexpected {val!r}" if val else "unexpected end of input", off)


def parse(text: str) -> Expr:
    """Parse ``text`` into an expression tree."""
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(text).parse()


_LEVEL_ADD, _LEVEL_MUL, _LEVEL_NEG, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _level(node: Expr) -> int:
    if isinstance(node, BinOp):
        if node.op in ("+", "-"):
            return _LEVEL_ADD
        if node.op in ("*", "/"):
            return _LEVEL_MUL
        return _LEVEL_POW
    if isinstance(node, Neg):
        return _LEVEL_NEG
    return _LEVEL_ATOM


def _fmt(node: Expr, min_level: int) -> str:
    text: str
    if isinstance(node, Num):
        text = repr(node.value)
    elif isinstance(node, Var):
        text = node.name
    elif isinstance(node, Const):
        text = node.name
    elif isinstance(node, Neg):
        text = "-" + _fmt(node.arg, _LEVEL_POW)
    elif isinstance(node, BinOp):
        if node.op in ("+", "-"):
            text = _fmt(node.left, _LEVEL_ADD) + node.op + _fmt(node.right, _LEVEL_MUL)
        elif node.op in ("*", "/"):
            text = _fmt(node.left, _LEVEL_MUL) + node.op + _fmt(node.right, _LEVEL_NEG)
        else:
            text = _fmt(node.left, _LEVEL_ATOM) + "^" + _fmt(node.right, _LEVEL_NEG)
    elif isinstance(node, Call):
        text = f"{node.func}({_fmt(node.arg, 0)})"
    elif isinstance(node, Chi):
        text = f"chi({_fmt(node.lo, 0)},{_fmt(node.hi, 0)})({_fmt(node.arg, 0)})"
    else:  # pragma: no cover
        raise TypeError(f"not an Expr node: {node!r}")
    if _level(node) < min_level:
        return "(" + text + ")"
    return text


def pretty(node: Expr) -> str:
    """Render a tree back to source; ``parse(pretty(x))`` equals ``x``."""
    return _fmt(node, 0)


def _check_finite(value, node: Expr):
    if not np.all(np.isfinite(value)):
        raise EvalDomainError("nonfinite value", pretty(node))
    return value


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
        left = _eval(node.left, t)
        right = _eval(node.right, t)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if node.op == "/":
            if np.any(right == 0):
                raise EvalDomainError("division by zero", pretty(node))
            return _check_finite(left / right, node)
        # + 0.0 turns a -0 imaginary part into +0, here and in sqrt: on the
        # negative real axis both then take the principal branch
        return _check_finite(np.power(left + 0.0, right), node)
    if isinstance(node, Call):
        arg = _eval(node.arg, t)
        if node.func == "abs":
            return np.abs(arg)
        if node.func == "sqrt":
            root = np.sqrt(np.asarray(arg, dtype=np.complex128) + 0.0)
            return root if np.ndim(arg) else complex(root)
        if node.func == "log":
            bad = (np.imag(arg) == 0) & (np.real(arg) <= 0)
            if np.any(bad):
                raise EvalDomainError("log of nonpositive real", pretty(node))
            out = np.log(np.asarray(arg, dtype=np.complex128)) if np.ndim(arg) else complex(np.log(complex(arg)))
            return _check_finite(out, node)
        fn = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "cosh": np.cosh, "sinh": np.sinh}[node.func]
        return _check_finite(fn(arg), node)
    if isinstance(node, Chi):
        lo = _eval(node.lo, t)
        hi = _eval(node.hi, t)
        arg = _eval(node.arg, t)
        for part, val in (("lower bound", lo), ("upper bound", hi), ("argument", arg)):
            if np.any(np.imag(val) != 0):
                raise EvalDomainError(f"complex {part} for indicator", pretty(node))
        mask = (np.real(lo) < np.real(arg)) & (np.real(arg) < np.real(hi))
        if np.ndim(mask):
            return np.asarray(mask, dtype=np.complex128)
        return 1 + 0j if mask else 0j
    raise TypeError(f"not an Expr node: {node!r}")  # pragma: no cover


def evaluate(node: Expr, t: float) -> complex:
    """Evaluate at a single real parameter value."""
    if not np.isfinite(t):
        raise EvalDomainError("nonfinite parameter", "t")
    with np.errstate(all="ignore"):
        out = _eval(node, float(t))
    return complex(out)


def evaluate_array(node: Expr, t: np.ndarray) -> np.ndarray:
    """Vectorized evaluation over a real sample array (complex128 output)."""
    with np.errstate(all="ignore"):
        out = _eval(node, np.asarray(t, dtype=np.float64))
    return np.asarray(out, dtype=np.complex128) + np.zeros(np.shape(t), dtype=np.complex128)


# how a tree's value at -t relates to its value at t; as numbers they
# multiply like the signs they stand for
EVEN, ODD, UNKNOWN = 1, -1, 0


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
        left, right = parity(node.left), parity(node.right)
        if node.op in ("+", "-"):
            return left if left == right else UNKNOWN
        if node.op in ("*", "/") or left == right == EVEN:
            return left * right
        if isinstance(node.right, Num) and float(node.right.value).is_integer():
            return left if node.right.value % 2 else left * left
        return UNKNOWN
    if isinstance(node, Call):
        arg = parity(node.arg)
        if node.func in ("sin", "sinh"):
            return arg
        return arg * arg if node.func in ("cos", "cosh", "abs") or arg == EVEN else UNKNOWN
    if isinstance(node, Chi):
        arg = parity(node.arg)
        mirrored = Neg(node.hi) == node.lo or Neg(node.lo) == node.hi
        even_bounds = parity(node.lo) == parity(node.hi) == EVEN
        return EVEN if even_bounds and (arg == EVEN or arg == ODD and mirrored) else UNKNOWN
    return UNKNOWN
