"""Expression language for chart-local scalar functions.

Sources such as ``"x^2 * sin(y)"`` are parsed against a fixed list of
coordinate names and evaluated to second-order jets (value, gradient,
Hessian) over a whole point sample at once.  Jet arithmetic implements
the product and chain rules exactly, so derivatives carry only floating
rounding error.

Grammar (loosest to tightest binding)::

    expr    :=  term  (("+" | "-") term)*
    term    :=  factor (("*" | "/") factor)*
    factor  :=  "-" factor | power
    power   :=  atom ("^" factor)?          # right associative
    atom    :=  NUMBER | IDENT | IDENT "(" expr ")" | "(" expr ")"

``^`` accepts integer and real exponents; real exponents require a
positive base at evaluation time.  The function table is ``sin cos tan
exp log sqrt tanh abs``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "tanh", "abs")


class ExpressionError(ValueError):
    """Base class for problems with expression sources or evaluation."""


class LexError(ExpressionError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (offset {position})")
        self.position = position


class ParseError(ExpressionError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (offset {position})")
        self.position = position


class UnknownSymbolError(ParseError):
    pass


class DomainError(ExpressionError):
    """Evaluation left the domain of a subexpression (log, sqrt, 1/0, ...)."""

    def __init__(self, message: str, subexpression: "Expr"):
        super().__init__(f"{message} in '{pretty(subexpression)}'")
        self.subexpression = subexpression


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    index: int
    name: str


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: Expr


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr


@dataclass(frozen=True)
class Call(Expr):
    func: str
    arg: Expr


# ---------------------------------------------------------------------------
# Lexer

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^()])
    """,
    re.VERBOSE,
)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise LexError(f"unknown character {source[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(source)))
    return tokens


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, source: str, coords: tuple[str, ...]):
        self.tokens = _tokenize(source)
        self.pos = 0
        self.coords = {name: i for i, name in enumerate(coords)}

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, text, position = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}", position)
        return self.advance()

    def parse(self) -> Expr:
        node = self.expr()
        kind, text, position = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {text!r}", position)
        return node

    def expr(self) -> Expr:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                right = self.term()
                node = Add(node, right) if text == "+" else Sub(node, right)
            else:
                return node

    def term(self) -> Expr:
        node = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                right = self.factor()
                node = Mul(node, right) if text == "*" else Div(node, right)
            else:
                return node

    def factor(self) -> Expr:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.factor())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return Pow(base, self.factor())
        return base

    def atom(self) -> Expr:
        kind, text, position = self.advance()
        if kind == "number":
            return Num(float(text))
        if kind == "ident":
            nxt_kind, nxt_text, _ = self.peek()
            if nxt_kind == "op" and nxt_text == "(":
                if text not in FUNCTIONS:
                    raise UnknownSymbolError(f"unknown function {text!r}", position)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Call(text, arg)
            if text not in self.coords:
                raise UnknownSymbolError(f"unknown identifier {text!r}", position)
            return Var(self.coords[text], text)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(f"expected a value, got {text!r}" if text else "unexpected end of input", position)


def parse(source: str, coords) -> Expr:
    """Parse ``source`` against the coordinate names ``coords``."""
    names = tuple(coords)
    if len(set(names)) != len(names):
        raise ValueError("coordinate names must be distinct")
    return _Parser(source, names).parse()


# ---------------------------------------------------------------------------
# Pretty printing (re-parses to an identical AST)

_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _pretty(node: Expr) -> tuple[str, int]:
    if isinstance(node, Num):
        return repr(node.value), _PREC_ATOM
    if isinstance(node, Var):
        return node.name, _PREC_ATOM
    if isinstance(node, Call):
        return f"{node.func}({_pretty(node.arg)[0]})", _PREC_ATOM
    if isinstance(node, Neg):
        inner = _wrap(node.operand, _PREC_UNARY)
        return f"-{inner}", _PREC_UNARY
    if isinstance(node, (Add, Sub)):
        op = "+" if isinstance(node, Add) else "-"
        left = _wrap(node.left, _PREC_ADD)
        right = _wrap(node.right, _PREC_ADD + 1)
        return f"{left} {op} {right}", _PREC_ADD
    if isinstance(node, (Mul, Div)):
        op = "*" if isinstance(node, Mul) else "/"
        left = _wrap(node.left, _PREC_MUL)
        right = _wrap(node.right, _PREC_MUL + 1)
        return f"{left} {op} {right}", _PREC_MUL
    if isinstance(node, Pow):
        base = _wrap(node.base, _PREC_ATOM)
        exponent = _wrap(node.exponent, _PREC_UNARY)
        return f"{base}^{exponent}", _PREC_POW
    raise TypeError(f"unknown node {node!r}")


def _wrap(node: Expr, min_prec: int) -> str:
    text, prec = _pretty(node)
    if prec < min_prec:
        return f"({text})"
    return text


def pretty(node: Expr) -> str:
    return _pretty(node)[0]


# ---------------------------------------------------------------------------
# Second-order jets


class Jet2:
    """Values, gradients and Hessians of a scalar function over a sample.

    For P points in d coordinates, ``value`` has shape ``(P,)``, ``grad``
    ``(P, d)`` and ``hess`` ``(P, d, d)``; row p is the jet at point p,
    and every rule below acts row by row.  ``row(p)`` reads one row back
    as a float value, a ``(d,)`` gradient and a ``(d, d)`` Hessian.

    ``hess`` (and then ``grad``) may be ``None`` for quantities produced
    by differentiating evaluated fields: each differentiation consumes
    one jet order, and arithmetic propagates the lowest order present.
    Entry-wise the stored Hessian is exactly symmetric: every rule below
    builds it from symmetric pieces only.
    """

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value, grad, hess):
        self.value = value
        self.grad = grad
        self.hess = hess

    @staticmethod
    def constant(value: float, count: int, dim: int) -> "Jet2":
        return Jet2(np.full(count, float(value)), np.zeros((count, dim)), np.zeros((count, dim, dim)))

    @staticmethod
    def coordinate(points: np.ndarray, index: int) -> "Jet2":
        count, dim = points.shape
        g = np.zeros((count, dim))
        g[:, index] = 1.0
        return Jet2(points[:, index].copy(), g, np.zeros((count, dim, dim)))

    def row(self, p: int) -> "Jet2":
        g = None if self.grad is None else self.grad[p]
        h = None if self.hess is None else self.hess[p]
        return Jet2(float(self.value[p]), g, h)

    def __add__(self, other: "Jet2") -> "Jet2":
        g = None if self.grad is None or other.grad is None else self.grad + other.grad
        h = None if g is None or self.hess is None or other.hess is None else self.hess + other.hess
        return Jet2(self.value + other.value, g, h)

    def __sub__(self, other: "Jet2") -> "Jet2":
        g = None if self.grad is None or other.grad is None else self.grad - other.grad
        h = None if g is None or self.hess is None or other.hess is None else self.hess - other.hess
        return Jet2(self.value - other.value, g, h)

    def __neg__(self) -> "Jet2":
        g = None if self.grad is None else -self.grad
        h = None if self.hess is None else -self.hess
        return Jet2(-self.value, g, h)

    def __mul__(self, other: "Jet2") -> "Jet2":
        value = self.value * other.value
        if self.grad is None or other.grad is None:
            return Jet2(value, None, None)
        grad = self.grad * other.value[:, None] + self.value[:, None] * other.grad
        if self.hess is None or other.hess is None:
            hess = None
        else:
            cross = self.grad[:, :, None] * other.grad[:, None, :]
            hess = (
                self.hess * other.value[:, None, None]
                + self.value[:, None, None] * other.hess
                + (cross + cross.transpose(0, 2, 1))
            )
        return Jet2(value, grad, hess)

    def scale(self, c: float) -> "Jet2":
        g = None if self.grad is None else c * self.grad
        h = None if self.hess is None else c * self.hess
        return Jet2(c * self.value, g, h)

    def reciprocal(self) -> "Jet2":
        inv = 1.0 / self.value
        return self.compose(inv, -(inv * inv), 2.0 * inv * inv * inv)

    def compose(self, f: np.ndarray, df: np.ndarray, d2f: np.ndarray) -> "Jet2":
        """Chain rule through a scalar function with derivatives f', f''."""
        if self.grad is None:
            return Jet2(f, None, None)
        grad = df[:, None] * self.grad
        if self.hess is None:
            hess = None
        else:
            outer = self.grad[:, :, None] * self.grad[:, None, :]
            hess = df[:, None, None] * self.hess + d2f[:, None, None] * outer
        return Jet2(f, grad, hess)


def _int_pow(u: Jet2, n: int, node: Expr) -> Jet2:
    if n == 0:
        return Jet2.constant(1.0, *u.grad.shape)
    if n < 0:
        if (u.value == 0.0).any():
            raise DomainError("zero base with negative exponent", node)
        return _int_pow(u, -n, node).reciprocal()
    v = u.value
    d2f = n * (n - 1) * v ** (n - 2) if n >= 2 else np.zeros_like(v)
    return u.compose(v**n, n * v ** (n - 1), d2f)


def eval_jets(node: Expr, points: np.ndarray) -> Jet2:
    """Evaluate ``node`` and its exact first and second derivatives at
    every row of the ``(P, d)`` array ``points``.  A domain violation at
    any point of the sample raises :class:`DomainError` naming the
    subexpression.
    """
    count, dim = points.shape
    if isinstance(node, Num):
        return Jet2.constant(node.value, count, dim)
    if isinstance(node, Var):
        if node.index >= dim:
            raise DomainError("point dimension too small for coordinate", node)
        return Jet2.coordinate(points, node.index)
    if isinstance(node, Add):
        return eval_jets(node.left, points) + eval_jets(node.right, points)
    if isinstance(node, Sub):
        return eval_jets(node.left, points) - eval_jets(node.right, points)
    if isinstance(node, Mul):
        return eval_jets(node.left, points) * eval_jets(node.right, points)
    if isinstance(node, Div):
        denom = eval_jets(node.right, points)
        if (denom.value == 0.0).any():
            raise DomainError("division by zero", node)
        return eval_jets(node.left, points) * denom.reciprocal()
    if isinstance(node, Neg):
        return -eval_jets(node.operand, points)
    if isinstance(node, Pow):
        base = eval_jets(node.base, points)
        expo = eval_jets(node.exponent, points)
        b = base.value
        p = expo.value[0]
        # a constant exponent means one number over the whole sample
        if not expo.grad.any() and not expo.hess.any() and (expo.value == p).all():
            if float(p).is_integer():
                return _int_pow(base, int(p), node)
            if (b <= 0.0).any():
                raise DomainError("real exponent requires a positive base", node)
            return base.compose(b**p, p * b ** (p - 1.0), p * (p - 1.0) * b ** (p - 2.0))
        # variable exponent: b^e = exp(e * log(b))
        if (b <= 0.0).any():
            raise DomainError("variable exponent requires a positive base", node)
        w = expo * base.compose(np.log(b), 1.0 / b, -1.0 / b**2)
        e = np.exp(w.value)
        return w.compose(e, e, e)
    if isinstance(node, Call):
        u = eval_jets(node.arg, points)
        v = u.value
        if node.func == "sin":
            s = np.sin(v)
            return u.compose(s, np.cos(v), -s)
        if node.func == "cos":
            c = np.cos(v)
            return u.compose(c, -np.sin(v), -c)
        if node.func == "tan":
            if (np.cos(v) == 0.0).any():
                raise DomainError("tan at a pole", node)
            t = np.tan(v)
            sec2 = 1.0 + t * t
            return u.compose(t, sec2, 2.0 * t * sec2)
        if node.func == "exp":
            e = np.exp(v)
            return u.compose(e, e, e)
        if node.func == "log":
            if (v <= 0.0).any():
                raise DomainError("log of a non-positive value", node)
            return u.compose(np.log(v), 1.0 / v, -1.0 / (v * v))
        if node.func == "sqrt":
            if (v < 0.0).any():
                raise DomainError("sqrt of a negative value", node)
            if (v == 0.0).any():
                raise DomainError("sqrt derivative at zero", node)
            s = np.sqrt(v)
            return u.compose(s, 0.5 / s, -0.25 / (s * v))
        if node.func == "tanh":
            t = np.tanh(v)
            sech2 = 1.0 - t * t
            return u.compose(t, sech2, -2.0 * t * sech2)
        if node.func == "abs":
            if (v == 0.0).any():
                raise DomainError("abs derivative at zero", node)
            return u.compose(np.abs(v), np.where(v > 0.0, 1.0, -1.0), np.zeros_like(v))
    raise TypeError(f"unknown node {node!r}")


def eval_jet(expr: Expr, point) -> Jet2:
    """The jet of ``expr`` at one point: a one-row sample, read back as row 0."""
    return eval_jets(expr, np.asarray(point, dtype=float).reshape(1, -1)).row(0)


def fd_cross_check(expr: Expr, point, step: float) -> float:
    """Max deviation of the jet derivatives from central finite differences.

    The gradient is checked against central differences of values, the
    Hessian against central differences of the jet gradient.  Intended
    for the test suite; the verification checks never use it.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    pt = np.asarray(point, dtype=float)
    d = pt.shape[0]
    jet = eval_jet(expr, pt)
    worst = 0.0
    for i in range(d):
        e = np.zeros(d)
        e[i] = step
        plus = eval_jet(expr, pt + e)
        minus = eval_jet(expr, pt - e)
        fd_grad = (plus.value - minus.value) / (2.0 * step)
        worst = max(worst, abs(jet.grad[i] - fd_grad))
        fd_hess_col = (plus.grad - minus.grad) / (2.0 * step)
        worst = max(worst, float(np.max(np.abs(jet.hess[:, i] - fd_hess_col))))
    return worst
