"""Expression language for chart-local scalar functions.

Sources such as ``"x^2 * sin(y)"`` are parsed against a fixed list of
coordinate names, with no syntax tree: :func:`parse` builds each
subexpression as it closes, which :class:`momsec.fields.ExprField` uses
to build field nodes.  The jet rules here, of :class:`Jet2` and of the
nodes the field algebra does not build, implement the product and chain
rules exactly, so derivatives carry only floating rounding error.

Grammar (loosest to tightest binding)::

    expr    :=  term  (("+" | "-") term)*
    term    :=  factor (("*" | "/") factor)*
    factor  :=  "-" factor | power
    power   :=  atom ("^" factor)?          # right associative
    atom    :=  NUMBER | IDENT | IDENT "(" expr ")" | "(" expr ")"

Every subexpression without a coordinate is a number, fixed when it is
built, so a domain error in one is found at load.
``^`` accepts integer and real exponents.  An exponent without a
coordinate is such a number; any other is variable, ``b^e = exp(e log
b)``.  A real or a variable exponent requires a positive base.  The
function table is ``sin cos tan exp log sqrt tanh abs``.

An expression nests at most ``MAX_DEPTH`` levels deep, in its tree (a
chain such as ``x + x + x`` is one level per operator) and in the
parentheses, calls, signs and exponents the parser enters.  Neither
depth is measured by recursing, so the limit, not Python's recursion
limit, decides which expressions parse.

A number literal beyond the float range, such as ``1e400``, is a
lexical error; one that underflows reads as the float it rounds to.

A source with several faults reports one, in this order: a lexical
error; then the first syntax error, unknown symbol or nesting too deep
in the parser's reading; then a tree more than ``MAX_DEPTH`` levels
high; and last a domain error in a subexpression without a coordinate,
the first in post-order.
"""

from __future__ import annotations

import math
import re

import numpy as np

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "tanh", "abs")
MAX_DEPTH = 100
_TOO_DEEP = f"expression nested more than {MAX_DEPTH} levels deep"


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
    """Evaluation left the domain of a subexpression (log, sqrt, 1/0, ...).

    ``subexpression`` is the text of the failing subexpression, and
    ``point`` the index of the first offending sample point, or ``None``
    when the failure does not depend on the point's coordinates.
    """

    def __init__(self, message: str, subexpression: str, point: int | None = None):
        where = "" if point is None else f" at sample point {point}"
        super().__init__(f"{message} in '{subexpression}'{where}")
        self.reason = message
        self.subexpression = subexpression
        self.point = point

    def shifted(self, offset: int) -> "DomainError":
        """The same error for a sample whose point 0 is point ``offset``
        of a larger one."""
        if self.point is None:
            return self
        return DomainError(self.reason, self.subexpression, self.point + offset)


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
        if m.lastgroup == "number" and math.isinf(float(m.group())):
            raise LexError(f"number {m.group()!r} is beyond the float range", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(source)))
    return tokens


# ---------------------------------------------------------------------------
# Parser

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}
# the precedence of a sign, a power and an atom, which binds tightest
_UNARY, _POWER, _ATOM = 3, 4, 5


def _unbuilt(*_):
    """The ``build`` of a parse that only checks its source."""


def _parse_tokens(tokens, coords: dict, build):
    """The recursive descent of the grammar above, on an explicit stack.
    An operand is ``(value, height, text, precedence)`` of a subexpression:
    what ``build`` made of it when it closed, its tree's height (a leaf is
    1), its canonical text and the precedence of that text.  ``pending``
    holds what waits for the operand being parsed: a sign ``("neg",
    None)``, a base ``("^", base)``, a binary operator and its left
    operand, or an open parenthesis ``("(", function name or None)``.
    ``operand`` is ``None`` while a factor is expected, and else the atom
    or parenthesis just closed; ``nesting`` counts the factors open.
    Returns what ``build`` made of the whole source."""
    pos = 0
    pending: list = []
    nesting = 0
    operand = None
    while True:
        kind, token, position = tokens[pos]
        if operand is None:
            nesting += 1
            if nesting > MAX_DEPTH:
                raise ExpressionError(_TOO_DEEP)
            pos += 1
            if kind == "op" and token in "-(":
                pending.append(("neg" if token == "-" else "(", None))
            elif kind == "ident" and tokens[pos][:2] == ("op", "("):
                if token not in FUNCTIONS:
                    raise UnknownSymbolError(f"unknown function {token!r}", position)
                pos += 1
                pending.append(("(", token))
            elif kind == "number":
                text = repr(float(token))
                operand = (build("num", float(token), text), 1, text, _ATOM)
            elif kind == "ident":
                if token not in coords:
                    raise UnknownSymbolError(f"unknown identifier {token!r}", position)
                operand = (build("var", coords[token], token), 1, token, _ATOM)
            else:
                raise ParseError(f"expected a value, got {token!r}" if token else "unexpected end of input", position)
            continue
        if kind == "op" and token == "^":
            pos += 1
            pending.append(("^", operand))
            operand = None
            continue
        # the factor of this atom ends, and so does each sign or power
        # that waited for it
        nesting -= 1
        while pending and pending[-1][0] in ("neg", "^"):
            op, base = pending.pop()
            value, height, text, precedence = operand
            text = text if precedence >= _UNARY else f"({text})"
            if op == "neg":
                text = "-" + text
                operand = (build(op, None, text, value), height + 1, text, _UNARY)
            else:
                base_value, base_height, base_text, base_precedence = base
                base_text = base_text if base_precedence >= _ATOM else f"({base_text})"
                text = f"{base_text}^{text}"
                height = (base_height if base_height > height else height) + 1
                operand = (build(op, None, text, base_value, value), height, text, _POWER)
            nesting -= 1
        # each waiting binary operator that binds at least as tightly as
        # this token, or all of them up to a parenthesis, takes the operand
        binary = kind == "op" and token in _PRECEDENCE
        while pending and _PRECEDENCE.get(pending[-1][0], 0) >= (_PRECEDENCE[token] if binary else 1):
            op, (left_value, left_height, left_text, left_precedence) = pending.pop()
            value, height, text, precedence = operand
            bound = _PRECEDENCE[op]
            left_text = left_text if left_precedence >= bound else f"({left_text})"
            text = text if precedence > bound else f"({text})"
            text = f"{left_text} {op} {text}"
            height = (left_height if left_height > height else height) + 1
            operand = (build(op, None, text, left_value, value), height, text, bound)
        if operand[1] > MAX_DEPTH:
            # the source is rejected whatever follows: build nothing more
            build, operand = _unbuilt, (None, operand[1], "", operand[3])
        if binary:
            pos += 1
            pending.append((token, operand))
            operand = None
            continue
        if pending:
            # only a parenthesis is left waiting
            if kind != "op" or token != ")":
                raise ParseError("expected ')'", position)
            pos += 1
            func = pending.pop()[1]
            if func is not None:
                value, height, text, _ = operand
                text = f"{func}({text})"
                operand = (build("call", func, text, value), height + 1, text, _ATOM)
            continue
        if kind != "end":
            raise ParseError(f"unexpected {token!r}", position)
        if operand[1] > MAX_DEPTH:
            raise ExpressionError(_TOO_DEEP)
        return operand[0]


def parse(source: str, coords, build):
    """What ``build`` makes of ``source``, parsed against the coordinate
    names ``coords``.  Each subexpression is built as it closes, by
    ``build(op, param, text, *values of its operands)``, with ``(op,
    param)`` ``("num", number)``, ``("var", coordinate index)``, ``("neg",
    None)``, ``("call", function name)`` or ``(op, None)`` for an operator
    ``+ - * / ^``; ``text`` is its canonical text, which parses to it."""
    index = {name: i for i, name in enumerate(coords)}
    if len(index) != len(coords):
        raise ValueError("coordinate names must be distinct")
    tokens = _tokenize(source)
    try:
        return _parse_tokens(tokens, index, build)
    except DomainError:
        # a syntax, symbol, nesting or height error anywhere in the source
        # is reported before a domain error
        _parse_tokens(tokens, index, _unbuilt)
        raise


# ---------------------------------------------------------------------------
# Second-order jets


class Jet2:
    """Values, gradients and Hessians of a scalar function over a sample.

    For P points in d coordinates, ``value`` has shape ``(P,)``, ``grad``
    ``(d, P)`` and ``hess`` ``(d, d, P)``: the point axis is last, so
    every rule below runs along the points.  A stack of n jets puts n in
    front, with ``value`` ``(n, P)``, ``grad`` ``(n, d, P)`` and ``hess``
    ``(n, d, d, P)``, and runs through the same rules as one jet does.
    ``row(p)`` reads point p of a single jet back as a float value, a
    ``(d,)`` gradient and a ``(d, d)`` Hessian.

    A jet is truncated at an order 0, 1 or 2: ``hess`` (and then
    ``grad``) is ``None`` when that derivative was not requested, or was
    consumed by differentiating an evaluated field.  Every rule computes
    the orders both of its operands carry and no more.  Values never
    depend on gradients, nor gradients on Hessians, so a truncated jet
    agrees bit for bit with the same parts of the full one.  Entry-wise
    the stored Hessian is exactly symmetric: every rule below builds it
    from symmetric pieces only.  A rule with an ``out`` jet writes each
    part into ``out``'s array for it instead of a new one.
    """

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value, grad, hess):
        self.value = value
        self.grad = grad
        self.hess = hess

    def row(self, p: int) -> "Jet2":
        g = None if self.grad is None else self.grad[..., p]
        h = None if self.hess is None else self.hess[..., p]
        return Jet2(float(self.value[p]), g, h)

    def minus(self, other: "Jet2", out: "Jet2 | None" = None) -> "Jet2":
        o = _NEW if out is None else out
        g = h = None
        if self.grad is not None and other.grad is not None:
            g = np.subtract(self.grad, other.grad, out=o.grad)
            if self.hess is not None and other.hess is not None:
                h = np.subtract(self.hess, other.hess, out=o.hess)
        return Jet2(np.subtract(self.value, other.value, out=o.value), g, h)

    def times(self, other: "Jet2", out: "Jet2 | None" = None) -> "Jet2":
        o = _NEW if out is None else out
        value = np.multiply(self.value, other.value, out=o.value)
        if self.grad is None or other.grad is None:
            return Jet2(value, None, None)
        u, v = self.value[..., None, :], other.value[..., None, :]
        # u' v + u v', added in place into the first product
        grad = np.multiply(self.grad, v, out=o.grad)
        grad += u * other.grad
        if self.hess is None or other.hess is None:
            return Jet2(value, grad, None)
        u, v = u[..., None, :], v[..., None, :]
        cross = self.grad[..., :, None, :] * other.grad[..., None, :, :]
        hess = np.multiply(self.hess, v, out=o.hess)
        hess += u * other.hess
        hess += cross + np.swapaxes(cross, -2, -3)
        return Jet2(value, grad, hess)

    def scale(self, c, out: "Jet2 | None" = None) -> "Jet2":
        """This jet times ``c``: a number, or for a stack of n jets an
        ``(n,)`` array with one factor per jet."""
        c = np.asarray(c)
        o = _NEW if out is None else out
        g = None if self.grad is None else np.multiply(c[..., None, None], self.grad, out=o.grad)
        h = None if self.hess is None else np.multiply(c[..., None, None, None], self.hess, out=o.hess)
        return Jet2(np.multiply(c[..., None], self.value, out=o.value), g, h)

    def reciprocal(self) -> "Jet2":
        inv = 1.0 / self.value
        return self.compose(inv, lambda: -(inv * inv), lambda: 2.0 * inv * inv * inv)

    def compose(self, f: np.ndarray, df, d2f) -> "Jet2":
        """Chain rule through a scalar function with values ``f``.  The
        callables ``df`` and ``d2f`` return f' and f'' at the values; each
        is called only when this jet carries that order."""
        if self.grad is None:
            return Jet2(f, None, None)
        d1 = df()[..., None, :]
        grad = d1 * self.grad
        if self.hess is None:
            return Jet2(f, grad, None)
        outer = self.grad[..., :, None, :] * self.grad[..., None, :, :]
        hess = d1[..., None, :] * self.hess + d2f()[..., None, None, :] * outer
        return Jet2(f, grad, hess)


# the ``out`` of a rule that writes every part into a new array
_NEW = Jet2(None, None, None)


def _check_domain(bad: np.ndarray, message: str, texts):
    """Raise :class:`DomainError` at the first sample point where ``bad``,
    ``(n, P)`` for the n ``texts``, holds, naming the first failing there."""
    if bad.any():
        p = int(np.argmax(bad.any(axis=0)))
        raise DomainError(message, texts[int(np.argmax(bad[:, p]))], p)


# The rules of the nodes the field algebra does not build, called as
# ``rule(param, texts, *operands)`` on stacks of jets of the
# subexpressions ``texts``.  Domain checks fire at every order, those on
# derivatives (``sqrt`` and ``abs`` at 0) too.


def quotient(_, texts, a: Jet2, b: Jet2) -> Jet2:
    _check_domain(b.value == 0.0, "division by zero", texts)
    return a.times(b.reciprocal())


def _int_pow(u: Jet2, n: int, texts) -> Jet2:
    """u^n for an integer n != 0."""
    if n < 0:
        _check_domain(u.value == 0.0, "zero base with negative exponent", texts)
        return _int_pow(u, -n, texts).reciprocal()
    v = u.value
    d2f = (lambda: n * (n - 1) * v ** (n - 2)) if n >= 2 else (lambda: np.zeros_like(v))
    return u.compose(v**n, lambda: n * v ** (n - 1), d2f)


def power(p: float, texts, u: Jet2) -> Jet2:
    """u^p for a number p."""
    if p == 0.0:
        return Jet2(np.ones_like(u.value), *(None if x is None else np.zeros_like(x) for x in (u.grad, u.hess)))
    if float(p).is_integer():
        return _int_pow(u, int(p), texts)
    b = u.value
    _check_domain(b <= 0.0, "real exponent requires a positive base", texts)
    return u.compose(b**p, lambda: p * b ** (p - 1.0), lambda: p * (p - 1.0) * b ** (p - 2.0))


def variable_power(_, texts, base: Jet2, exponent: Jet2) -> Jet2:
    """b^e = exp(e * log(b))."""
    b = base.value
    _check_domain(b <= 0.0, "variable exponent requires a positive base", texts)
    w = exponent.times(base.compose(np.log(b), lambda: 1.0 / b, lambda: -1.0 / b**2))
    e = np.exp(w.value)
    return w.compose(e, lambda: e, lambda: e)


def call(func: str, texts, u: Jet2) -> Jet2:
    """``func`` of the table applied to u."""
    v = u.value
    if func == "sin":
        s = np.sin(v)
        return u.compose(s, lambda: np.cos(v), lambda: -s)
    if func == "cos":
        c = np.cos(v)
        return u.compose(c, lambda: -np.sin(v), lambda: -c)
    if func == "tan":
        _check_domain(np.cos(v) == 0.0, "tan at a pole", texts)
        t = np.tan(v)
        return u.compose(t, lambda: 1.0 + t * t, lambda: 2.0 * t * (1.0 + t * t))
    if func == "exp":
        e = np.exp(v)
        return u.compose(e, lambda: e, lambda: e)
    if func == "log":
        _check_domain(v <= 0.0, "log of a non-positive value", texts)
        return u.compose(np.log(v), lambda: 1.0 / v, lambda: -1.0 / (v * v))
    if func == "sqrt":
        _check_domain(v < 0.0, "sqrt of a negative value", texts)
        _check_domain(v == 0.0, "sqrt derivative at zero", texts)
        s = np.sqrt(v)
        return u.compose(s, lambda: 0.5 / s, lambda: -0.25 / (s * v))
    if func == "tanh":
        t = np.tanh(v)
        return u.compose(t, lambda: 1.0 - t * t, lambda: -2.0 * t * (1.0 - t * t))
    if func == "abs":
        _check_domain(v == 0.0, "abs derivative at zero", texts)
        return u.compose(np.abs(v), lambda: np.where(v > 0.0, 1.0, -1.0), lambda: np.zeros_like(v))
    raise ValueError(f"unknown function {func!r}")
