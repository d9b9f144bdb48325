#!/usr/bin/env python3
"""Print a SHA-256 digest of what loading a fixed corpus of expression
sources builds, to compare code versions.

Usage: python scripts/parse_digest.py

The corpus is 3,000 seeded random sources on charts of one to three
coordinates, valid and faulty.  A faulty source carries one or two
faults: an unknown character, a syntax error, an unknown identifier or
function, nesting past the depth limit, or a constant subexpression
outside its domain (``1/0``, ``0^-1``, a negative base under a real
exponent).  Every constant part of a source is built from integer
literals with ``+ - * /`` and integer powers of integer literals, so
each number folded at load is exact IEEE arithmetic on any host;
functions apply only to arguments with a coordinate.

Each source goes through ``ExprField.parse``, the loader's entry point.
Its outcome is either the error's class and message, or the graph it
built, written node by node in post-order: the class, the coordinate
index, the rule's name and parameter, each constant by ``float.hex``,
and the indices of the inputs in order.  One digest over every outcome
is printed first, then a tally of the outcomes by kind.  Two versions of
the code build the same nodes and report the same errors for the corpus
exactly when the first lines agree.

``scripts/parse_digest.expected`` holds the first line for the committed
code, and CI fails when the printed one differs.
"""

import hashlib
import random
import sys
from collections import Counter

from momsec.expressions import ExpressionError
from momsec.fields import Chart, ConstField, CoordField, ExprField, RuleField, ScaledField

SOURCES = 3000
SEED = 20261020
NAMES = ("x", "y", "z")
FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "tanh", "abs")


def _number(v) -> str:
    return float.hex(v) if isinstance(v, float) else repr(v)


def params(node) -> tuple:
    """What a node computes besides its inputs."""
    if isinstance(node, (ConstField, ScaledField)):
        return (_number(node.c),)
    if isinstance(node, CoordField):
        return (node.i,)
    if isinstance(node, RuleField):
        rule, param = node._kind
        return (rule.__name__, _number(param))
    return ()


def graph(root) -> list:
    """The nodes under ``root`` in post-order, each once, with its inputs
    as indices into the list."""
    index, records, stack = {}, [], [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in index:
            continue
        if expanded:
            index[id(node)] = len(records)
            inputs = tuple(index[id(n)] for n in node.inputs)
            records.append((type(node).__name__, node.dim, *params(node), inputs))
            continue
        stack.append((node, True))
        stack.extend((n, False) for n in reversed(node.inputs))
    return records


class Sources:
    """The seeded generator of the corpus."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def constant(self, depth: int) -> str:
        """An integer-literal expression: its folds are exact."""
        r = self.rng
        roll = r.random()
        if depth == 0 or roll < 0.35:
            return str(r.randint(0, 9))
        if roll < 0.45:
            return f"{r.randint(0, 4)}^{r.choice(('', '-'))}{r.randint(0, 3)}"
        if roll < 0.55:
            return f"-{self.constant(depth - 1)}"
        op = r.choice("+-*/")
        return f"({self.constant(depth - 1)} {op} {self.constant(depth - 1)})"

    def expr(self, depth: int, coords) -> str:
        """An expression with at least one coordinate."""
        r = self.rng
        roll = r.random()
        if depth == 0 or roll < 0.2:
            return r.choice(coords)
        if roll < 0.3:
            return f"-{self.expr(depth - 1, coords)}"
        if roll < 0.42:
            return f"{r.choice(FUNCTIONS)}({self.expr(depth - 1, coords)})"
        if roll < 0.56:
            base = self.expr(depth - 1, coords)
            if r.random() < 0.25:
                exponent = self.expr(depth - 1, coords)
            elif r.random() < 0.5:
                exponent = str(r.randint(0, 4))
            else:
                exponent = f"({self.constant(2)})"
            return f"({base})^{exponent}" if r.random() < 0.7 else f"{base}^{exponent}"
        left = self.expr(depth - 1, coords) if r.random() < 0.7 else self.constant(depth - 1)
        right = self.expr(depth - 1, coords) if r.random() < 0.5 else self.constant(depth - 1)
        if r.random() < 0.5:
            left, right = right, left
        text = f"{left} {r.choice('+-*/')} {right}"
        return f"({text})" if r.random() < 0.5 else text

    def fault(self, source: str) -> str:
        """``source`` with one fault put in."""
        r = self.rng
        kind = r.randrange(7)
        at = r.randint(0, len(source))
        if kind == 0:
            return source[:at] + r.choice("$#!,") + source[at:]
        if kind == 1:
            return source + r.choice((" +", " *", ")", " (", " x"))
        if kind == 2:
            return source[:at] + " " + r.choice(("q", "w1", "sinh(x)", "x(1)")) + " " + source[at:]
        if kind == 3:
            return " + ".join([r.choice(("x", "1"))] * 100) + " + " + source
        if kind == 4:
            return "(" * 100 + source + ")" * 100
        if kind == 5:
            return f"{source} {r.choice('+-*')} {r.choice(('1/0', '(3 - 3)^-1', '(0 - 4)^(1/2)', '(2 - 2)^(0 - 3)'))}"
        return f"{r.choice(('1/0', '0^-2', '(1 - 3)^(3/2)'))} * {source}"

    def corpus(self, count: int):
        r = self.rng
        for _ in range(count):
            coords = NAMES[: r.randint(1, 3)]
            source = self.expr(r.randint(0, 5), coords)
            for _ in range(r.choice((0, 0, 0, 1, 1, 2))):
                source = self.fault(source)
            yield coords, source


def outcome(source: str, chart: Chart) -> tuple[str, str]:
    """(kind, canonical text) of loading ``source`` on ``chart``."""
    try:
        node = ExprField.parse(source, chart)
    except ExpressionError as exc:
        return type(exc).__name__, f"{type(exc).__name__}: {exc}"
    return "built", repr(graph(node))


def main() -> int:
    total = hashlib.sha256()
    tally = Counter()
    charts = {}
    for coords, source in Sources(SEED).corpus(SOURCES):
        chart = charts.setdefault(coords, Chart(coords, ((-1.0, 1.0),) * len(coords)))
        kind, text = outcome(source, chart)
        tally[kind] += 1
        total.update(f"{' '.join(coords)}\n{source}\n{text}\n".encode())
    print(total.hexdigest())
    print(" ".join(f"{kind}={n}" for kind, n in sorted(tally.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
