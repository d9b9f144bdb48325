"""Chart-local calculus on arrays of scalar fields.

A :class:`ScalarField` is a node of a field graph, evaluable to its
values over a point sample: a coordinate, a constant, or an algebraic
or expression combination of other fields.  A model's expressions are
parsed straight into such nodes when it loads (see :class:`ExprField`).
A coordinate partial is a field graph too: ``f.partial(i)`` builds it
from the field algebra by one rule per node class (sum, difference,
product and scaling rules, the quotient, power and chain rules of an
expression node, -N (dM) N for an entry of a matrix inverse N = M^{-1}),
and the zero singleton for a node with no path down to coordinate i.
So a derivative is evaluated as any other node is, to its values alone,
and a field may be differentiated any number of times.  A quantity that
a planner may read only through its partials is a :class:`Deferred` sum,
built only where its value is read.  Field graphs hold no sample data,
so a graph built once serves every sample.

Graphs are evaluated in two tiers, to the same bits.  :func:`interpret`
compiles nothing: it walks the graphs under groups of root fields once,
in level order, and evaluates each node by itself with the arithmetic
of its class's kernel.  ``ScalarField.eval`` and :func:`max_abs_fields`
evaluate this way, over the whole sample, and so does the first run of
a check's run plan (see :mod:`momsec.suites`).  A :class:`Program`,
compiled once from groups of root fields, is what a run plan uses from
its second run on.  It evaluates a chunk of points at a time, one group
of ready nodes of one class (and, for an expression node, rule) after
another, each by one numpy kernel over their stacked operand rows, so a
run costs numpy work per group, not interpreter work per node.  Each
node is evaluated once per chunk, into one row of the program's value
table ``(S, P)``, the point axis last, so every kernel runs along the
points; a kernel reads its operands with ``ndarray.take``, never by
fancy indexing.  A run plan compiles the graphs of every suite it
selects into one program, leaves included, so a program evaluates a
model's expressions together with everything built on them.  Only the
matrix inverse moves an axis, to hand ``np.linalg.inv`` one matrix per
point, and not for a diagonal matrix, whose inverse is computed
entrywise.

On top of scalar fields sit :class:`FormField` (differential k-forms),
:class:`VectorField` and :class:`MetricField`, with the exterior
derivative, wedge and interior products, and Lie derivatives.

Structural zeros are folded here and nowhere else.  A zero constant is
the only scalar field with ``is_zero`` set; a product with it, its
negation, scaling and partials are that zero again, and sums drop it.
Every sparse tensor of the package (forms here, bundle forms, the
bundle-valued forms of the multisymplectic tower, phase-space
polynomials) is a :class:`Components` container, which owns the
container contract: components are keyed by canonical index tuples,
looked up at any index tuple with the symmetry's sign, never stored when
zero, and combined by one algebra that returns early on an empty operand,
sometimes returning the operand itself, so a container is never modified
once built.  Contractions loop over stored components, not index ranges,
and ask for no zero: each term is placed where the dense loop over all
indices would add it, and each sum adds its terms in that order
(:func:`ordered_sums`), so every sum is the node that loop would build.

Equal nodes are one node.  The algebra (sums, differences, products,
negations, scalings, non-zero constants, coordinates, the expression
nodes of :func:`_node`, and a matrix inverse and its entries) looks
every node up in one module-level table before it builds it, keyed by
the node's class and constructor arguments, with input nodes compared
by identity and a sum keyed by its flattened terms.  The same table
keeps each partial a call to ``partial`` built, keyed by the node and
the coordinate, so asking again reads it.  Inputs are shared first, so
a node equal in structure to a live one is that node: builders ask for
what they need without handing nodes to each other, and a program
evaluates each distinct node once.  Nothing is rewritten (``a*b`` and
``b*a`` stay two nodes), so every value is the same, bit for bit, as
without sharing.  The table holds its nodes weakly, in slotted entries
that carry their key, so a dropped graph leaves it at once.  The
constants 0 and 1 are per-dimension singletons outside it.  A
subexpression in several entries, or an equal graph of two live models,
is therefore one node.

Every residual row is labeled here too, by :func:`index_label` and
:meth:`Components.rows`, so one quantity carries one label in every
module and agreement rows can be matched by label.  A label is a
space-separated token per index: the index group's letter before the
1-based index, as in ``"a1 b2"`` (bundle indices a, b) or ``"a1 i1 i2"``
(a bundle index, then the two indices of a 2-form component); an empty
index tuple adds no token.  The common letters are ``a`` and ``b`` for
bundle indices (``b`` also for every argument tuple of the
multisymplectic tower), ``i`` for chart and form indices, ``e`` for
bundle-form indices and ``p`` for momentum monomials.
"""

from __future__ import annotations

import math
import operator
import weakref
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import chain, count
from operator import attrgetter

import numpy as np

from .expressions import DomainError, call, parse, power, quotient, variable_power


@dataclass(frozen=True)
class Chart:
    """Chart dimension, coordinate names and the sampling box."""

    coordinates: tuple[str, ...]
    box: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.coordinates) < 1:
            raise ValueError("chart needs at least one coordinate")
        if len(self.box) != len(self.coordinates):
            raise ValueError("sampling box must give one interval per coordinate")
        for lo, hi in self.box:
            # a finite width keeps every sampled point finite
            if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(hi - lo)):
                raise ValueError("sampling intervals need finite endpoints and width")
            if not hi > lo:
                raise ValueError("sampling intervals must be non-degenerate")

    @cached_property
    def dim(self) -> int:
        return len(self.coordinates)

    @cached_property
    def _corner(self) -> tuple[np.ndarray, np.ndarray]:
        """The box's lower corner and its widths, made once per chart."""
        lo = np.array([b[0] for b in self.box])
        return lo, np.array([b[1] for b in self.box]) - lo

    def sample(self, count: int, seed: int) -> np.ndarray:
        """Uniform points in the box from a seeded 64-bit generator."""
        rng = np.random.default_rng(seed)
        lo, width = self._corner
        points = lo + rng.random((count, self.dim)) * width
        # read-only: every suite of a run evaluates this one sample
        points.flags.writeable = False
        return points


# ---------------------------------------------------------------------------
# Scalar fields


# Every live node the algebra has built, keyed by its class and its
# constructor arguments, input nodes by identity, and every partial a
# call to ``partial`` built, keyed by ``(_PARTIAL, node, i)``; each entry
# refers to its node weakly and goes when its node does.
_NODES: dict = {}
_PARTIAL = "partial"
# numbers the nodes in the order the table builds them
_SERIAL = count()


class _Entry(weakref.ref):
    """``weakref.KeyedRef`` without its Python constructor: a fifth of the cost."""

    __slots__ = ("key",)


def _forget(ref, nodes=_NODES):
    # ``nodes`` is bound here, so a node freed at interpreter exit still
    # finds the table; a new node of its key may have taken its entry
    if nodes.get(ref.key) is ref:
        del nodes[ref.key]


def _live(key):
    """The live node the table holds under ``key``, or None."""
    ref = _NODES.get(key)
    return None if ref is None else ref()


def _keep(key, node):
    """Enter ``node`` in the table under ``key``."""
    ref = _NODES[key] = _Entry(node, _forget)
    ref.key = key


def _shared(cls, *args):
    """The node ``cls(*args)``: the live one built already, or a new one."""
    key = (cls, *args)
    ref = _NODES.get(key)
    if ref is not None:
        node = ref()
        if node is not None:
            return node
    node = cls(*args)
    node.serial = next(_SERIAL)
    ref = _NODES[key] = _Entry(node, _forget)
    ref.key = key
    return node


_LEVEL, _INPUTS = attrgetter("level"), attrgetter("inputs")


class ScalarField:
    """A scalar function on a chart: a node of a field graph without
    cycles.  ``inputs`` are the nodes it is built on, ``level`` is 0 for a
    leaf and else one more than its highest input's, and bit i of
    ``reach`` is set when a path leads from it down to coordinate i.

    ``eval(points)`` gives its values over a ``(P, d)`` sample, each node
    under it evaluated by itself (see :func:`eval_groups`); ``value`` reads
    them at one point, and ``jet`` is the name tools wrap for it.

    Every subclass supplies ``_kernel(program, out, *args)``, which
    evaluates a group of its nodes at once into ``out``, the rows of their
    slots, from its operands' slots in the program's table and the
    attributes named in ``_params`` (or from its own ``_args``);
    ``_compute(values, points)``, which evaluates the node alone by the
    same arithmetic from ``values``, its inputs' values keyed by node; and
    ``_derivative(i)``, its partial by the rule of its class, for an ``i``
    it reaches.  ``_kind`` keys the nodes that one kernel may evaluate
    together: the class, or what one kernel of a class needs to share.
    """

    dim: int
    inputs: tuple = ()
    level = 0
    reach = 0
    # the table's number of the node; -1 for one built outside it
    serial = -1

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._kind = cls

    def _built_on(self, inputs: tuple):
        self.inputs = inputs
        level = reach = 0
        for node in inputs:
            if node.level >= level:
                level = node.level + 1
            reach |= node.reach
        self.level = level
        self.reach = reach

    def eval(self, points: np.ndarray) -> np.ndarray:
        return eval_groups([[self]], points, self.dim)[0][0]

    def value(self, point) -> float:
        return float(self.eval(np.asarray(point, dtype=float).reshape(1, -1))[0])

    jet = value

    # only a zero ConstField is a structural zero
    is_zero = False

    # Algebra.  Known structural zeros are folded away so that sparse
    # contractions stay cheap and cancellations stay exact; every node
    # built is looked up in the node table first (see _shared).
    def __add__(self, other: "ScalarField") -> "ScalarField":
        return field_sum_d((self, other), self.dim)

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        if other.is_zero:
            return self
        if other.__class__ is Deferred:
            other = other.node
        return _shared(DiffField, self, other)

    def __mul__(self, other: "ScalarField") -> "ScalarField":
        if self.is_zero:
            return self
        if other.is_zero:
            return other
        if other.__class__ is Deferred:
            other = other.node
        return _shared(ProdField, self, other)

    # ConstField overrides the two below, so here self is never zero
    def __neg__(self) -> "ScalarField":
        return _shared(ScaledField, -1.0, self)

    def scaled(self, c: float) -> "ScalarField":
        if c == 0.0:
            return ZERO[self.dim]
        if c == 1.0:
            return self
        return _shared(ScaledField, c, self)

    def partial(self, i: int) -> "ScalarField":
        """The partial along coordinate ``i``: the zero singleton when no
        path leads down to that coordinate, else the node its class's rule
        builds.  The table keeps a partial this call built while it lives;
        one live already (an input, say) is found again by building it."""
        if not self.reach >> i & 1:
            return ZERO[self.dim]
        key = (_PARTIAL, self, i)
        ref = _NODES.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        first = next(_SERIAL)
        node = self._derivative(i)
        if node.serial > first:
            _keep(key, node)
        return node

    def _terms(self, i: int) -> list:
        """Terms whose sum, left to right, is ``partial(i)``: that node, or
        the terms of the sum it would be, so a sum adding them builds no other."""
        node = _live((_PARTIAL, self, i))
        return [node] if node is not None else self._parts(i)

    def _parts(self, i: int) -> list:
        return [self.partial(i)]

    @staticmethod
    def _arrange(nodes: list) -> list:
        """A group's nodes in slot order."""
        return nodes

    _params: tuple = ()

    @classmethod
    def _args(cls, nodes: list, slots) -> tuple:
        """Kernel arguments of a group: for each input position, the
        slots of that input of every node; then for each name in
        ``_params``, that attribute of every node."""
        # the nodes of a group have one number of inputs
        args = [_gather(column, slots) for column in zip(*map(_INPUTS, nodes))]
        for name in cls._params:
            args.append(np.array(list(map(attrgetter(name), nodes))))
        return tuple(args)


class ConstField(ScalarField):
    _params = ("c",)

    def __init__(self, value: float, dim: int):
        self.c = float(value)
        self.dim = dim
        self.is_zero = self.c == 0.0

    @staticmethod
    def _kernel(t, out, c):
        out[...] = c[:, None]

    def _compute(self, values, points):
        out = np.empty(len(points))
        out.fill(self.c)
        return out

    def scaled(self, c: float) -> "ScalarField":
        return self if self.is_zero else const_field(c * self.c, self.dim)

    def __neg__(self) -> "ScalarField":
        return self if self.is_zero else const_field(-self.c, self.dim)


class _Singletons(dict):
    """dim -> the constant ``value`` on a chart of dimension dim, made on
    first read: ``ZERO[dim]`` is one dict read."""

    def __init__(self, value: float):
        super().__init__()
        self.value = value

    def __missing__(self, dim: int) -> ConstField:
        node = self[dim] = ConstField(self.value, dim)
        return node


# zeros, the most frequent constant by far, and ones, which every
# coordinate's partial is, are per-dimension singletons outside the table
ZERO = _Singletons(0.0)
ONE = _Singletons(1.0)


def const_field(value: float, dim: int) -> ConstField:
    if value == 0.0:
        return ZERO[dim]
    if value == 1.0:
        return ONE[dim]
    return _shared(ConstField, value, dim)


class CoordField(ScalarField):
    """Coordinate ``i`` of the chart: column i of the sample."""

    _params = ("i",)

    def __init__(self, i: int, dim: int):
        self.i = i
        self.dim = dim
        self.reach = 1 << i

    @staticmethod
    def _kernel(t, out, i):
        out[...] = t.points[:, i].T

    def _compute(self, values, points):
        # contiguous, as a row of a program's table is
        return np.ascontiguousarray(points[:, self.i])

    def _derivative(self, i):
        return ONE[self.dim]


# Derivative rules build only what their result reads: each tests a
# derivative factor for zero before it multiplies by it, folds no
# constant but the singletons 0 and 1 (so a constant it builds stays an
# input; a product with 1 is its other factor), and builds a sum once,
# from the terms of the partials it adds (see ``_terms``), so every node
# a rule builds is an input of its result.


def _times(u: ScalarField, v: ScalarField) -> ScalarField:
    """u * v; either may be zero or one."""
    if u.is_zero or v.is_zero:
        return ZERO[u.dim]
    if u.__class__ is ConstField and u.c == 1.0:
        return v
    return u if v.__class__ is ConstField and v.c == 1.0 else u * v


def _scale(f: ScalarField, c: float) -> ScalarField:
    """c f for a number c != 0; a constant f other than 1 stays an input."""
    if f.__class__ is ConstField and not f.is_zero and f.c != 1.0 and c != 1.0:
        return _shared(ScaledField, c, f)
    return f.scaled(c)


def _minus(u: ScalarField, v: ScalarField) -> ScalarField:
    """u - v; either may be zero."""
    return _scale(v, -1.0) if u.is_zero else u - v


def _primed(text: str) -> str:
    """The text of a node a partial of the subexpression ``text`` builds."""
    return f"({text})'"


class RuleField(ScalarField):
    """A quotient, power or function node of an expression: ``rule`` of
    :mod:`momsec.expressions` with ``param`` (a number exponent or a
    function name) applied to its inputs.  ``text`` is the subexpression,
    which a domain error names.  Each node a partial of q builds that can
    leave its domain reads q (or is a quotient with q's text), so q's
    check fires first and names q; each other is named by :func:`_primed`,
    so no text is two computations."""

    def __init__(self, rule, param, text: str, *inputs: ScalarField):
        self._kind = (rule, param)
        self.text = text
        self.dim = inputs[0].dim
        self._built_on(inputs)

    @classmethod
    def _args(cls, nodes, slots):
        return (*nodes[0]._kind, [n.text for n in nodes], *super()._args(nodes, slots))

    @staticmethod
    def _kernel(t, out, rule, param, texts, *inputs):
        out[...] = rule(param, texts, *map(t.rows, inputs))

    def _compute(self, values, points):
        rule, param = self._kind
        return rule(param, (self.text,), *[values[f][None] for f in self.inputs])[0]

    def _derivative(self, i):
        rule, param = self._kind
        return _RULES[rule](self, param, i)


def _quotient_partial(q, _, i):
    # (a' - q b') / b, which leaves its domain where q does and names q
    a, b = q.inputs
    da, db = a.partial(i), b.partial(i)
    top = da if db.is_zero else _minus(da, _times(q, db))
    return top if top.is_zero else _shared(RuleField, quotient, None, q.text, top, b)


def _power_partial(q, p, i):
    # p u^(p-1) u': u^1 is u, an integer exponent above 2 lowers by one,
    # and any other is q / u, which reads q
    (u,) = q.inputs
    du = u.partial(i)
    if p == 0.0 or du.is_zero:
        return ZERO[q.dim]
    if p == 1.0:
        return du
    if p == 2.0:
        factor = u
    elif p > 2.0 and float(p).is_integer():
        factor = _shared(RuleField, power, p - 1.0, _primed(q.text), u)
    else:
        factor = _shared(RuleField, quotient, None, _primed(q.text), q, u)
    return _times(_scale(factor, p), du)


def _variable_power_partial(q, part, i):
    b, other = q.inputs
    db = b.partial(i)
    if part == "inverse":
        # d(1/b) = -(1/b)^2 b'
        return ZERO[q.dim] if db.is_zero else _times(_scale(q * q, -1.0), db)
    if part == "log":
        # d(log b) = (1/b) b'
        return ZERO[q.dim] if db.is_zero else _times(_shared(RuleField, variable_power, "inverse", _primed(q.text), b, q), db)
    # q (e' log b + e (log b)'), log b reading q
    de = other.partial(i)
    terms = []
    if not (de.is_zero and db.is_zero):
        log = _shared(RuleField, variable_power, "log", _primed(q.text), b, q)
        terms = [_times(de, log), _times(other, log.partial(i))]
    return _times(q, field_sum_d(terms, q.dim))


def _call_partial(q, func, i):
    # f'(u) u', f' read from q where it can be, else from a node of u
    # that reads q, so the derivative leaves its domain where q does; only
    # the factor of ``func`` is built
    (u, *_) = q.inputs
    du = u.partial(i)
    if du.is_zero:
        return ZERO[q.dim]
    one, name = ONE[q.dim], _primed(q.text)
    factor = {
        "sin": lambda: _shared(RuleField, call, "cos", name, u),
        "cos": lambda: _scale(_shared(RuleField, call, "sin", name, u), -1.0),
        "tan": lambda: one + q * q,
        "exp": lambda: q,
        "log": lambda: _shared(RuleField, call, "log'", name, u, q),
        "log'": lambda: _scale(q * q, -1.0),
        "sqrt": lambda: _shared(RuleField, quotient, None, name, const_field(0.5, q.dim), q),
        "tanh": lambda: one - q * q,
        "abs": lambda: _shared(RuleField, call, "abs'", name, u, q),
        "abs'": lambda: _shared(RuleField, call, "abs''", name, u, q),
        # abs'' is zero wherever it is defined
        "abs''": lambda: q,
    }[func]()
    return _times(factor, du)


_RULES = {quotient: _quotient_partial, power: _power_partial, variable_power: _variable_power_partial, call: _call_partial}


def _node(dim: int, op: str, param, text: str, *inputs: ScalarField) -> ScalarField:
    """The field node of a subexpression on a chart of dimension ``dim``,
    the ``build`` of :func:`momsec.expressions.parse`.  Sums, differences,
    products and negations go through the algebra, so equal subexpressions
    are one node and zeros fold; a subexpression without a coordinate
    becomes its number, so an exponent is variable only where it has a
    coordinate."""
    if op == "num":
        return const_field(param, dim)
    if op == "var":
        return _shared(CoordField, param, dim)
    if op == "neg":
        return inputs[0].scaled(-1.0)
    if op == "+":
        node = field_sum_d(inputs, dim)
    elif op == "-":
        node = inputs[0] - inputs[1]
    elif op == "*":
        node = inputs[0] * inputs[1]
    elif op == "/":
        node = _shared(RuleField, quotient, None, text, *inputs)
    elif op == "call":
        node = _shared(RuleField, call, param, text, *inputs)
    elif isinstance(inputs[1], ConstField):  # "^" with a number exponent
        node = _shared(RuleField, power, inputs[1].c, text, inputs[0])
    else:
        node = _shared(RuleField, variable_power, None, text, *inputs)
    if all(isinstance(f, ConstField) for f in inputs):
        return const_field(_number(node), dim)
    return node


def _number(f: ScalarField) -> float:
    """The value of a field without coordinates; a domain error in it
    names no point.  Overflow gives inf or NaN, as it does in a run."""
    try:
        with np.errstate(all="ignore"):
            return f.c if isinstance(f, ConstField) else f.value(np.zeros(f.dim))
    except DomainError as exc:
        raise DomainError(exc.reason, exc.subexpression) from None


class ExprField:
    """``parse`` parses a source against a chart's coordinates into field
    nodes; the loader calls it by this name, which tools can wrap."""

    @staticmethod
    def parse(source: str, chart: Chart) -> ScalarField:
        return parse(source, chart.coordinates, partial(_node, chart.dim))


def eval_jet(field: ScalarField, point) -> float:
    """The value of ``field`` at one point, its one-point view; tools wrap this name."""
    return field.jet(point)


class SumField(ScalarField):
    """The sum of two or more terms, none a sum or a zero (see :func:`_flat`)."""

    def __init__(self, terms: tuple[ScalarField, ...]):
        self.terms = terms
        self._built_on(terms)
        self.dim = terms[0].dim

    @staticmethod
    def _arrange(nodes):
        # most terms first: the nodes with a term at a position are a prefix
        return sorted(nodes, key=lambda n: -len(n.terms))

    @classmethod
    def _args(cls, nodes, slots):
        # column j: the term at position j of each node that has one.  The
        # columns after the first are read as one, each a span of it
        columns = [[] for _ in nodes[0].terms]
        for n in nodes:
            for column, term in zip(columns, n.terms):
                column.append(term)
        first, *rest = columns
        spans, start = [], 0
        for column in rest:
            spans.append((len(column), slice(start, start + len(column))))
            start += len(column)
        return _gather(first, slots), _gather([t for column in rest for t in column], slots), spans

    @staticmethod
    def _kernel(t, out, first, rest, spans):
        # left to right, as a + b + c adds
        t.take(first, out)
        terms = t.rows(rest)
        for n, span in spans:
            out[:n] += terms[span]

    def _compute(self, values, points):
        first, second, *rest = self.terms
        out = values[first] + values[second]
        for term in rest:
            out += values[term]
        return out

    def _parts(self, i):
        return [x for t in self.terms for x in t._terms(i)]

    def _derivative(self, i):
        return field_sum_d(self._parts(i), self.dim)


class DiffField(ScalarField):
    """Difference a - b; (a - b) and (b - a) evaluate to exact negatives."""

    def __init__(self, a: ScalarField, b: ScalarField):
        self.a = a
        self.b = b
        self.dim = a.dim
        self._built_on((a, b))

    @staticmethod
    def _kernel(t, out, a, b):
        np.subtract(t.rows(a), t.rows(b), out=out)

    def _compute(self, values, points):
        return values[self.a] - values[self.b]

    def _derivative(self, i):
        return _minus(self.a.partial(i), self.b.partial(i))


class ProdField(ScalarField):
    def __init__(self, a: ScalarField, b: ScalarField):
        self.a = a
        self.b = b
        self.dim = a.dim
        self._built_on((a, b))

    @staticmethod
    def _kernel(t, out, a, b):
        # a's rows straight into the output, times a copy of b's
        t.take(a, out)
        out *= t.rows(b)

    def _compute(self, values, points):
        return values[self.a] * values[self.b]

    def _parts(self, i):
        a, b = self.a, self.b
        return [_times(a.partial(i), b), _times(a, b.partial(i))]

    _derivative = SumField._derivative


class ScaledField(ScalarField):
    _params = ("c",)

    def __init__(self, c: float, f: ScalarField):
        self.c = c
        self.f = f
        self.dim = f.dim
        self._built_on((f,))

    @staticmethod
    def _kernel(t, out, f, c):
        np.multiply(c[:, None], t.rows(f), out=out)

    def _compute(self, values, points):
        return self.c * values[self.f]

    def _derivative(self, i):
        return _scale(self.f.partial(i), self.c)


class Deferred:
    """A sum of products, sum_k a_k (c_k b_k) (or c_k a_k where b_k is
    ``None``), that a planner may read only through its partials or as
    terms of a larger sum, which adds its ``parts`` (see :func:`_flat`).
    ``partial`` builds from the factors the partial its node would have;
    the node, the sum of its parts, is built when its value is read."""

    def __init__(self, terms, dim: int):
        self.terms = [(c, a, b) for c, a, b in terms if not (a.is_zero or b is not None and b.is_zero)]
        self.dim = dim
        self.is_zero = not self.terms

    @cached_property
    def parts(self) -> list:
        return [a.scaled(c) if b is None else a * b.scaled(c) for c, a, b in self.terms]

    @cached_property
    def node(self) -> ScalarField:
        return field_sum_d(self.parts, self.dim)

    def _terms(self, i: int) -> list:
        out = []
        for c, a, b in self.terms:
            if b is None:
                out += a._terms(i) if c == 1.0 else [_scale(a.partial(i), c)]
                continue
            if not (da := a.partial(i)).is_zero:
                out.append(_times(da, b.scaled(c)))
            if not (db := b.partial(i)).is_zero:
                out.append(_times(a, _scale(db, c)))
        return out

    def partial(self, i: int) -> ScalarField:
        return field_sum_d(self._terms(i), self.dim)

    def __getattr__(self, name):  # any other read is one of its value
        return getattr(self.node, name)

    def __add__(self, other):
        return field_sum_d((self, other), self.dim)

    def __sub__(self, other):
        return self.node - other

    def __mul__(self, other):
        return self.node * other

    def __neg__(self):
        return -self.node


def _flat(terms) -> tuple:
    """``terms`` with every sum replaced by its terms and zeros left out,
    so that equal sums, however grouped, are one key of the node table
    and add their terms left to right."""
    flat = []
    for t in terms:
        if t.__class__ is Deferred:
            flat += _flat(t.parts)
        elif t.__class__ is SumField:
            flat += t.terms
        elif not t.is_zero:
            flat.append(t)
    return tuple(flat)


def field_sum_d(terms, dim: int) -> ScalarField:
    flat = _flat(terms)
    if len(flat) > 1:
        return _shared(SumField, flat)
    return flat[0] if flat else ZERO[dim]


_PLACE = operator.itemgetter(0)


def by_place(terms) -> list:
    """The terms of ``[(place, term)]`` by increasing place, where places
    number the terms of a sum in the order of its dense loop."""
    return [t for _, t in sorted(terms, key=_PLACE)]


def ordered_sums(terms: dict, dim: int) -> dict:
    """``{idx: [(place, term)]}`` summed :func:`by_place`, keys in increasing
    order, so each sum is the node the dense loop over all indices builds."""
    return {idx: field_sum_d(by_place(ts), dim) for idx, ts in sorted(terms.items())}


# ---------------------------------------------------------------------------
# Matrix inversion as a family of scalar fields


class _MatrixInverse:
    """The inverse N = M^{-1} of a field matrix, from the values of its
    entries.

    :meth:`values` gives N point-major, as ``np.linalg.inv`` and the
    contractions read it, ``(P, n, n)``.  N is NaN at a point where M has a
    non-finite entry; a finite singular M raises
    :class:`SingularMatrixError` naming its first point.

    When every entry off the diagonal is a structural zero, ``diagonal``
    holds the diagonal entries, every entry of N off the diagonal is a
    structural zero too, and :meth:`diagonal_values` computes N's diagonal
    entrywise from M's, N_ii = 1/M_ii, which agrees with the dense path's
    bit for bit.  It does so only for a chunk where M's diagonal and N's
    are finite, so M is invertible at every point; any other chunk takes
    the dense path, which names the first singular point and gives NaN
    where M is not finite.
    """

    def __init__(self, entries: tuple):
        # the entries of the n x n matrix in row-major order
        self.entries = entries
        n = self.n = math.isqrt(len(entries))
        self.dim = entries[0].dim
        # entry k is on the diagonal when k is a multiple of n + 1
        off = (f for k, f in enumerate(entries) if k % (n + 1))
        self.diagonal = entries[:: n + 1] if all(f.is_zero for f in off) else None

    def values(self, entries: np.ndarray) -> np.ndarray:
        """From the stacked values of the entries, in row-major order."""
        M = point_matrices(entries, self.n)
        try:
            return finite_only(np.linalg.inv, M)
        except np.linalg.LinAlgError:
            # the first point whose matrix alone fails to invert
            for p in range(len(M)):
                try:
                    finite_only(np.linalg.inv, M[p : p + 1])
                except np.linalg.LinAlgError:
                    raise SingularMatrixError(p) from None
            raise

    @staticmethod
    def diagonal_values(diagonal: np.ndarray) -> np.ndarray | None:
        """N's diagonal entries ``(n, P)``, laid out as the table is, from
        M's; ``None`` when the chunk needs the dense path (see the class
        docstring)."""
        if not np.isfinite(diagonal).all():
            return None
        N = 1.0 / diagonal
        return N if np.isfinite(N).all() else None

    def _compute(self, values: dict):
        """N over a chunk, from the values of M's entries keyed by node, as
        the kernel of its entries computes it: N's diagonal ``(n, P)`` where
        :meth:`diagonal_values` gives it, else N point-major ``(P, n, n)``."""
        if self.diagonal is not None:
            inverse = self.diagonal_values(np.array([values[f] for f in self.diagonal]))
            if inverse is not None:
                return inverse
        return self.values(np.array([values[f] for f in self.entries]))


class SingularMatrixError(np.linalg.LinAlgError):
    """A field matrix with finite entries is singular at sample point
    ``point``, so its inverse does not exist there."""

    def __init__(self, point: int):
        super().__init__(f"Singular matrix at sample point {point}")
        self.point = point

    def shifted(self, offset: int) -> "SingularMatrixError":
        """The same error for a sample whose point 0 is point ``offset``
        of a larger one."""
        return SingularMatrixError(self.point + offset)


class MatrixInverseField(ScalarField):
    """Entry (i, j) of the inverse; its inputs are every entry of the
    matrix.  The entries of one inverse that a program reads form one
    group, so the inverse is computed once per chunk."""

    def __init__(self, core: _MatrixInverse, i: int, j: int):
        self.core = core
        self.i = i
        self.j = j
        self.dim = core.dim
        self._kind = core
        self._built_on(core.entries)

    @classmethod
    def _args(cls, nodes, slots):
        core = nodes[0].core
        i, j = (np.array(ix, dtype=np.intp) for ix in zip(*((n.i, n.j) for n in nodes)))
        diagonal = None if core.diagonal is None else _gather(core.diagonal, slots)
        return core, _gather(core.entries, slots), diagonal, i, j

    @staticmethod
    def _kernel(t, out, core, entries, diagonal, i, j):
        # a diagonal inverse's entries are all on its diagonal
        if diagonal is not None:
            inverse = core.diagonal_values(t.rows(diagonal))
            if inverse is not None:
                inverse.take(i, 0, out, "clip")
                return
        out[...] = core.values(t.rows(entries))[:, i, j].T

    def _compute(self, values, points):
        # the inverse is computed once per chunk, by the first entry read
        inverse = values.get(self.core)
        if inverse is None:
            inverse = values[self.core] = self.core._compute(values)
        if inverse.ndim == 2:
            return inverse[self.i]
        return np.ascontiguousarray(inverse[:, self.i, self.j])

    def _derivative(self, k):
        # dN_ij = -sum_l (sum_m N_im dM_ml) N_lj, each inner sum one node
        # that every j of row i shares
        core, i, j = self.core, self.i, self.j
        n, dim = core.n, self.dim
        if core.diagonal is not None:
            dm = core.diagonal[i].partial(k)
            return ZERO[dim] if dm.is_zero else _scale(_times(_times(self, dm), self), -1.0)
        entry = partial(_shared, MatrixInverseField, core)
        dM = [f.partial(k) for f in core.entries]
        terms = []
        for l in range(n):
            inner = field_sum_d([_times(entry(i, m), dM[m * n + l]) for m in range(n) if not dM[m * n + l].is_zero], dim)
            if not inner.is_zero:
                terms.append(_times(inner, entry(l, j)))
        return _scale(field_sum_d(terms, dim), -1.0) if terms else ZERO[dim]


def point_matrices(x: np.ndarray, rows: int) -> np.ndarray:
    """Stacked values of a row-major matrix of fields, ``(rows * cols,
    P)``, as one matrix per point: a strided view ``(P, rows, cols)``."""
    return np.moveaxis(x.reshape(rows, -1, *x.shape[1:]), -1, 0)


def finite_only(f, matrices: np.ndarray) -> np.ndarray:
    """``f`` of a ``(P, ...)`` stack of matrices, applied to those whose
    entries are all finite; NaN in place of its result for the others.
    The result is a float array either way."""
    finite = np.isfinite(matrices).all(axis=(-2, -1))
    if finite.all():
        return np.asarray(f(matrices), dtype=float)
    result = f(matrices[finite])
    out = np.full((len(matrices), *result.shape[1:]), np.nan)
    out[finite] = result
    return out


def diagonal_cond_max(diagonals: np.ndarray) -> np.ndarray:
    """The largest ``finite_only(np.linalg.cond, M)`` over diagonal
    matrices M, from their diagonals ``(n, P)``, one column per point, as
    a ``(1,)`` array: the largest max|M_ii| / min|M_ii|, inf if that is
    0/0 at any point, as ``np.linalg.cond`` gives it there, and NaN if any
    M_ii is not finite.  Each ratio is exactly rounded, where the SVD of a
    2 x 2 matrix may be 1 ulp off.  A zero divisor is left to the
    caller's ``np.errstate``."""
    a = np.abs(diagonals)
    top = a.max(axis=0)
    # a column's largest |M_ii| is inf or NaN where any of its M_ii is not finite
    if not math.isfinite(top.max()):
        return np.array([math.nan])
    ratio = (top / a.min(axis=0)).max(keepdims=True)
    # with every M_ii finite, only 0/0 is NaN
    return ratio if ratio[0] == ratio[0] else np.array([math.inf])


class _InverseRow:
    """Row i of a matrix inverse: entry j is the node ``(core, i, j)``,
    built when it is first read, so no entry is built that nothing reads;
    off the diagonal of a diagonal inverse it is the zero singleton."""

    def __init__(self, core: _MatrixInverse, i: int):
        self.core, self.i = core, i

    def __getitem__(self, j: int) -> ScalarField:
        if not 0 <= j < self.core.n:
            raise IndexError(j)
        if self.core.diagonal is not None and j != self.i:
            return ZERO[self.core.dim]
        return _shared(MatrixInverseField, self.core, self.i, j)


def matrix_inverse_fields(entries) -> list[_InverseRow]:
    """Entry fields of the pointwise inverse of a square field matrix, by row."""
    core = _shared(_MatrixInverse, tuple(f for row in entries for f in row))
    return [_InverseRow(core, i) for i in range(core.n)]


# ---------------------------------------------------------------------------
# Programs: stacked evaluation of field graphs


def _gather(nodes, slots) -> np.ndarray:
    """The slots of ``nodes``, rows of the value table."""
    return np.fromiter(map(slots.__getitem__, nodes), np.intp, len(nodes))


def root_groups(groups) -> list:
    """Groups of root fields as lists of nodes: a :class:`Deferred` by its node."""
    return [[f.node if f.__class__ is Deferred else f for f in fields] for fields in groups]


def level_order(groups) -> list:
    """Every node under the root ``groups`` (see :func:`root_groups`), a
    level at a time from the leaves up: ``(nodes, done)`` for each
    ``level``, where ``done`` are the nodes, none a root, that no node
    above that level reads."""
    seen = dict.fromkeys(chain.from_iterable(groups))
    levels = [[] for _ in range(max(map(_LEVEL, seen), default=-1) + 1)]
    for node in seen:
        levels[node.level].append(node)
    done = [[] for _ in levels]
    # from the top level down, a loop rather than a recursive walk (a
    # closure that calls itself is a reference cycle, which would keep
    # every node until a collection); inputs sit at lower levels, so the
    # first reader to reach a node is one at the highest level that reads it
    for level in range(len(levels) - 1, 0, -1):
        for node in levels[level]:
            for i in node.inputs:
                if i not in seen:
                    seen[i] = None
                    levels[i.level].append(i)
                    done[level].append(i)
    return list(zip(levels, done))


def interpret(levels: list, groups, points: np.ndarray) -> list:
    """The stacked values ``(n, P)`` of each root group over ``points``,
    from ``levels``, the :func:`level_order` of the groups.  Each node is
    evaluated by itself (``_compute``), once, after its inputs, with the
    arithmetic of its class's kernel, so every value is the one a
    :class:`Program` gives, bit for bit.  No kernel is compiled.  A node's
    values go once no level above reads them, so the values held at once
    stay few and recently made, and a root's when this returns.  A domain
    error or a singular matrix is raised for the first node in this order
    that fails, which need not be the one a program's kernel order names
    (see :func:`eval_groups`)."""
    values: dict = {}
    for nodes, done in levels:
        for node in nodes:
            values[node] = node._compute(values, points)
        for node in done:
            del values[node]
    return [np.array([values[f] for f in fields]) if fields else np.empty((0, len(points))) for fields in groups]


def eval_groups(groups, points: np.ndarray, dim: int) -> list:
    """The stacked values of each root group over ``points``, interpreted
    (see :func:`interpret`).  Where a node leaves its domain or a matrix is
    singular, a :class:`Program` of the groups runs the sample instead, so
    the error raised is the one its kernel order names."""
    groups = root_groups(groups)
    try:
        return interpret(level_order(groups), groups, points)
    except (DomainError, SingularMatrixError):
        return list(Program(groups, dim).run(points))


class Program:
    """The compiled evaluation of groups of root fields, worth its compile
    where it runs again: :func:`interpret` evaluates the same values
    without one.

    Compiling finds the nodes under the roots in one pass over buckets
    by ``level``, from the top down, putting each input in its level's
    bucket when first seen; inputs sit at lower levels, so every consumer
    of a node is done before it.  The pass gives each node a height: the
    length of the longest path from it up to a root.

    Then it schedules the nodes by readiness: a node is ready once every
    one of its inputs has been scheduled, so the leaves, coordinates and
    constants, are ready first.  It keeps a count of each key's nodes
    (its ``_kind``: the class, a rule node's rule and parameter, or an
    inverse entry's matrix) not yet scheduled.  Among the keys that
    have ready nodes it takes first a key whose every node left is
    ready, so that one group holds all of them; among those, or among all
    keys with ready nodes when no key is whole, it takes the key whose
    ready nodes include the greatest height, and on a tie the key that
    has had ready nodes longest.  All of that key's ready nodes become
    one group, and take the next rows of the value table, their slots,
    until no node is left; ``slots`` is their count.  The entries of a
    matrix inverse share their inputs and their key, so they become
    ready together and are one group per inverse.  The schedule depends
    on insertion order alone, never on hashing.
    ``run`` runs each group, in that order, as one numpy kernel over the
    stacked rows of its operands, so every node is evaluated once per
    call, after its inputs; the leaves' kernels fill their rows from the
    points.  The program owns its table and the space it lives in (see
    ``_bind``) until ``release`` drops them; a run rebinds it only when
    the chunk length changes, and otherwise is a loop over bound kernels.
    ``run`` gives, for each root group, the stacked values of its fields,
    ``(n, P)``.
    """

    def __init__(self, groups, dim: int):
        groups = root_groups(groups)
        # a node's height is final when its level is reached.  ``users``
        # lists a consumer once for every input position at which it reads
        # the node, and ``waiting`` counts those positions
        height = dict.fromkeys(chain.from_iterable(groups), 0)
        users = {f: [] for f in height}
        buckets = [[] for _ in range(max(map(_LEVEL, height), default=0) + 1)]
        for f in height:
            buckets[f.level].append(f)
        waiting: dict = {}
        for level in range(len(buckets) - 1, 0, -1):
            for node in buckets[level]:
                inputs = node.inputs
                waiting[node] = len(inputs)
                up = height[node] + 1
                for i in inputs:
                    consumers = users.get(i)
                    if consumers is None:
                        users[i] = [node]
                        height[i] = up
                        buckets[i.level].append(i)
                        continue
                    consumers.append(node)
                    if height[i] < up:
                        height[i] = up

        slots: dict = {}
        self._kernels = []
        # the count of each key's nodes not yet scheduled, the ready nodes
        # by key, the greatest height among each key's, and the nodes the
        # last group made ready: the leaves at first
        unscheduled = Counter(map(attrgetter("_kind"), height))
        ready: dict = {}
        tallest: dict = {}
        fresh = buckets[0]
        while True:
            for node in fresh:
                key = node._kind
                nodes = ready.get(key)
                if nodes is None:
                    ready[key] = [node]
                    tallest[key] = height[node]
                else:
                    nodes.append(node)
                    if tallest[key] < height[node]:
                        tallest[key] = height[node]
            if not ready:
                break
            # a key none of whose nodes still waits goes first, so each of
            # its nodes is in this one kernel
            whole = [key for key in tallest if len(ready[key]) == unscheduled[key]]
            key = max(whole or tallest, key=tallest.__getitem__)
            del tallest[key]
            nodes = ready.pop(key)
            cls = nodes[0].__class__
            nodes = cls._arrange(nodes)
            unscheduled[key] -= len(nodes)
            start = len(slots)
            slots.update(zip(nodes, range(start, start + len(nodes))))
            self._kernels.append((cls._kernel, slice(start, len(slots)), cls._args(nodes, slots)))
            fresh = []
            for node in nodes:
                for consumer in users[node]:
                    left = waiting[consumer] - 1
                    waiting[consumer] = left
                    if not left:
                        fresh.append(consumer)
        self._roots = [_gather(fields, slots) for fields in groups]
        self.slots = len(slots)
        self.bytes_per_point = 8 * self.slots
        self._space = np.empty(0)
        self._count = None

    def run(self, points: np.ndarray):
        """The root groups' values over ``points``, a ``(P, d)`` sample.
        The program keeps its table bound to the chunk length of its last
        run, and binds it again only when it changes.  Every kernel runs
        before this returns; the values come from an iterator that copies
        each group out of the table as it is read, so a caller that
        reduces one group before reading the next holds one at a time.
        It must be read before the program runs again; the arrays it gives
        do not share the table."""
        if len(points) != self._count:
            self._bind(len(points))
        self.points = points
        for kernel, out, args in self._bound:
            kernel(self, out, *args)
        return map(self.rows, self._roots)

    def _bind(self, count: int):
        """Bind the value table ``(S, P)``, a row per slot, to a chunk of
        ``count`` points, carved from the program's space, which grows only
        when the table needs more room than it has, and each kernel to its
        output, a view of its rows."""
        size = count * self.slots
        if len(self._space) < size:
            # the old space goes, with every view of it, before the new one is made
            self._space = self.value = self._bound = None
            self._space = np.empty(size)
        self.value = self._space[:size].reshape(self.slots, count)
        self._bound = [(kernel, self.value[rows], args) for kernel, rows, args in self._kernels]
        self._count = count

    def release(self):
        """Drop the table, its space and the last chunk, so the program
        holds no values between runs; the next run binds a table again."""
        self._space = self.value = self._bound = self.points = None
        self._space = np.empty(0)
        self._count = None

    def rows(self, slots: np.ndarray) -> np.ndarray:
        """A copy of the table's rows ``slots``."""
        return self.value.take(slots, 0)

    def take(self, slots: np.ndarray, out: np.ndarray):
        """Copy the table's rows ``slots`` into ``out``."""
        self.value.take(slots, 0, out, "clip")


# ---------------------------------------------------------------------------
# Index bookkeeping for antisymmetric containers


def sort_signed(idx: tuple[int, ...]) -> tuple[tuple[int, ...] | None, int]:
    """Sort an index tuple, tracking permutation sign; repeats give (None, 0)."""
    seq = list(idx)
    sign = 1
    for i in range(1, len(seq)):
        j = i
        while j > 0 and seq[j - 1] > seq[j]:
            seq[j - 1], seq[j] = seq[j], seq[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(seq)):
        if seq[i - 1] == seq[i]:
            return None, 0
    return tuple(seq), sign


@lru_cache(maxsize=4096)
def index_label(**groups) -> str:
    """The row label of named index groups, in argument order: each 1-based
    index after its group's letter, space-separated.  A group is one index
    or a tuple; an empty tuple adds no token.
    ``index_label(a=0, i=(1, 2)) == "a1 i2 i3"``.  Cached, since a model
    makes the same labels on every run."""
    return " ".join(
        f"{letter}{q + 1}" for letter, idx in groups.items() for q in (idx if isinstance(idx, tuple) else (idx,))
    )


# ---------------------------------------------------------------------------
# Sparse component containers


class Components:
    """Sparse components of a tensor with a fixed index symmetry.

    ``comps`` maps canonical index tuples to components: strictly
    increasing tuples for an antisymmetric container, non-decreasing ones
    for a symmetric one.  The constructor trusts its keys and drops zero
    components, so a container never stores a zero and ``is_zero`` means
    that it stores nothing.  A container is never modified once built, so
    an operation may return an operand as its result.  A subclass supplies
    its zero component (``_zero``), how to build a container of its own
    kind from a component dict (``_like``) and, if its rows are reported,
    the letter of its indices in row labels (``letter``).  Components are
    scalar fields, or forms in a bundle-valued form: anything with
    ``is_zero``, ``+``, ``-``, unary ``-`` and ``scaled``; ``mul_field``
    also needs ``*`` by a scalar field, which only scalar fields have.
    """

    symmetric = False
    letter: str

    def __init__(self, comps=None):
        self.comps = {idx: f for idx, f in comps.items() if not f.is_zero} if comps else {}

    def _zero(self):
        raise NotImplementedError

    def _like(self, comps) -> "Components":
        raise NotImplementedError

    def comp(self, idx: tuple[int, ...]):
        """The component at any index tuple: the sorted key's for a
        symmetric container; for an antisymmetric one, the sorted key's
        times the permutation sign, and zero on a repeated index."""
        f = self.comps.get(idx)
        if f is not None:
            return f
        if not self.comps:
            return self._zero()
        if self.symmetric:
            f = self.comps.get(tuple(sorted(idx)))
            return self._zero() if f is None else f
        canon, sign = sort_signed(idx)
        f = self.comps.get(canon)
        if f is None:
            return self._zero()
        return f if sign > 0 else -f

    @property
    def is_zero(self) -> bool:
        return not self.comps

    def rows(self, prefix: str = ""):
        """(label, component) for each stored component in key order; the
        label is ``prefix`` and then the key under the container's letter."""
        for idx in sorted(self.comps):
            tail = index_label(**{self.letter: idx})
            f = self.comps[idx]
            yield (f"{prefix} {tail}" if prefix and tail else prefix or tail), f.node if f.__class__ is Deferred else f

    def __add__(self, other):
        if other.is_zero:
            return self
        if self.is_zero:
            return other
        z = self._zero()
        keys = set(self.comps) | set(other.comps)
        return self._like({idx: self.comps.get(idx, z) + other.comps.get(idx, z) for idx in keys})

    def __sub__(self, other):
        if other.is_zero:
            return self
        z = self._zero()
        keys = set(self.comps) | set(other.comps)
        return self._like({idx: self.comps.get(idx, z) - other.comps.get(idx, z) for idx in keys})

    def __neg__(self):
        return self.scaled(-1.0)

    def scaled(self, c: float):
        if self.is_zero:
            return self
        return self._like({idx: f.scaled(c) for idx, f in self.comps.items()})

    def mul_field(self, g: ScalarField):
        if self.is_zero:
            return self
        return self._like({idx: f * g for idx, f in self.comps.items()})

    def plus(self, parts):
        """``self + parts[0] + parts[1] + ...`` for scalar components, each
        component's terms summed once, in that order."""
        terms: dict = {}
        for part in (self, *parts):
            for idx, f in part.comps.items():
                terms.setdefault(idx, []).append(f)
        dim = self._zero().dim
        return self._like({idx: field_sum_d(fs, dim) for idx, fs in terms.items()})


# ---------------------------------------------------------------------------
# Differential forms


class FormField(Components):
    """Degree-k form with ScalarField components on increasing index tuples."""

    letter = "i"

    def __init__(self, chart: Chart, degree: int, comps: dict[tuple[int, ...], ScalarField] | None = None):
        if degree < 0:
            raise ValueError("form degree must be non-negative")
        # degree > dim is allowed and denotes the zero form of that degree
        self.chart = chart
        self.degree = degree
        super().__init__(comps)

    def _zero(self) -> ScalarField:
        return ZERO[self.chart.dim]

    def _like(self, comps) -> "FormField":
        return FormField(self.chart, self.degree, comps)

    @cached_property
    def incidence(self) -> list:
        """For a 2-form w, ``[i] ->`` the k with w_ik not zero, increasing."""
        rows: list = [[] for _ in range(self.chart.dim)]
        for i, k in sorted(self.comps):
            rows[i].append(k)
            rows[k].append(i)
        return rows


def signed(f, sign: float):
    """A stored component ``f`` read at an index tuple of permutation ``sign``."""
    return f if sign > 0 else -f


def exterior_derivative(omega: FormField, base: FormField | None = None) -> FormField:
    """d on component arrays: (d w)_{i0..ik} = sum_j (-1)^j d_{ij} w_{..no ij..};
    with ``base``, the form base + d w, each component's terms summed once."""
    chart = omega.chart
    if omega.is_zero or omega.degree >= chart.dim:
        # every (k+1)-form above the top degree is zero
        return FormField(chart, omega.degree + 1) if base is None else base
    terms = {} if base is None else {idx: [((0, 0), f)] for idx, f in base.comps.items()}
    _scatter_d(omega, terms, 1)
    return FormField(chart, omega.degree + 1, ordered_sums(terms, chart.dim))


def _scatter_d(omega: FormField, terms: dict, tag: int):
    """Add the terms of d omega (degree below the chart's) to ``terms`` (see
    :func:`ordered_sums`), the j-th term of a component placed at ``(tag, j)``:
    a partial's own terms where it adds (see ``ScalarField._terms``), the
    partial negated where it subtracts."""
    for key, f in omega.comps.items():
        for i in range(omega.chart.dim):
            if i not in key:
                j = bisect_left(key, i)
                parts = f._terms(i) if j % 2 == 0 else [_scale(f.partial(i), -1.0)]
                place = terms.setdefault(key[:j] + (i,) + key[j:], [])
                place += [((tag, j), t) for t in parts if not t.is_zero]


def wedge(alpha: FormField, beta: FormField) -> FormField:
    """Shuffle-convention wedge: unit coefficients, no factorial weights."""
    chart = alpha.chart
    k, l = alpha.degree, beta.degree
    if alpha.is_zero or beta.is_zero:
        return FormField(chart, k + l)
    if k + l > chart.dim:
        raise ValueError("wedge degree exceeds the chart dimension")
    terms: dict = {}
    for left, fa in alpha.comps.items():
        for right, fb in beta.comps.items():
            idx = tuple(sorted(left + right))
            if not any(x in right for x in left):
                # placed at the positions of the left indices
                subset = tuple(map(idx.index, left))
                sign = sort_signed(subset + tuple(p for p in range(k + l) if p not in subset))[1]
                terms.setdefault(idx, []).append((subset, signed(fa * fb, sign)))
    return FormField(chart, k + l, ordered_sums(terms, chart.dim))


def interior_product(v: "VectorField", omega: FormField) -> FormField:
    """(i_v w)_{i2..ik} = v^{i1} w_{i1 i2..ik}, each component a
    :class:`Deferred` sum of its terms, placed by i1."""
    if omega.degree < 1:
        raise ValueError("interior product needs a form of degree >= 1")
    terms: dict = {}
    for key, f in omega.comps.items():
        for p, i1 in enumerate(key):
            # w at (i1, rest) is f with the sign of moving i1 to p
            if not v.comps[i1].is_zero:
                terms.setdefault(key[:p] + key[p + 1 :], []).append((i1, ((-1.0) ** p, v.comps[i1], f)))
    dim = omega.chart.dim
    return FormField(omega.chart, omega.degree - 1, {k: Deferred(by_place(ts), dim) for k, ts in sorted(terms.items())})


def lie_derivative(
    v: "VectorField", omega: FormField, contracted: FormField | None = None, derived: FormField | None = None
) -> FormField:
    """Cartan formula: L_v = i_v d + d i_v, each component's terms summed
    once; ``contracted`` and ``derived``, when given, are i_v omega and d
    omega, made already."""
    chart = omega.chart
    # i_v d omega first: each of its components a deferred sum, whose terms
    # are added in their place
    terms = {}
    if omega.degree < chart.dim:
        d = exterior_derivative(omega) if derived is None else derived
        terms = {key: [((0, 0), f)] for key, f in interior_product(v, d).comps.items()}
    if omega.degree >= 1:
        _scatter_d(interior_product(v, omega) if contracted is None else contracted, terms, 1)
    return FormField(chart, omega.degree, ordered_sums(terms, chart.dim))


# ---------------------------------------------------------------------------
# Vector fields and metrics


class VectorField:
    def __init__(self, chart: Chart, comps):
        comps = list(comps)
        if len(comps) != chart.dim:
            raise ValueError("vector field needs one component per coordinate")
        self.chart = chart
        self.comps = comps

    @staticmethod
    def zero(chart: Chart) -> "VectorField":
        return VectorField(chart, [ZERO[chart.dim] for _ in range(chart.dim)])

    def stored(self) -> list:
        """[(i, v^i)] over the non-zero components."""
        return [(i, f) for i, f in enumerate(self.comps) if not f.is_zero]


def lie_bracket_terms(u: VectorField, v: VectorField) -> list:
    """[i] -> the terms of [u, v]^i = u^j d_j v^i - v^j d_j u^i with no zero factor, by j."""
    us, vs = u.stored(), v.stored()
    out = []
    for i in range(u.chart.dim):
        terms = [(2 * j, uj * dv) for j, uj in us if not (dv := v.comps[i].partial(j)).is_zero]
        terms += [(2 * j + 1, -(vj * du)) for j, vj in vs if not (du := u.comps[i].partial(j)).is_zero]
        out.append(by_place(terms))
    return out


class MetricField:
    """Symmetric (0,2) tensor with an optional pointwise inverse."""

    def __init__(self, chart: Chart, entries: dict[tuple[int, int], ScalarField]):
        self.chart = chart
        d = chart.dim
        self.g = [[ZERO[d] for _ in range(d)] for _ in range(d)]
        for (i, j), f in entries.items():
            if i > j:
                raise ValueError("metric entries are keyed by upper-triangle indices")
            self.g[i][j] = f
            self.g[j][i] = f
        # [i] -> [(j, g_ij)] over the non-zero g_ij
        self.stored = [[(j, f) for j, f in enumerate(row) if not f.is_zero] for row in self.g]
        # v -> L_v g, made once for each vector field it is taken along
        self._lies: dict = {}

    @staticmethod
    def identity(chart: Chart) -> "MetricField":
        return MetricField(
            chart, {(i, i): ONE[chart.dim] for i in range(chart.dim)}
        )

    @cached_property
    def _inverse(self) -> list:
        return matrix_inverse_fields(self.g)

    def inverse(self):
        """Entry fields of g^{-1}, differentiable as every field is; made on first use."""
        return self._inverse

    @property
    def diagonal(self) -> tuple | None:
        """g's diagonal entries if it stores only those, else None, as its inverse decides."""
        return self.inverse()[0].core.diagonal

    def lower(self, v: VectorField) -> FormField:
        """(g_flat v)_i = g_ij v^j as a 1-form."""
        chart = self.chart
        comps = {}
        for i, row in enumerate(self.stored):
            terms = [gij * v.comps[j] for j, gij in row if not v.comps[j].is_zero]
            comps[(i,)] = field_sum_d(terms, chart.dim)
        return FormField(chart, 1, comps)


def lie_derivative_metric(v: VectorField, g: MetricField):
    """(L_v g)_ij = v^k d_k g_ij + d_i v^k g_kj + d_j v^k g_ik, as a field
    matrix, made once per vector field ``v`` while ``g`` lives."""
    out = g._lies.get(v)
    if out is not None:
        return out
    d = g.chart.dim
    vs = v.stored()
    out = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            # the three terms of each k, in the order of the dense loop over k
            terms = [(3 * k, vk * dg) for k, vk in vs if not (dg := g.g[i][j].partial(k)).is_zero]
            terms += [(3 * k + 1, dv * gkj) for k, gkj in g.stored[j] if not (dv := v.comps[k].partial(i)).is_zero]
            terms += [(3 * k + 2, dv * gik) for k, gik in g.stored[i] if not (dv := v.comps[k].partial(j)).is_zero]
            out[i][j] = out[j][i] = field_sum_d(by_place(terms), d)
    g._lies[v] = out
    return out


def max_abs_fields(fields, points: np.ndarray) -> float:
    """Largest |f| over the sample; NaN or inf when any value is non-finite.
    Only values are evaluated, all in one pass (see :func:`eval_groups`)."""
    live = [f for f in fields if not f.is_zero]
    if not live:
        return 0.0
    values = eval_groups([live], points, live[0].dim)[0]
    return float(np.max(np.abs(values), initial=0.0))
