"""Chart-local calculus on arrays of scalar fields.

A :class:`ScalarField` is a node of a field graph, evaluable to jets up
to second order over a point sample: a coordinate, a constant, or an
algebraic, differential or expression combination of other fields.  A
model's expressions are parsed straight into such nodes when it loads
(see :class:`ExprField`).  Field graphs hold no sample data, so a graph
built once serves every sample.  Graphs are evaluated by a :class:`Program`,
compiled once from groups of root fields, each group read to one jet
order.  The jet order is a demand that flows down the graph: a residual
asks for values only (order 0), every node but a partial passes the
order on, and a :class:`PartialField` asks its input for one order more,
so each node gets one demand order, the highest any consumer reads, and
computes only those derivatives.  Differentiating an evaluated field consumes
one jet order, so a once-differentiated field still has an exact value
and gradient but no Hessian.  No check in this package ever
differentiates a field more than twice.

Compiling a program finds its nodes in one pass, level by level from
the top, so each node's consumers are done before it.  A program
evaluates a chunk of points at a time, one group after another: a group
is nodes of one class and order (and, for an expression node, rule)
whose inputs are evaluated, taken from the ready nodes by the rule of
:class:`Program` (a class and order whose nodes are all ready first,
then tallest first, then highest order), and one numpy
kernel evaluates it over their stacked operand rows with the rules of
:class:`Jet2`, so a run costs numpy work per group, not interpreter
work per node.  Each node is evaluated once per chunk, into one row of
the program's tables, the same row of every table its order reaches.
The program owns its tables: it carves them from one space of its own,
which grows only when a chunk needs more room, and keeps them bound to
the chunk length, with each kernel's output jet a view of its rows,
until a run brings another length.  A kernel reads its operands with
``ndarray.take``, a copy of the rows it names, never by fancy indexing.
A check run compiles the graphs of every suite it selects into one
program, so the groups, and the nodes the suites share, span every
suite.  The leaves, coordinates and constants, are groups too, whose
kernels fill their rows from the chunk's points, so a program evaluates
a model's expressions together with everything built on them.
``ScalarField.eval`` and :func:`max_abs_fields` evaluate a one-off
program of their own over the whole sample.  Every jet here has the one
layout of :class:`Jet2`, the point axis last: the tables and the roots'
jets a program returns, so every kernel runs along the points.  Only
the matrix inverse moves an axis, to hand ``np.linalg.inv`` one matrix
per point, and not for a diagonal matrix, whose inverse is computed
entrywise along the points.

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
negations, scalings, partials, non-zero constants, coordinates, the
expression nodes of :func:`_node`, and a matrix inverse and its entries)
looks every node up in one module-level table before it builds it,
keyed by the node's class and constructor arguments, with input nodes
compared by identity and a sum keyed by its flattened terms.
Inputs are shared first, so a node equal in structure to a live one is
that node: builders ask for what they need without handing nodes to
each other, and a program evaluates each distinct node once.  Nothing
is rewritten (``a*b`` and ``b*a`` stay two nodes), so every value is
the same, bit for bit, as without sharing.  The table holds its nodes
weakly, in slotted entries that carry their key, so a dropped graph
leaves it at once.  Zero constants are
per-dimension singletons outside it.  A subexpression in several entries,
or an equal graph of two live models, is therefore one node.

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
from operator import attrgetter

import numpy as np

from .expressions import DomainError, Jet2, call, parse, power, quotient, variable_power


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
# constructor arguments, input nodes by identity, and held weakly: an
# entry goes when its node does.
_NODES: dict = {}


class _Entry(weakref.ref):
    """``weakref.KeyedRef`` without its Python constructor: a fifth of the cost."""

    __slots__ = ("key",)


def _forget(ref, nodes=_NODES):
    # ``nodes`` is bound here, so a node freed at interpreter exit still
    # finds the table; a new node of its key may have taken its entry
    if nodes.get(ref.key) is ref:
        del nodes[ref.key]


def _shared(cls, *args):
    """The node ``cls(*args)``: the live one built already, or a new one."""
    key = (cls, *args)
    ref = _NODES.get(key)
    if ref is not None:
        node = ref()
        if node is not None:
            return node
    node = cls(*args)
    ref = _NODES[key] = _Entry(node, _forget)
    ref.key = key
    return node


class ScalarField:
    """A scalar function on a chart, evaluable to second-order jets: a
    node of a field graph without cycles.  ``inputs`` are the nodes it is
    built on, ``level`` is 0 for a leaf and else one more than its highest
    input's, and ``held`` is the highest jet order it can hold (one less
    for each partial on a path down to a leaf; below 0 it cannot be
    evaluated).

    ``eval(points, order)`` gives the :class:`Jet2` over a ``(P, d)``
    sample up to ``order``, through a one-off :class:`Program` of this
    field alone.  ``jet`` and ``value`` are one-point views: a one-point
    sample, read back at point 0.

    Every subclass supplies ``_kernel(program, out, *args)``, which
    evaluates a group of its nodes at once into ``out``, the stacked jet
    of their slots, from its operands' slots in the program's tables and
    the attributes named in ``_params`` (or from its own ``_args``).
    """

    dim: int
    inputs: tuple = ()
    level = 0
    held = 2
    # ready nodes of one class, order and kind are one group of a program
    _kind = None
    # the jet orders this node consumes of its inputs: a partial, one
    _lift = 0

    def _built_on(self, inputs: tuple):
        self.inputs = inputs
        level, held = 0, 2
        for node in inputs:
            if node.level >= level:
                level = node.level + 1
            if node.held < held:
                held = node.held
        self.level = level
        self.held = held - self._lift

    def eval(self, points: np.ndarray, order: int = 2) -> Jet2:
        jet = next(Program([([self], order)], self.dim).run(points))
        return Jet2(jet.value[0], None if jet.grad is None else jet.grad[0], None if jet.hess is None else jet.hess[0])

    def jet(self, point) -> Jet2:
        return self.eval(np.asarray(point, dtype=float).reshape(1, -1)).row(0)

    def value(self, point) -> float:
        return float(self.eval(np.asarray(point, dtype=float).reshape(1, -1), 0).value[0])

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
        return _shared(DiffField, self, other)

    def __mul__(self, other: "ScalarField") -> "ScalarField":
        if self.is_zero:
            return self
        if other.is_zero:
            return other
        return _shared(ProdField, self, other)

    # ConstField overrides the three below, so here self is never zero
    def __neg__(self) -> "ScalarField":
        return _shared(ScaledField, -1.0, self)

    def scaled(self, c: float) -> "ScalarField":
        if c == 0.0:
            return const_field(0.0, self.dim)
        if c == 1.0:
            return self
        return _shared(ScaledField, c, self)

    def partial(self, i: int) -> "ScalarField":
        return _shared(PartialField, self, i)

    @staticmethod
    def _arrange(nodes: list) -> list:
        """A group's nodes in slot order."""
        return nodes

    _params: tuple = ()

    @classmethod
    def _args(cls, nodes: list, order: int, slots) -> tuple:
        """Kernel arguments of a group at ``order``: for each input
        position, the slots of that input of every node; then for each
        name in ``_params``, that attribute of every node."""
        lifted = order + cls._lift
        # the nodes of a group have one number of inputs
        inputs = [_gather(column, lifted, slots) for column in zip(*(n.inputs for n in nodes))]
        return (*inputs, *(np.array(list(map(attrgetter(name), nodes))) for name in cls._params))


class ConstField(ScalarField):
    _params = ("c",)

    def __init__(self, value: float, dim: int):
        self.c = float(value)
        self.dim = dim
        self.is_zero = self.c == 0.0

    @staticmethod
    def _kernel(t, out, c):
        out.value[...] = c[:, None]
        _zero_derivatives(out)

    def partial(self, i: int) -> "ScalarField":
        return const_field(0.0, self.dim)

    def scaled(self, c: float) -> "ScalarField":
        return self if self.is_zero else const_field(c * self.c, self.dim)

    def __neg__(self) -> "ScalarField":
        return self if self.is_zero else const_field(-self.c, self.dim)


ZERO_CACHE: dict[int, ConstField] = {}


def const_field(value: float, dim: int) -> ConstField:
    # zeros, the most frequent constant by far, skip the node table
    if value == 0.0:
        if dim not in ZERO_CACHE:
            ZERO_CACHE[dim] = ConstField(0.0, dim)
        return ZERO_CACHE[dim]
    return _shared(ConstField, value, dim)


def _zero_derivatives(out: Jet2):
    for part in (out.grad, out.hess):
        if part is not None:
            part[...] = 0.0


class CoordField(ScalarField):
    """Coordinate ``i`` of the chart: column i of the sample."""

    _params = ("i",)

    def __init__(self, i: int, dim: int):
        self.i = i
        self.dim = dim

    @staticmethod
    def _kernel(t, out, i):
        out.value[...] = t.points[:, i].T
        _zero_derivatives(out)
        if out.grad is not None:
            out.grad[np.arange(len(i)), i] = 1.0


class RuleField(ScalarField):
    """A quotient, power or function node of an expression: ``rule`` of
    :mod:`momsec.expressions` with ``param`` (a number exponent or a
    function name) applied to its inputs.  ``text`` is the subexpression,
    which a domain error names."""

    def __init__(self, rule, param, text: str, *inputs: ScalarField):
        self._kind = (rule, param)
        self.text = text
        self.dim = inputs[0].dim
        self._built_on(inputs)

    @classmethod
    def _args(cls, nodes, order, slots):
        return (*nodes[0]._kind, [n.text for n in nodes], *super()._args(nodes, order, slots))

    @staticmethod
    def _kernel(t, out, rule, param, texts, *inputs):
        jet = rule(param, texts, *map(t.jet, inputs))
        for part, x in zip((out.value, out.grad, out.hess), (jet.value, jet.grad, jet.hess)):
            if part is not None:
                part[...] = x


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


def eval_jet(field: ScalarField, point) -> Jet2:
    """The jet of ``field`` at one point, its one-point view; tools wrap this name."""
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
    def _args(cls, nodes, order, slots):
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
        return _gather(first, order, slots), _gather([t for column in rest for t in column], order, slots), spans

    @staticmethod
    def _kernel(t, out, first, rest, spans):
        # left to right, as a + b + c adds
        t.take(first, out)
        terms = t.jet(rest)
        for n, span in spans:
            out.value[:n] += terms.value[span]
            if terms.grad is not None:
                out.grad[:n] += terms.grad[span]
            if terms.hess is not None:
                out.hess[:n] += terms.hess[span]


class DiffField(ScalarField):
    """Difference a - b; (a - b) and (b - a) evaluate to exact negatives."""

    def __init__(self, a: ScalarField, b: ScalarField):
        self.a = a
        self.b = b
        self.dim = a.dim
        self._built_on((a, b))

    @staticmethod
    def _kernel(t, out, a, b):
        t.jet(a).minus(t.jet(b), out)


class ProdField(ScalarField):
    def __init__(self, a: ScalarField, b: ScalarField):
        self.a = a
        self.b = b
        self.dim = a.dim
        self._built_on((a, b))

    @staticmethod
    def _kernel(t, out, a, b):
        if out.grad is None:
            # values alone: a's straight into the output, times a copy of b's
            t.take(a, out)
            out.value *= t.value.take(b[0], 0)
            return
        t.jet(a).times(t.jet(b), out)


class ScaledField(ScalarField):
    _params = ("c",)

    def __init__(self, c: float, f: ScalarField):
        self.c = c
        self.f = f
        self.dim = f.dim
        self._built_on((f,))

    @staticmethod
    def _kernel(t, out, f, c):
        t.jet(f).scale(c, out)


class PartialField(ScalarField):
    """The coordinate partial of another field.

    The jet forwards the parent's gradient and Hessian down one order,
    so the parent is evaluated one order above the demand; its own
    Hessian is unavailable (it would be a third derivative of the
    parent).
    """

    _lift = 1

    def __init__(self, f: ScalarField, i: int):
        self.f = f
        self.i = i
        self.dim = f.dim
        self._built_on((f,))

    @classmethod
    def _args(cls, nodes, order, slots):
        # the gradient and Hessian tables read a row per (slot, coordinate)
        rows, _ = _gather([n.f for n in nodes], order + 1, slots)
        return (rows * nodes[0].dim + np.fromiter((n.i for n in nodes), np.intp, len(nodes)),)

    @staticmethod
    def _kernel(t, out, rows):
        t.grad_rows.take(rows, 0, out.value, "clip")
        if out.grad is not None:
            # row i of the exactly symmetric Hessian is its column i
            t.hess_rows.take(rows, 0, out.grad, "clip")


def _flat(terms) -> tuple:
    """``terms`` with every sum replaced by its terms and zeros left out,
    so that equal sums, however grouped, are one key of the node table
    and add their terms left to right."""
    flat = []
    for t in terms:
        if t.__class__ is SumField:
            flat += t.terms
        elif not t.is_zero:
            flat.append(t)
    return tuple(flat)


def field_sum_d(terms, dim: int) -> ScalarField:
    flat = _flat(terms)
    if len(flat) > 1:
        return _shared(SumField, flat)
    return flat[0] if flat else const_field(0.0, dim)


def by_place(terms) -> list:
    """The terms of ``[(place, term)]`` by increasing place, where places
    number the terms of a sum in the order of its dense loop."""
    return [t for _, t in sorted(terms, key=operator.itemgetter(0))]


def ordered_sums(terms: dict, dim: int) -> dict:
    """``{idx: [(place, term)]}`` summed :func:`by_place`, keys in increasing
    order, so each sum is the node the dense loop over all indices builds."""
    return {idx: field_sum_d(by_place(ts), dim) for idx, ts in sorted(terms.items())}


# ---------------------------------------------------------------------------
# Matrix inversion as a family of scalar fields


class _MatrixInverse:
    """Jets of the inverse of a field matrix, from the jets of its entries.

    Given jets of the entries of M(x), the inverse N = M^{-1} has
    dN = -N (dM) N and
    d2N_{kl} = -N M_{,kl} N + N M_{,k} N M_{,l} N + N M_{,l} N M_{,k} N,
    all exact to second order.  The result is the jet of the matrix N,
    point-major as ``np.linalg.inv`` and the contractions read it:
    ``value`` ``(P, n, n)``, ``grad`` ``(P, n, n, d)`` and ``hess``
    ``(P, n, n, d, d)``, with dN and d2N computed only when requested.
    N is NaN at a point where M has a non-finite entry; a finite
    singular M raises :class:`SingularMatrixError` naming its first point.

    When every entry off the diagonal is a structural zero, ``diagonal``
    holds the diagonal entries, and :meth:`diagonal_jet` computes N's
    diagonal entrywise from theirs, with the operations of the dense
    formula in the same order, so it agrees with the dense path's bit for
    bit: N_ii = 1/M_ii.  Every entry off the diagonal is 0 (the dense
    path's zeros there may be -0.0).  It does so only for a chunk
    where M's diagonal is finite and every part of the result is
    finite, so M is invertible at every point and no product
    overflowed; any other chunk takes the dense path, which names the
    first singular point and gives NaN where M is not finite.
    """

    def __init__(self, entries: tuple):
        # the entries of the n x n matrix in row-major order
        self.entries = entries
        n = self.n = math.isqrt(len(entries))
        self.dim = entries[0].dim
        # entry k is on the diagonal when k is a multiple of n + 1
        off = (f for k, f in enumerate(entries) if k % (n + 1))
        self.diagonal = entries[:: n + 1] if all(f.is_zero for f in off) else None

    def jet(self, entries: Jet2, order: int) -> Jet2:
        """From the stacked jet of the entries, in row-major order."""
        n = self.n
        M = point_matrices(entries.value, n)
        try:
            N = finite_only(np.linalg.inv, M)
        except np.linalg.LinAlgError:
            # the first point whose matrix alone fails to invert
            for p in range(len(M)):
                try:
                    finite_only(np.linalg.inv, M[p : p + 1])
                except np.linalg.LinAlgError:
                    raise SingularMatrixError(p) from None
            raise
        if order < 1:
            return Jet2(N, None, None)
        NG = np.einsum("pia,pabk->pibk", N, point_matrices(entries.grad, n))
        dN = -np.einsum("pibk,pbj->pijk", NG, N)
        if order < 2:
            return Jet2(N, dN, None)
        t_h = -np.einsum("pia,pabkl,pbj->pijkl", N, point_matrices(entries.hess, n), N)
        t_g = -np.einsum("pibk,pbjl->pijkl", NG, dN)
        # sum the symmetric pair first so the Hessian stays exactly symmetric
        d2N = t_h + (t_g + t_g.transpose(0, 1, 2, 4, 3))
        return Jet2(N, dN, d2N)

    @staticmethod
    def diagonal_jet(diagonal: Jet2) -> Jet2 | None:
        """The stacked jet of N's diagonal entries, laid out as the tables
        are, from that of M's, to the same order; ``None`` when the chunk
        needs the dense path (see the class docstring)."""
        g = diagonal.value
        if not np.isfinite(g).all():
            return None
        N = 1.0 / g
        parts = [N]
        if diagonal.grad is not None:
            NG = N[:, None] * diagonal.grad
            dN = -(NG * N[:, None])
            parts.append(dN)
            if diagonal.hess is not None:
                t_h = -((N[:, None, None] * diagonal.hess) * N[:, None, None])
                t_g = -(NG[:, :, None] * dN[:, None, :])
                parts.append(t_h + (t_g + t_g.transpose(0, 2, 1, 3)))
        if not all(np.isfinite(x).all() for x in parts):
            return None
        return Jet2(*parts, *[None] * (3 - len(parts)))


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
    group, at one order, so the inverse is computed once per chunk."""

    def __init__(self, core: _MatrixInverse, i: int, j: int):
        self.core = core
        self.i = i
        self.j = j
        self.dim = core.dim
        self._kind = core
        self._built_on(core.entries)

    @classmethod
    def _args(cls, nodes, order, slots):
        core = nodes[0].core
        i, j = (np.array(ix, dtype=np.intp) for ix in zip(*((n.i, n.j) for n in nodes)))
        # the diagonal's slots, and the places of the entries off it
        diagonal = None if core.diagonal is None else (_gather(core.diagonal, order, slots), np.flatnonzero(i != j))
        return core, _gather(core.entries, order, slots), diagonal, i, j

    @staticmethod
    def _kernel(t, out, core, entries, diagonal, i, j):
        parts = (out.value, out.grad, out.hess)
        if diagonal is not None:
            ref, off = diagonal
            inv = core.diagonal_jet(t.jet(ref))
            if inv is not None:
                for part, x in zip(parts, (inv.value, inv.grad, inv.hess)):
                    if part is not None:
                        x.take(i, 0, part, "clip")
                        part[off] = 0.0
                return
        inv = core.jet(t.jet(entries), entries[1])
        for part, x in zip(parts, (inv.value, inv.grad, inv.hess)):
            if part is not None:
                part[...] = np.moveaxis(x[:, i, j], 0, -1)


def point_matrices(x: np.ndarray, rows: int) -> np.ndarray:
    """A part of the stacked jet of a row-major matrix of fields,
    ``(rows * cols, ..., P)``, as one matrix per point: a strided view
    ``(P, rows, cols, ...)``."""
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
    built when it is first read, so no entry is built that nothing reads."""

    def __init__(self, core: _MatrixInverse, i: int):
        self.core, self.i = core, i

    def __getitem__(self, j: int) -> ScalarField:
        if not 0 <= j < self.core.n:
            raise IndexError(j)
        return _shared(MatrixInverseField, self.core, self.i, j)


def matrix_inverse_fields(entries) -> list[_InverseRow]:
    """Entry fields of the pointwise inverse of a square field matrix, by row."""
    core = _shared(_MatrixInverse, tuple(f for row in entries for f in row))
    return [_InverseRow(core, i) for i in range(core.n)]


# ---------------------------------------------------------------------------
# Programs: stacked evaluation of field graphs


def _gather(nodes, order: int, slots) -> tuple:
    """The slot reference ``(rows, order)`` of ``nodes``: a node has one
    row number, which each table its order reaches uses, and the tables
    up to ``order`` are read."""
    return np.fromiter(map(slots.__getitem__, nodes), np.intp, len(nodes)), order


class Program:
    """The evaluation of groups of root fields, each group to one jet order.

    Compiling finds the nodes under the roots in one pass over buckets
    by ``level``, from the top down, putting each input in its level's
    bucket when first seen; inputs sit at lower levels, so every consumer
    of a node is done before it.  The pass gives each node:

    - a demand order: the highest order a consumer reads it to (the
      consumer's order, one more through a :class:`PartialField`), a root
      its group's order, at most 2;
    - an order: its demand, or its ``held`` order where lower, fixed
      before its inputs are reached;
    - a height: the length of the longest path from it up to a root;
    - a slot: one row number, of the value table, and of the gradient and
      Hessian tables when its order reaches them.  The nodes evaluated to
      order 2 take the first rows, then those to order 1, then the rest,
      so each table is as long as the count of nodes it holds.  Nodes
      are read and written through a slot reference ``(rows, order)``.

    Then it schedules the nodes by readiness: a node is ready once every
    one of its inputs has been scheduled, so the leaves, coordinates and
    constants, are ready first.  It keeps a count of each key's nodes
    (its class, order and ``_kind``) not yet scheduled.  Among the keys
    that have ready nodes it takes first a key whose every node left is
    ready, so that one group holds all of them; among those, or among all
    keys with ready nodes when no key is whole, it takes the key whose
    ready nodes include the greatest height, on a tie the highest order,
    and on a tie in both the key that has had ready nodes longest.  All of
    that key's ready nodes become one group, until no node is left.  The
    entries of a matrix inverse share their inputs and their ``_kind``,
    so they become ready together and are one group per inverse.  The
    schedule depends on insertion order alone, never on hashing.
    ``run`` runs each group, in that order, as one numpy kernel over the
    stacked rows of its operands, so every node is evaluated once per
    call, after its inputs; the leaves' kernels fill their rows from the
    points.  The program owns its tables and the space they live in (see
    ``_bind``); a run rebinds them only when the chunk length changes,
    and otherwise is a loop over bound kernels.
    ``run`` gives, for each root group, the stacked jet of its fields, to
    the group's order or as far as every field holds it.  A field
    differentiated more than twice makes compiling raise ``ValueError``.
    """

    def __init__(self, groups, dim: int):
        groups = [(list(fields), order) for fields, order in groups]
        # a node's demand and height are final when its level is reached.
        # ``users`` lists a consumer once for every input position at which
        # it reads the node, and ``waiting`` counts those positions
        demand: dict = {}
        for fields, order in groups:
            for f in fields:
                if demand.get(f, -1) < order:
                    demand[f] = min(order, 2)
        height = dict.fromkeys(demand, 0)
        users = {f: [] for f in demand}
        buckets = [[] for _ in range(max((f.level for f in demand), default=0) + 1)]
        for f in demand:
            buckets[f.level].append(f)
        waiting: dict = {}
        inverses: dict = {}
        for level in range(len(buckets) - 1, 0, -1):
            for node in buckets[level]:
                d = demand[node]
                if node.held < d:
                    if node.held < 0:
                        raise ValueError("jet order exhausted: a field was differentiated more than twice")
                    demand[node] = d = node.held
                inputs = node.inputs
                waiting[node] = len(inputs)
                up = height[node] + 1
                # at most 2: a partial holds one order less than its input
                need = d + node._lift
                for i in inputs:
                    consumers = users.get(i)
                    if consumers is None:
                        users[i] = [node]
                        demand[i] = need
                        height[i] = up
                        buckets[i.level].append(i)
                        continue
                    consumers.append(node)
                    if height[i] < up:
                        height[i] = up
                    if demand[i] < need:
                        demand[i] = need
                if node.__class__ is MatrixInverseField:
                    inverses.setdefault(node.core, []).append(node)
        # an inverse is computed once per chunk, so its entries are evaluated
        # to one order, the highest any of them is; they share their inputs,
        # so each of them holds that order
        for entries in inverses.values():
            top = max(demand[n] for n in entries)
            for n in entries:
                demand[n] = top

        # the rows of each table, and the next free slot of each order
        orders = list(demand.values())
        sizes = (len(orders), orders.count(1) + orders.count(2), orders.count(2))
        base = [sizes[1], sizes[2], 0]
        slots: dict = {}
        self._kernels = []
        # the count of each key's nodes not yet scheduled, the ready nodes
        # by key, the greatest rank among each key's (its height, then its
        # order), and the nodes the last group made ready: the leaves at first
        unscheduled = Counter(zip(map(type, demand), demand.values(), map(attrgetter("_kind"), demand)))
        ready: dict = {}
        tallest: dict = {}
        fresh = buckets[0]
        while True:
            for node in fresh:
                k = demand[node]
                key = (node.__class__, k, node._kind)
                ready.setdefault(key, []).append(node)
                rank = 3 * height[node] + k
                if tallest.get(key, -1) < rank:
                    tallest[key] = rank
            if not ready:
                break
            # a key none of whose nodes still waits goes first, so each of
            # its nodes is in this one kernel
            whole = [key for key in tallest if len(ready[key]) == unscheduled[key]]
            key = max(whole or tallest, key=tallest.__getitem__)
            del tallest[key]
            cls, k, _ = key
            nodes = cls._arrange(ready.pop(key))
            unscheduled[key] -= len(nodes)
            start = base[k]
            end = base[k] = start + len(nodes)
            slots.update(zip(nodes, range(start, end)))
            self._kernels.append((cls._kernel, (slice(start, end), k), cls._args(nodes, k, slots)))
            fresh = []
            for node in nodes:
                for consumer in users[node]:
                    left = waiting[consumer] - 1
                    waiting[consumer] = left
                    if not left:
                        fresh.append(consumer)
        self._roots = [_gather(fields, min([order, *(demand[f] for f in fields)]), slots) for fields, order in groups]
        self.dim = dim
        self.sizes = sizes
        self.bytes_per_point = 8 * (sizes[0] + dim * sizes[1] + dim * dim * sizes[2])
        self._space = np.empty(0)
        self._count = None

    def run(self, points: np.ndarray):
        """The root groups' jets over ``points``, a ``(P, d)`` sample.
        The program keeps its tables bound to the chunk length of its last
        run, and binds them again only when it changes.  Every kernel runs
        before this returns; the jets come from an iterator that copies
        each group out of the tables as it is read, so a caller that
        reduces one group before reading the next holds one at a time.
        It must be read before the program runs again; the jets it gives
        do not share the tables."""
        if len(points) != self._count:
            self._bind(len(points))
        self.points = points
        for kernel, out, args in self._bound:
            kernel(self, out, *args)
        return (self.jet(ref) for ref in self._roots)

    def _bind(self, count: int):
        """Bind the tables to a chunk of ``count`` points: a row per slot
        of the value ``(S0, P)``, gradient ``(S1, d, P)`` and Hessian
        ``(S2, d, d, P)`` tables, carved in that order from the program's
        space, which grows only when they need more room than it has; the
        gradient and Hessian tables read again as a row per (slot,
        coordinate), ``grad_rows`` ``(S1 d, P)`` and ``hess_rows``
        ``(S2 d, d, P)``; and each kernel with its output jet, a view of
        its rows."""
        size = count * self.bytes_per_point // 8
        if len(self._space) < size:
            # the old space goes, with every view of it, before the new one is made
            self._space = self.value = self.grad = self.hess = self.grad_rows = self.hess_rows = self._bound = None
            self._space = np.empty(size)
        sizes, dim = self.sizes, self.dim
        shapes = ((sizes[0], count), (sizes[1], dim, count), (sizes[2], dim, dim, count))
        start = 0
        for name, shape in zip(("value", "grad", "hess"), shapes):
            end = start + math.prod(shape)
            setattr(self, name, self._space[start:end].reshape(shape))
            start = end
        self.grad_rows = self.grad.reshape(sizes[1] * dim, count)
        self.hess_rows = self.hess.reshape(sizes[2] * dim, dim, count)
        self._bound = [(kernel, self._view(out), args) for kernel, out, args in self._kernels]
        self._count = count

    def _view(self, ref) -> Jet2:
        """The jet of the slots ``(rows, order)`` with ``rows`` a slice: views of the tables."""
        rows, order = ref
        return Jet2(self.value[rows], self.grad[rows] if order else None, self.hess[rows] if order > 1 else None)

    def jet(self, ref) -> Jet2:
        """The stacked jet at a slot reference ``(rows, order)`` with
        ``rows`` an index array: a copy of those rows."""
        rows, order = ref
        return Jet2(
            self.value.take(rows, 0),
            self.grad.take(rows, 0) if order else None,
            self.hess.take(rows, 0) if order > 1 else None,
        )

    def take(self, ref, out: Jet2):
        """Copy the rows of ``ref`` into ``out``, to the order of ``ref``."""
        rows, order = ref
        for table, part in zip((self.value, self.grad, self.hess)[: order + 1], (out.value, out.grad, out.hess)):
            table.take(rows, 0, part, "clip")


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
            yield (f"{prefix} {tail}" if prefix and tail else prefix or tail), self.comps[idx]

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
        return const_field(0.0, self.chart.dim)

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
    :func:`ordered_sums`), the j-th term of a component placed at ``(tag, j)``."""
    for key, f in omega.comps.items():
        for i in range(omega.chart.dim):
            if i not in key and not (term := f.partial(i)).is_zero:
                j = bisect_left(key, i)
                terms.setdefault(key[:j] + (i,) + key[j:], []).append(((tag, j), signed(term, (-1) ** j)))


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
    """(i_v w)_{i2..ik} = v^{i1} w_{i1 i2..ik}."""
    if omega.degree < 1:
        raise ValueError("interior product needs a form of degree >= 1")
    terms: dict = {}
    _scatter_iota(v, omega, terms, 0)
    return FormField(omega.chart, omega.degree - 1, ordered_sums(terms, omega.chart.dim))


def _scatter_iota(v: "VectorField", omega: FormField, terms: dict, tag: int):
    """Add the terms of i_v omega to ``terms``, that of v^{i1} placed at ``(tag, i1)``."""
    for key, f in omega.comps.items():
        for p, i1 in enumerate(key):
            # w at (i1, rest) is f with the sign of moving i1 to p
            if not v.comps[i1].is_zero:
                terms.setdefault(key[:p] + key[p + 1 :], []).append(((tag, i1), v.comps[i1] * signed(f, (-1) ** p)))


def lie_derivative(v: "VectorField", omega: FormField, contracted: FormField | None = None) -> FormField:
    """Cartan formula: L_v = i_v d + d i_v, each component's terms summed
    once; ``contracted``, when given, is i_v omega, built already."""
    chart = omega.chart
    terms: dict = {}
    if omega.degree < chart.dim:
        _scatter_iota(v, exterior_derivative(omega), terms, 0)
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
        return VectorField(chart, [const_field(0.0, chart.dim) for _ in range(chart.dim)])

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
        self.g = [[const_field(0.0, d) for _ in range(d)] for _ in range(d)]
        for (i, j), f in entries.items():
            if i > j:
                raise ValueError("metric entries are keyed by upper-triangle indices")
            self.g[i][j] = f
            self.g[j][i] = f
        # [i] -> [(j, g_ij)] over the non-zero g_ij
        self.stored = [[(j, f) for j, f in enumerate(row) if not f.is_zero] for row in self.g]

    @staticmethod
    def identity(chart: Chart) -> "MetricField":
        return MetricField(
            chart, {(i, i): const_field(1.0, chart.dim) for i in range(chart.dim)}
        )

    def inverse(self):
        """Entry fields of g^{-1}, with exact second-order jets."""
        return matrix_inverse_fields(self.g)

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
    """(L_v g)_ij = v^k d_k g_ij + d_i v^k g_kj + d_j v^k g_ik, as a field matrix."""
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
    return out


def max_abs_fields(fields, points: np.ndarray) -> float:
    """Largest |f| over the sample; NaN or inf when any value is non-finite.
    Only values are evaluated, all by one program."""
    live = [f for f in fields if not f.is_zero]
    if not live:
        return 0.0
    values = next(Program([(live, 0)], live[0].dim).run(points)).value
    return float(np.max(np.abs(values), initial=0.0))
