"""Chart-local calculus on arrays of scalar fields.

A :class:`ScalarField` is a node of a field graph, evaluable to jets up
to second order over a point sample: a coordinate, a constant, or an
algebraic, differential or expression combination of other fields.  A
model's expressions are lowered into such nodes when it loads (see
:func:`lower`).  Field graphs hold no sample data, so a graph built once
serves every sample.  Graphs are evaluated by a :class:`Program`,
compiled once from groups of root fields, each group read to one jet
order.  The jet order is a demand that flows down the graph: a residual
asks for values only (order 0), every node but a partial passes the
order on, and a :class:`PartialField` asks its input for one order more,
so each node gets one demand order, the highest any consumer reads, and
computes only those derivatives.  Differentiating an evaluated field consumes
one jet order, so a once-differentiated field still has an exact value
and gradient but no Hessian.  No check in this package ever
differentiates a field more than twice.

A program evaluates a chunk of points at a time, one group after
another: a group is nodes of one class and order (and, for an
expression node, rule) whose inputs are evaluated, taken from the ready
nodes by the rule of :class:`Program`, and one numpy kernel evaluates
it over their stacked operand rows with the rules of :class:`Jet2`, so
a run costs numpy work per group, not interpreter work per node.  Each
node is evaluated once per chunk, into a slot of the program's tables,
which live only for the chunk.  A check run compiles the graphs of every suite it selects into
one program, so the groups, and the nodes the suites share, span every
suite.  The leaves, coordinates and constants, are groups too, whose
kernels fill their rows from the chunk's points, so a program evaluates
a model's expressions together with everything built on them.
``ScalarField.eval`` and :func:`max_abs_fields` evaluate a one-off
program of their own over the whole sample.  Every jet here has the one
layout of :class:`Jet2`, the point axis last: the tables and the roots'
jets a program returns, so every kernel runs along the points.  Only
the matrix inverse moves an axis, to hand ``np.linalg.inv`` one matrix
per point.

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
once built.  Callers therefore write sparse contractions as plain sums
of products, pass the component dict to the constructor, and test
``is_zero`` only to decide whether a report row exists.

Equal nodes are one node.  The algebra (sums, differences, products,
negations, scalings, partials, non-zero constants, coordinates, the
expression nodes of :func:`lower`, and a matrix inverse and its entries)
looks every node up in one module-level table before it builds it,
keyed by the node's class and constructor arguments, with input nodes
compared by identity and a sum keyed by its flattened terms.
Inputs are shared first, so a node equal in structure to a live one is
that node: builders ask for what they need without handing nodes to
each other, and a program evaluates each distinct node once.  Nothing
is rewritten (``a*b`` and ``b*a`` stay two nodes), so every value is
the same, bit for bit, as without sharing.  The table holds its nodes
weakly, so a dropped graph leaves it at once.  Zero constants are
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
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from operator import attrgetter

import numpy as np

from .expressions import Add, Call, Div, DomainError, Expr, Jet2, Mul, Neg, Num, Pow, Sub, Var, parse
from .expressions import call, power, quotient, variable_power


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

    @property
    def dim(self) -> int:
        return len(self.coordinates)

    def sample(self, count: int, seed: int) -> np.ndarray:
        """Uniform points in the box from a seeded 64-bit generator."""
        rng = np.random.default_rng(seed)
        lo = np.array([b[0] for b in self.box])
        hi = np.array([b[1] for b in self.box])
        points = lo + rng.random((count, self.dim)) * (hi - lo)
        # read-only: every suite of a run evaluates this one sample
        points.flags.writeable = False
        return points


# ---------------------------------------------------------------------------
# Scalar fields


class _Node:
    """A node of a field graph: ``inputs`` are the nodes it is built on,
    ``level`` is 0 for a leaf and else one more than its highest input's,
    and ``held`` is the highest jet order it can hold (one less for each
    partial on a path down to a leaf; below 0 it cannot be evaluated).
    Nodes form a graph without cycles."""

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


# Every live node the algebra has built, keyed by its class and its
# constructor arguments, input nodes by identity, and held weakly: an
# entry goes when its node does.
_NODES: dict = {}


def _forget(ref, nodes=_NODES):
    # ``nodes`` is bound here, so a node freed at interpreter exit still
    # finds the table; a new node of its key may have taken its entry
    if nodes.get(ref.key) is ref:
        del nodes[ref.key]


def _shared(cls, *args):
    """The node ``cls(*args)``: the live one built already, or a new one."""
    key = (cls, *args)
    ref = _NODES.get(key)
    node = None if ref is None else ref()
    if node is None:
        node = cls(*args)
        _NODES[key] = weakref.KeyedRef(node, _forget, key)
    return node


class ScalarField(_Node):
    """A scalar function on a chart, evaluable to second-order jets.

    ``eval(points, order)`` gives the :class:`Jet2` over a ``(P, d)``
    sample up to ``order``, through a one-off :class:`Program` of this
    field alone.  ``jet`` and ``value`` are one-point views: a one-point
    sample, read back at point 0.

    Every subclass supplies ``_kernel(tables, out, *args)``, which
    evaluates a group of its nodes at once into ``out``, the stacked jet
    of their slots, from its operands' slots and the attributes named in
    ``_params`` (or from its own ``_args``).
    """

    dim: int

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
        inputs = [_gather(column, lifted, slots) for column in zip(*map(_INPUTS, nodes))]
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
    """A quotient, power or function node of a lowered expression: ``rule``
    of :mod:`momsec.expressions` with ``param`` (a number exponent or a
    function name) applied to its inputs.  ``expr`` is the subexpression,
    which a domain error names."""

    def __init__(self, rule, param, expr: Expr, *inputs: ScalarField):
        self._kind = (rule, param)
        self.expr = expr
        self.dim = inputs[0].dim
        self._built_on(inputs)

    @classmethod
    def _args(cls, nodes, order, slots):
        return (*nodes[0]._kind, [n.expr for n in nodes], *super()._args(nodes, order, slots))

    @staticmethod
    def _kernel(t, out, rule, param, exprs, *inputs):
        jet = rule(param, exprs, *map(t.jet, inputs))
        for part, x in zip((out.value, out.grad, out.hess), (jet.value, jet.grad, jet.hess)):
            if part is not None:
                part[...] = x


def lower(expr: Expr, dim: int) -> ScalarField:
    """The field node of a parsed expression on a chart of dimension
    ``dim``, one call per tree level.  Sums, differences, products and
    negations go through the algebra, so equal subexpressions are one node
    and zeros fold; a subexpression without a coordinate becomes its
    number, so an exponent is variable only where it has a coordinate."""
    if isinstance(expr, Num):
        return const_field(expr.value, dim)
    if isinstance(expr, Var):
        return _shared(CoordField, expr.index, dim)
    if isinstance(expr, Neg):
        return lower(expr.operand, dim).scaled(-1.0)
    if isinstance(expr, Call):
        inputs = (lower(expr.arg, dim),)
        node = _shared(RuleField, call, expr.func, expr, *inputs)
    elif isinstance(expr, Pow):
        inputs = base, exponent = lower(expr.base, dim), lower(expr.exponent, dim)
        if isinstance(exponent, ConstField):
            node = _shared(RuleField, power, exponent.c, expr, base)
        else:
            node = _shared(RuleField, variable_power, None, expr, base, exponent)
    else:
        inputs = left, right = lower(expr.left, dim), lower(expr.right, dim)
        if isinstance(expr, Div):
            node = _shared(RuleField, quotient, None, expr, left, right)
        else:
            node = _ALGEBRA[expr.__class__](left, right)
    if all(isinstance(f, ConstField) for f in inputs):
        return const_field(_number(node), dim)
    return node


_ALGEBRA = {Add: operator.add, Sub: operator.sub, Mul: operator.mul}


def _number(f: ScalarField) -> float:
    """The value of a field without coordinates; a domain error in it
    names no point.  Overflow gives inf or NaN, as it does in a run."""
    try:
        with np.errstate(all="ignore"):
            return f.c if isinstance(f, ConstField) else f.value(np.zeros(f.dim))
    except DomainError as exc:
        raise DomainError(exc.reason, exc.subexpression) from None


class ExprField:
    """``parse`` parses a source against a chart's coordinates and lowers
    it; the loader calls it by this name, which tools can wrap."""

    @staticmethod
    def parse(source: str, chart: Chart) -> ScalarField:
        return lower(parse(source, chart.coordinates), chart.dim)


def eval_jet(expr: Expr, point) -> Jet2:
    """The jet of ``expr`` at one point, its lowered field's one-point view; tools wrap this name."""
    return lower(expr, len(point)).jet(point)


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
        # column j: the term at position j of each node that has one
        columns = [[] for _ in nodes[0].terms]
        for n in nodes:
            for column, term in zip(columns, n.terms):
                column.append(term)
        return tuple(_gather(column, order, slots) for column in columns)

    @staticmethod
    def _kernel(t, out, first, *rest):
        # left to right, as a + b + c adds
        t.take(first, out)
        for slots in rest:
            n = len(slots[0])
            term = t.jet(slots)
            out.value[:n] += term.value
            if term.grad is not None:
                out.grad[:n] += term.grad
            if term.hess is not None:
                out.hess[:n] += term.hess


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
    _params = ("i",)

    def __init__(self, f: ScalarField, i: int):
        self.f = f
        self.i = i
        self.dim = f.dim
        self._built_on((f,))

    @staticmethod
    def _kernel(t, out, f, i):
        _, grad, hess = f
        out.value[...] = t.grad[grad, i]
        if out.grad is not None:
            # row i of the exactly symmetric Hessian is its column i
            out.grad[...] = t.hess[hess, i]


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
    """

    def __init__(self, entries: tuple):
        # the entries of the n x n matrix in row-major order
        self.entries = entries
        self.n = math.isqrt(len(entries))
        self.dim = entries[0].dim

    def jet(self, entries: Jet2, order: int) -> Jet2:
        """From the stacked jet of the entries, in row-major order."""
        n = self.n

        def matrices(x):
            # the point axis second and contiguous, then one matrix per point
            x = np.ascontiguousarray(np.moveaxis(x, -1, 1))
            return np.moveaxis(x.reshape(n, n, *x.shape[1:]), 2, 0)

        M = matrices(entries.value)
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
        NG = np.einsum("pia,pabk->pibk", N, matrices(entries.grad))
        dN = -np.einsum("pibk,pbj->pijk", NG, N)
        if order < 2:
            return Jet2(N, dN, None)
        t_h = -np.einsum("pia,pabkl,pbj->pijkl", N, matrices(entries.hess), N)
        t_g = -np.einsum("pibk,pbjl->pijkl", NG, dN)
        # sum the symmetric pair first so the Hessian stays exactly symmetric
        d2N = t_h + (t_g + t_g.transpose(0, 1, 2, 4, 3))
        return Jet2(N, dN, d2N)


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
        return order, core, _gather(core.entries, order, slots), i, j

    @staticmethod
    def _kernel(t, out, order, core, entries, i, j):
        inv = core.jet(t.jet(entries), order)
        for part, x in zip((out.value, out.grad, out.hess), (inv.value, inv.grad, inv.hess)):
            if part is not None:
                part[...] = np.moveaxis(x[:, i, j], 0, -1)


def finite_only(f, matrices: np.ndarray) -> np.ndarray:
    """``f`` of a ``(P, ...)`` stack of matrices, applied to those whose
    entries are all finite; NaN in place of its result for the others."""
    finite = np.isfinite(matrices).all(axis=(-2, -1))
    result = f(matrices[finite])
    out = np.full((len(matrices), *result.shape[1:]), np.nan)
    out[finite] = result
    return out


def matrix_inverse_fields(entries) -> list[list[ScalarField]]:
    """Entry fields of the pointwise inverse of a square field matrix."""
    core = _shared(_MatrixInverse, tuple(f for row in entries for f in row))
    n = core.n
    return [[_shared(MatrixInverseField, core, i, j) for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# Programs: stacked evaluation of field graphs


_LEVEL = attrgetter("level")
_INPUTS = attrgetter("inputs")


def _gather(nodes, order: int, slots) -> tuple:
    """The rows of ``nodes`` in the value table, and in the gradient and
    Hessian tables up to ``order``; ``None`` above it.  A node has one
    row number, which each table its order reaches uses."""
    rows = np.fromiter(map(slots.__getitem__, nodes), np.intp, len(nodes))
    return rows, rows if order >= 1 else None, rows if order >= 2 else None


class _Tables:
    """One chunk's jets of a program's nodes: a row per slot of the
    value ``(S0, P)``, gradient ``(S1, d, P)`` and Hessian
    ``(S2, d, d, P)`` tables, carved in that order from ``space``, and
    the chunk's ``(P, d)`` points."""

    def __init__(self, sizes, points: np.ndarray, dim: int, space: np.ndarray):
        self.points = points
        count = len(points)
        shapes = ((sizes[0], count), (sizes[1], dim, count), (sizes[2], dim, dim, count))
        start = 0
        for name, shape in zip(("value", "grad", "hess"), shapes):
            end = start + math.prod(shape)
            setattr(self, name, space[start:end].reshape(shape))
            start = end

    def jet(self, slots) -> Jet2:
        """The stacked jet of the nodes at ``slots`` (see :func:`_gather`):
        rows of index arrays gathered, a copy; rows of slices, a view."""
        value, grad, hess = slots
        return Jet2(
            self.value[value], None if grad is None else self.grad[grad], None if hess is None else self.hess[hess]
        )

    def take(self, slots, out: Jet2):
        """Gather the nodes at ``slots`` into each array ``out`` has."""
        for table, rows, part in zip((self.value, self.grad, self.hess), slots, (out.value, out.grad, out.hess)):
            if part is not None:
                np.take(table, rows, axis=0, out=part, mode="clip")


class Program:
    """The evaluation of groups of root fields, each group to one jet order.

    Compiling walks the graph under the roots once, consumers before
    inputs (by falling ``level``), and gives each node:

    - a demand order: the highest order a consumer reads it to, a root
      its group's order, and one more through a :class:`PartialField`
      (at most 2);
    - an order: its demand, or its ``held`` order where that is lower;
    - a height: the length of the longest path from it up to a root;
    - a slot: one row number, of the value table, and of the gradient and
      Hessian tables when its order reaches them.  The nodes evaluated to
      order 2 take the first rows, then those to order 1, then the rest,
      so each table is as long as the count of nodes it holds.

    Then it schedules the nodes by readiness: a node is ready once every
    one of its inputs has been scheduled, so the leaves, coordinates and
    constants, are ready first.  Among the keys (class, order and
    ``_kind``) that have ready nodes, it takes the key whose ready nodes
    include the greatest height, and all of that key's ready nodes become
    one group, until no node is left.  The entries of a matrix inverse
    share their inputs and their ``_kind``, so they become ready together
    and are one group per inverse.  The schedule depends on insertion
    order alone, never on hashing.  ``run`` runs each group, in that
    order, as one numpy kernel over the stacked rows of its operands, so
    every node is evaluated once per call, after its inputs; the leaves'
    kernels fill their rows from the points.  ``run`` gives, for each root
    group, the stacked jet of its fields, to the group's order or as far
    as every field holds it.  A field differentiated more than twice makes
    compiling raise ``ValueError``.
    """

    def __init__(self, groups, dim: int):
        groups = [(list(fields), order) for fields, order in groups]
        # every node under the roots, with its demand order
        demand: dict = {}
        for fields, order in groups:
            for f in fields:
                if demand.get(f, -1) < order:
                    demand[f] = min(order, 2)
        # ``users`` lists each node's consumers, a consumer once for every
        # input position at which it reads the node
        users = {f: [] for f in demand}
        stack = list(demand)
        while stack:
            node = stack.pop()
            for i in node.inputs:
                consumers = users.get(i)
                if consumers is None:
                    users[i] = [node]
                    demand[i] = 0
                    stack.append(i)
                else:
                    consumers.append(node)
        # consumers before inputs, so each node's demand and height are
        # final when it is reached; then ``demand`` keeps the order the node
        # is evaluated to.  ``waiting`` counts the inputs a node waits for,
        # one for every position, as ``users`` does; a leaf waits for none
        height = dict.fromkeys(demand, 0)
        waiting: dict = {}
        leaves = []
        inverses: dict = {}
        for node in sorted(demand, key=_LEVEL, reverse=True):
            d = demand[node]
            inputs = node.inputs
            if inputs:
                waiting[node] = len(inputs)
                up = height[node] + 1
                need = d + node._lift
                if need > 2:
                    need = 2
                for i in inputs:
                    if height[i] < up:
                        height[i] = up
                    if demand[i] < need:
                        demand[i] = need
            else:
                leaves.append(node)
            k = node.held
            if k < d:
                if k < 0:
                    raise ValueError("jet order exhausted: a field was differentiated more than twice")
                demand[node] = k
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
        # the ready nodes by key, the greatest height among each key's, and
        # the nodes the last group made ready: the leaves at first
        ready: dict = {}
        tallest: dict = {}
        fresh = leaves
        while True:
            for node in fresh:
                key = (node.__class__, demand[node], node._kind)
                ready.setdefault(key, []).append(node)
                h = height[node]
                if tallest.get(key, -1) < h:
                    tallest[key] = h
            if not ready:
                break
            key = max(tallest, key=tallest.__getitem__)
            del tallest[key]
            cls, k, _ = key
            nodes = cls._arrange(ready.pop(key))
            start = base[k]
            end = base[k] = start + len(nodes)
            slots.update(zip(nodes, range(start, end)))
            rows = slice(start, end)
            out = rows, rows if k else None, rows if k == 2 else None
            self._kernels.append((cls._kernel, out, cls._args(nodes, k, slots)))
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

    def run(self, points: np.ndarray, space: np.ndarray | None = None):
        """The root groups' jets over ``points``, a ``(P, d)`` sample.
        The tables live in ``space``, a float array of at least
        ``P * bytes_per_point / 8`` entries, which a caller evaluating
        chunk after chunk can reuse.  Every kernel runs before this
        returns; the jets come from an iterator that gathers each group
        as it is read, so a caller that reduces one group before reading
        the next holds one at a time.  It must be read before ``space`` is
        reused; the jets it gives do not share ``space``."""
        if space is None:
            space = np.empty(len(points) * self.bytes_per_point // 8)
        t = _Tables(self.sizes, points, self.dim, space)
        for kernel, out, args in self._kernels:
            kernel(t, t.jet(out), *args)
        return (t.jet(slots) for slots in self._roots)


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
        for q in range(1, len(idx)):
            if idx[q - 1] >= idx[q]:
                break
        else:
            # a canonical key that is not stored
            return self._zero()
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

    @staticmethod
    def build(chart: Chart, degree: int, entries) -> "FormField":
        """Build from (index tuple, field) pairs, antisymmetrizing indices."""
        comps = {}
        for idx, f in entries:
            canon, sign = sort_signed(tuple(idx))
            if canon is None:
                raise ValueError(f"repeated index in antisymmetric entry {tuple(idx)}")
            if canon in comps:
                raise ValueError(f"duplicate entry for component {canon}")
            if canon and (canon[0] < 0 or canon[-1] >= chart.dim):
                raise ValueError("component index out of range for the chart")
            comps[canon] = f if sign > 0 else -f
        return FormField(chart, degree, comps)


def exterior_derivative(omega: FormField) -> FormField:
    """d on component arrays: (d w)_{i0..ik} = sum_j (-1)^j d_{ij} w_{..no ij..}."""
    chart = omega.chart
    k = omega.degree
    if omega.is_zero or k >= chart.dim:
        # every (k+1)-form above the top degree is zero
        return FormField(chart, k + 1)
    comps = {}
    for idx in combinations(range(chart.dim), k + 1):
        terms = []
        for j, ij in enumerate(idx):
            term = omega.comp(idx[:j] + idx[j + 1 :]).partial(ij)
            terms.append(term if j % 2 == 0 else -term)
        comps[idx] = field_sum_d(terms, chart.dim)
    return FormField(chart, k + 1, comps)


def wedge(alpha: FormField, beta: FormField) -> FormField:
    """Shuffle-convention wedge: unit coefficients, no factorial weights."""
    chart = alpha.chart
    k, l = alpha.degree, beta.degree
    if alpha.is_zero or beta.is_zero:
        return FormField(chart, k + l)
    if k + l > chart.dim:
        raise ValueError("wedge degree exceeds the chart dimension")
    comps = {}
    for idx in combinations(range(chart.dim), k + l):
        terms = []
        for subset in combinations(range(k + l), k):
            left = tuple(idx[p] for p in subset)
            right_positions = tuple(p for p in range(k + l) if p not in subset)
            right = tuple(idx[p] for p in right_positions)
            sign = sort_signed(subset + right_positions)[1]
            prod = alpha.comp(left) * beta.comp(right)
            terms.append(prod if sign > 0 else -prod)
        comps[idx] = field_sum_d(terms, chart.dim)
    return FormField(chart, k + l, comps)


def interior_product(v: "VectorField", omega: FormField) -> FormField:
    """(i_v w)_{i2..ik} = v^{i1} w_{i1 i2..ik}."""
    if omega.degree < 1:
        raise ValueError("interior product needs a form of degree >= 1")
    chart = omega.chart
    if omega.is_zero:
        return FormField(chart, omega.degree - 1)
    comps = {}
    for idx in combinations(range(chart.dim), omega.degree - 1):
        terms = [v.comps[i1] * omega.comp((i1,) + idx) for i1 in range(chart.dim)]
        comps[idx] = field_sum_d(terms, chart.dim)
    return FormField(chart, omega.degree - 1, comps)


def lie_derivative(v: "VectorField", omega: FormField) -> FormField:
    """Cartan formula: L_v = i_v d + d i_v."""
    chart = omega.chart
    parts = []
    if omega.degree < chart.dim:
        parts.append(interior_product(v, exterior_derivative(omega)))
    if omega.degree >= 1:
        parts.append(exterior_derivative(interior_product(v, omega)))
    out = FormField(chart, omega.degree)
    for p in parts:
        out = out + p
    return out


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


def lie_bracket(u: VectorField, v: VectorField) -> VectorField:
    """[u, v]^i = u^j d_j v^i - v^j d_j u^i."""
    chart = u.chart
    out = []
    for i in range(chart.dim):
        terms = []
        for j in range(chart.dim):
            terms.append(u.comps[j] * v.comps[i].partial(j))
            terms.append(-(v.comps[j] * u.comps[i].partial(j)))
        out.append(field_sum_d(terms, chart.dim))
    return VectorField(chart, out)


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

    @staticmethod
    def identity(chart: Chart) -> "MetricField":
        return MetricField(
            chart, {(i, i): const_field(1.0, chart.dim) for i in range(chart.dim)}
        )

    def inverse(self):
        """Entry fields of g^{-1}, with exact second-order jets."""
        return matrix_inverse_fields(self.g)

    def lower(self, v: VectorField) -> FormField:
        """(g_flat v)_i = g_ij v^j as a 1-form."""
        chart = self.chart
        comps = {}
        for i in range(chart.dim):
            terms = [self.g[i][j] * v.comps[j] for j in range(chart.dim)]
            comps[(i,)] = field_sum_d(terms, chart.dim)
        return FormField(chart, 1, comps)


def lie_derivative_metric(v: VectorField, g: MetricField):
    """(L_v g)_ij = v^k d_k g_ij + d_i v^k g_kj + d_j v^k g_ik, as a field matrix."""
    chart = g.chart
    d = chart.dim
    out = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            terms = []
            for k in range(d):
                terms.append(v.comps[k] * g.g[i][j].partial(k))
                terms.append(v.comps[k].partial(i) * g.g[k][j])
                terms.append(v.comps[k].partial(j) * g.g[i][k])
            total = field_sum_d(terms, d)
            out[i][j] = total
            out[j][i] = total
    return out


def max_abs_fields(fields, points: np.ndarray) -> float:
    """Largest |f| over the sample; NaN or inf when any value is non-finite.
    Only values are evaluated, all by one program."""
    live = [f for f in fields if not f.is_zero]
    if not live:
        return 0.0
    values = next(Program([(live, 0)], live[0].dim).run(points)).value
    return float(np.max(np.abs(values), initial=0.0))
