"""Chart-local calculus on arrays of scalar fields.

A :class:`ScalarField` is anything that can produce jets up to second
order over a point sample: a parsed expression, a constant, or an
algebraic/differential combination of other fields.  Field graphs hold
no sample data, so a graph built once serves every sample.  A field is
evaluated over the whole sample at once by ``eval(points, order, memo)``,
and the memo, a dict owned by the caller, is where jets live: a run
keeps one per suite and drops it when the suite ends.  The memo keeps a
jet only where it will be read again: for every node asked for through
``eval`` (a root, such as a residual row) and for every node that more
than one live node is built on.  Each node counts its consumers as they
are built and loses one when a consumer is freed, as the temporaries of
the algebra are.  A node with a single consumer is evaluated when that
consumer asks for it, and its jet is freed as soon as the consumer has
read it, so no jet outlives its memo and no caller can pin one.
The jet order is a demand that flows down the graph: a residual asks
for values only (order 0), sums, differences, products and scalings
pass the order on, and a :class:`PartialField` asks its parent for one
order more, so a node computes only the derivatives some consumer
reads.  A memo entry serves every request up to the order it holds; a
request above it evaluates the node again and replaces the entry.
Differentiating an evaluated field consumes one jet order, so a
once-differentiated field still has an exact value and gradient but no
Hessian.  No check in this package ever differentiates a field more
than twice.

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
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

# eval_jet is bound here as well so that it can be wrapped by name from outside
from .expressions import Expr, Jet2, eval_jet, eval_jets, parse  # noqa: F401


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
        # read-only: every jet a run's memo holds was computed from it
        points.flags.writeable = False
        return points


# ---------------------------------------------------------------------------
# Scalar fields


def _jet(node, points: np.ndarray, order: int, memo: dict, root: bool = False) -> Jet2:
    """``node``'s jet up to ``order``: from ``memo`` when it holds at least
    that order, else evaluated.  An evaluated jet is kept in ``memo`` when
    the node is a ``root`` or another consumer will read it too."""
    held = memo.get(node)
    if held is not None and held[0] >= order:
        return held[1] if held[0] == order else held[1].truncated(order)
    jet = node._eval(points, order, memo)
    if root or node.consumers > 1:
        memo[node] = (order, jet)
    return jet


class _Node:
    """A node of a field graph: ``inputs`` are the nodes it is built on,
    and ``consumers`` counts the live nodes built on it.  A constructor
    calls :meth:`_built_on` once with its inputs; when a node is freed (a
    temporary of the field algebra, say), its inputs lose that consumer.
    Nodes form a graph without cycles, so reference counting frees a
    node as soon as the last reference to it goes; a count that stays
    too high only keeps a jet in the memo for longer."""

    consumers = 0
    inputs: tuple = ()

    def _built_on(self, *inputs):
        self.inputs = inputs
        for node in inputs:
            node.consumers += 1

    def __del__(self):
        for node in self.inputs:
            node.consumers -= 1

    def _eval(self, points: np.ndarray, order: int, memo: dict) -> Jet2:
        raise NotImplementedError


class ScalarField(_Node):
    """A scalar function on a chart, evaluable to second-order jets.

    ``eval(points, order, memo)`` gives the :class:`Jet2` over a
    ``(P, d)`` sample up to ``order``.  Every node under it shares
    ``memo``, so a subtree shared by many fields (as built by the bracket
    and wedge machinery) is evaluated once per memo, unless a later
    consumer asks it for a higher order.  Without a memo the call uses a
    fresh one of its own.  ``jet`` and ``value`` are one-point views: a
    one-row sample, read back as row 0.
    """

    dim: int

    def eval(self, points: np.ndarray, order: int = 2, memo: dict | None = None) -> Jet2:
        return _jet(self, points, order, {} if memo is None else memo, root=True)

    def _at(self, point, order: int) -> Jet2:
        return self.eval(np.asarray(point, dtype=float).reshape(1, -1), order).row(0)

    def jet(self, point) -> Jet2:
        return self._at(point, 2)

    def value(self, point) -> float:
        return self._at(point, 0).value

    # only a zero ConstField is a structural zero
    is_zero = False

    # Algebra.  Known structural zeros are folded away so that sparse
    # contractions stay cheap and cancellations stay exact.
    def __add__(self, other: "ScalarField") -> "ScalarField":
        if other.is_zero:
            return self
        if self.is_zero:
            return other
        return SumField((self, other))

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        if other.is_zero:
            return self
        return DiffField(self, other)

    def __mul__(self, other: "ScalarField") -> "ScalarField":
        if self.is_zero:
            return self
        if other.is_zero:
            return other
        return ProdField(self, other)

    # ConstField overrides the three below, so here self is never zero
    def __neg__(self) -> "ScalarField":
        return ScaledField(-1.0, self)

    def scaled(self, c: float) -> "ScalarField":
        if c == 0.0:
            return const_field(0.0, self.dim)
        if c == 1.0:
            return self
        return ScaledField(c, self)

    def partial(self, i: int) -> "ScalarField":
        return PartialField(self, i)


class ConstField(ScalarField):
    def __init__(self, value: float, dim: int):
        self.c = float(value)
        self.dim = dim
        self.is_zero = self.c == 0.0

    def _eval(self, points, order, memo):
        return Jet2.constant(self.c, len(points), self.dim, order)

    def partial(self, i: int) -> "ScalarField":
        return const_field(0.0, self.dim)

    def scaled(self, c: float) -> "ScalarField":
        return self if self.is_zero else const_field(c * self.c, self.dim)

    def __neg__(self) -> "ScalarField":
        return self if self.is_zero else const_field(-self.c, self.dim)


ZERO_CACHE: dict[int, ConstField] = {}


def const_field(value: float, dim: int) -> ConstField:
    if value == 0.0:
        if dim not in ZERO_CACHE:
            ZERO_CACHE[dim] = ConstField(0.0, dim)
        return ZERO_CACHE[dim]
    return ConstField(value, dim)


class ExprField(ScalarField):
    def __init__(self, expr: Expr, chart: Chart):
        self.expr = expr
        self.chart = chart
        self.dim = chart.dim

    @staticmethod
    def parse(source: str, chart: Chart) -> "ExprField":
        return ExprField(parse(source, chart.coordinates), chart)

    def _eval(self, points, order, memo):
        return eval_jets(self.expr, points, order)


class SumField(ScalarField):
    def __init__(self, terms: tuple[ScalarField, ...]):
        flat: list[ScalarField] = []
        for t in terms:
            if isinstance(t, SumField):
                flat.extend(t.terms)
            elif not t.is_zero:
                flat.append(t)
        self.terms = tuple(flat)
        self.dim = terms[0].dim
        self._built_on(*self.terms)

    def _eval(self, points, order, memo):
        out = _jet(self.terms[0], points, order, memo)
        for t in self.terms[1:]:
            out = out + _jet(t, points, order, memo)
        return out


class DiffField(ScalarField):
    """Difference a - b; (a - b) and (b - a) evaluate to exact negatives."""

    def __init__(self, a: ScalarField, b: ScalarField):
        self.a = a
        self.b = b
        self.dim = a.dim
        self._built_on(a, b)

    def _eval(self, points, order, memo):
        return _jet(self.a, points, order, memo) - _jet(self.b, points, order, memo)


class ProdField(ScalarField):
    def __init__(self, a: ScalarField, b: ScalarField):
        self.a = a
        self.b = b
        self.dim = a.dim
        self._built_on(a, b)

    def _eval(self, points, order, memo):
        return _jet(self.a, points, order, memo) * _jet(self.b, points, order, memo)


class ScaledField(ScalarField):
    def __init__(self, c: float, f: ScalarField):
        self.c = c
        self.f = f
        self.dim = f.dim
        self._built_on(f)

    def _eval(self, points, order, memo):
        return _jet(self.f, points, order, memo).scale(self.c)


class PartialField(ScalarField):
    """The coordinate partial of another field.

    The jet forwards the parent's gradient and Hessian down one order,
    so the parent is evaluated one order above the request; its own
    Hessian is unavailable (it would be a third derivative of the
    parent).
    """

    def __init__(self, f: ScalarField, i: int):
        self.f = f
        self.i = i
        self.dim = f.dim
        self._built_on(f)

    def _eval(self, points, order, memo):
        parent = _jet(self.f, points, min(order + 1, 2), memo)
        if parent.grad is None:
            raise ValueError(
                "jet order exhausted: a field was differentiated more than twice"
            )
        grad = None if parent.hess is None else parent.hess[:, :, self.i].copy()
        return Jet2(parent.grad[:, self.i].copy(), grad, None)


def field_sum_d(terms, dim: int) -> ScalarField:
    live = [t for t in terms if not t.is_zero]
    if not live:
        return const_field(0.0, dim)
    if len(live) == 1:
        return live[0]
    return SumField(tuple(live))


# ---------------------------------------------------------------------------
# Matrix inversion as a family of scalar fields


class _MatrixInverseCore(_Node):
    """Shared evaluator for the entries of the inverse of a field matrix.

    Given jets of the entries of M(x), the inverse N = M^{-1} has
    dN = -N (dM) N and
    d2N_{kl} = -N M_{,kl} N + N M_{,k} N M_{,l} N + N M_{,l} N M_{,k} N,
    all exact to second order.  The result is the jet of the matrix N:
    ``value`` ``(P, n, n)``, ``grad`` ``(P, n, n, d)`` and ``hess``
    ``(P, n, n, d, d)``, with dN and d2N computed only when requested.
    The entry fields of the inverse read it as their one input.
    """

    def __init__(self, entries):
        self.entries = entries
        self.n = len(entries)
        self.dim = entries[0][0].dim
        self._built_on(*(f for row in entries for f in row))

    def _eval(self, points, order, memo):
        jets = [[_jet(f, points, order, memo) for f in row] for row in self.entries]
        V = np.moveaxis(np.array([[j.value for j in row] for row in jets]), 2, 0)
        N = np.linalg.inv(V)
        if order < 1:
            return Jet2(N, None, None)
        G = np.moveaxis(np.array([[j.grad for j in row] for row in jets]), 2, 0)
        NG = np.einsum("pia,pabk->pibk", N, G)
        dN = -np.einsum("pibk,pbj->pijk", NG, N)
        if order < 2:
            return Jet2(N, dN, None)
        H = np.moveaxis(np.array([[j.hess for j in row] for row in jets]), 2, 0)
        t_h = -np.einsum("pia,pabkl,pbj->pijkl", N, H, N)
        t_g = -np.einsum("pibk,pbjl->pijkl", NG, dN)
        # sum the symmetric pair first so the Hessian stays exactly symmetric
        d2N = t_h + (t_g + t_g.transpose(0, 1, 2, 4, 3))
        return Jet2(N, dN, d2N)


class MatrixInverseField(ScalarField):
    def __init__(self, core: _MatrixInverseCore, i: int, j: int):
        self.core = core
        self.i = i
        self.j = j
        self.dim = core.dim
        self._built_on(core)

    def _eval(self, points, order, memo):
        inv = _jet(self.core, points, order, memo)
        i, j = self.i, self.j
        grad = None if inv.grad is None else inv.grad[:, i, j].copy()
        hess = None if inv.hess is None else inv.hess[:, i, j].copy()
        return Jet2(inv.value[:, i, j].copy(), grad, hess)


def matrix_inverse_fields(entries) -> list[list[ScalarField]]:
    """Entry fields of the pointwise inverse of a square field matrix."""
    core = _MatrixInverseCore(entries)
    n = core.n
    return [[MatrixInverseField(core, i, j) for j in range(n)] for i in range(n)]


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
        self._inverse = None

    @staticmethod
    def identity(chart: Chart) -> "MetricField":
        return MetricField(
            chart, {(i, i): const_field(1.0, chart.dim) for i in range(chart.dim)}
        )

    def inverse(self):
        """Entry fields of g^{-1}, with exact second-order jets."""
        if self._inverse is None:
            self._inverse = matrix_inverse_fields(self.g)
        return self._inverse

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


def max_abs_fields(fields, points: np.ndarray, memo: dict | None = None) -> float:
    """Largest |f| over the sample; NaN or inf when any value is non-finite.
    Only values are evaluated, all through one memo."""
    memo = {} if memo is None else memo
    values = [f.eval(points, 0, memo).value for f in fields if not f.is_zero]
    return float(np.max(np.abs(values), initial=0.0))
