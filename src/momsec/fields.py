"""Chart-local calculus on arrays of scalar fields.

A :class:`ScalarField` is anything that can produce second-order jets
over a point sample: a parsed expression, a constant, or an
algebraic/differential combination of other fields.  A field is
evaluated over the whole sample at once, and each node keeps the jets
of the last sample it saw, so every node of a run's field graph is
evaluated once per run.  Differentiating an evaluated field (via
:class:`PartialField`) consumes one jet order, so a once-differentiated
field still has an exact value and gradient but no Hessian.  No check in
this package ever differentiates a field more than twice.

On top of scalar fields sit antisymmetric component containers:
:class:`FormField` (differential k-forms), :class:`VectorField` and
:class:`MetricField`, with the exterior derivative, wedge and interior
products, and Lie derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        # fields remember the last sample by identity; it must not change
        points.flags.writeable = False
        return points


# ---------------------------------------------------------------------------
# Scalar fields


class _PerSample:
    """Evaluation memoized in one slot: the last ``points`` array, matched by
    identity, and its result.  Holding the array keeps its identity from
    being reused; a sample must not be modified in place once evaluated on.
    """

    _sample = None
    _result = None

    def eval(self, points: np.ndarray):
        if self._sample is not points:
            self._result = self._eval(points)
            self._sample = points
        return self._result

    def _eval(self, points: np.ndarray):
        raise NotImplementedError


class ScalarField(_PerSample):
    """A scalar function on a chart, evaluable to second-order jets.

    ``eval(points)`` gives the :class:`Jet2` over a ``(P, d)`` sample and
    keeps it until the next sample.  A run passes one sample array
    everywhere, so a subtree shared by many fields (as built by the
    bracket and wedge machinery) is evaluated once per run.  ``jet`` and
    ``value`` are one-point views: a one-row sample, read back as row 0.
    """

    dim: int

    def jet(self, point) -> Jet2:
        return self.eval(np.asarray(point, dtype=float).reshape(1, -1)).row(0)

    def value(self, point) -> float:
        return self.jet(point).value

    @property
    def is_zero(self) -> bool:
        return False

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
        if self.is_zero or other.is_zero:
            return const_field(0.0, self.dim)
        return ProdField(self, other)

    def __neg__(self) -> "ScalarField":
        if self.is_zero:
            return self
        return ScaledField(-1.0, self)

    def scaled(self, c: float) -> "ScalarField":
        if self.is_zero or c == 0.0:
            return const_field(0.0, self.dim)
        if c == 1.0:
            return self
        return ScaledField(c, self)

    def partial(self, i: int) -> "ScalarField":
        if self.is_zero:
            return self
        return PartialField(self, i)


class ConstField(ScalarField):
    def __init__(self, value: float, dim: int):
        self.c = float(value)
        self.dim = dim

    def _eval(self, points):
        return Jet2.constant(self.c, len(points), self.dim)

    @property
    def is_zero(self) -> bool:
        return self.c == 0.0

    def partial(self, i: int) -> "ScalarField":
        return const_field(0.0, self.dim)

    def scaled(self, c: float) -> "ScalarField":
        return const_field(c * self.c, self.dim)

    def __neg__(self) -> "ScalarField":
        return const_field(-self.c, self.dim)


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

    def _eval(self, points):
        return eval_jets(self.expr, points)


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

    def _eval(self, points):
        jets = [t.eval(points) for t in self.terms]
        out = jets[0]
        for j in jets[1:]:
            out = out + j
        return out


class DiffField(ScalarField):
    """Difference a - b; (a - b) and (b - a) evaluate to exact negatives."""

    def __init__(self, a: ScalarField, b: ScalarField):
        self.a = a
        self.b = b
        self.dim = a.dim

    def _eval(self, points):
        return self.a.eval(points) - self.b.eval(points)


class ProdField(ScalarField):
    def __init__(self, a: ScalarField, b: ScalarField):
        self.a = a
        self.b = b
        self.dim = a.dim

    def _eval(self, points):
        return self.a.eval(points) * self.b.eval(points)


class ScaledField(ScalarField):
    def __init__(self, c: float, f: ScalarField):
        self.c = c
        self.f = f
        self.dim = f.dim

    def _eval(self, points):
        return self.f.eval(points).scale(self.c)


class PartialField(ScalarField):
    """The coordinate partial of another field.

    The jet forwards the parent's gradient and Hessian down one order;
    its own Hessian is unavailable (it would be a third derivative of
    the parent).
    """

    def __init__(self, f: ScalarField, i: int):
        self.f = f
        self.i = i
        self.dim = f.dim

    def _eval(self, points):
        parent = self.f.eval(points)
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


class _MatrixInverseCore(_PerSample):
    """Shared evaluator for the entries of the inverse of a field matrix.

    Given jets of the entries of M(x), the inverse N = M^{-1} has
    dN = -N (dM) N and
    d2N_{kl} = -N M_{,kl} N + N M_{,k} N M_{,l} N + N M_{,l} N M_{,k} N,
    all exact to second order.  Every array carries the sample as its
    leading axis.
    """

    def __init__(self, entries):
        self.entries = entries
        self.n = len(entries)
        self.dim = entries[0][0].dim

    def _eval(self, points):
        jets = [[f.eval(points) for f in row] for row in self.entries]
        V = np.moveaxis(np.array([[j.value for j in row] for row in jets]), 2, 0)
        G = np.moveaxis(np.array([[j.grad for j in row] for row in jets]), 2, 0)
        H = np.moveaxis(np.array([[j.hess for j in row] for row in jets]), 2, 0)
        N = np.linalg.inv(V)
        NG = np.einsum("pia,pabk->pibk", N, G)
        dN = -np.einsum("pibk,pbj->pijk", NG, N)
        t_h = -np.einsum("pia,pabkl,pbj->pijkl", N, H, N)
        t_g = -np.einsum("pibk,pbjl->pijkl", NG, dN)
        # sum the symmetric pair first so the Hessian stays exactly symmetric
        d2N = t_h + (t_g + t_g.transpose(0, 1, 2, 4, 3))
        return N, dN, d2N


class MatrixInverseField(ScalarField):
    def __init__(self, core: _MatrixInverseCore, i: int, j: int):
        self.core = core
        self.i = i
        self.j = j
        self.dim = core.dim

    def _eval(self, points):
        N, dN, d2N = self.core.eval(points)
        i, j = self.i, self.j
        return Jet2(N[:, i, j].copy(), dN[:, i, j].copy(), d2N[:, i, j].copy())


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


def increasing_tuples(n: int, k: int):
    """All strictly increasing k-tuples drawn from range(n)."""
    if k == 0:
        yield ()
        return
    if k > n:
        return
    idx = list(range(k))
    while True:
        yield tuple(idx)
        for pos in reversed(range(k)):
            if idx[pos] != pos + n - k:
                break
        else:
            return
        idx[pos] += 1
        for later in range(pos + 1, k):
            idx[later] = idx[later - 1] + 1


# ---------------------------------------------------------------------------
# Differential forms


class FormField:
    """Degree-k form with ScalarField components on increasing index tuples."""

    def __init__(self, chart: Chart, degree: int, comps: dict[tuple[int, ...], ScalarField] | None = None):
        if degree < 0:
            raise ValueError("form degree must be non-negative")
        # degree > dim is allowed and denotes the zero form of that degree
        self.chart = chart
        self.degree = degree
        self.comps: dict[tuple[int, ...], ScalarField] = {}
        if comps:
            for idx, f in comps.items():
                self._set_increasing(idx, f)

    def _set_increasing(self, idx: tuple[int, ...], f: ScalarField):
        if f.is_zero:
            return
        if list(idx) != sorted(idx) or len(set(idx)) != len(idx):
            raise ValueError("components must be keyed by strictly increasing tuples")
        if idx and (idx[0] < 0 or idx[-1] >= self.chart.dim):
            raise ValueError("component index out of range for the chart")
        self.comps[tuple(idx)] = f

    @staticmethod
    def build(chart: Chart, degree: int, entries) -> "FormField":
        """Build from (index tuple, field) pairs, antisymmetrizing indices."""
        out = FormField(chart, degree)
        seen = set()
        for idx, f in entries:
            canon, sign = sort_signed(tuple(idx))
            if canon is None:
                raise ValueError(f"repeated index in antisymmetric entry {tuple(idx)}")
            if canon in seen:
                raise ValueError(f"duplicate entry for component {canon}")
            seen.add(canon)
            if not f.is_zero:
                out.comps[canon] = f if sign > 0 else -f
        return out

    def comp(self, idx: tuple[int, ...]) -> ScalarField:
        """Signed component lookup for an arbitrary index tuple."""
        canon, sign = sort_signed(tuple(idx))
        if canon is None:
            return const_field(0.0, self.chart.dim)
        f = self.comps.get(canon)
        if f is None:
            return const_field(0.0, self.chart.dim)
        return f if sign > 0 else -f

    @property
    def is_zero(self) -> bool:
        return not self.comps

    def __add__(self, other: "FormField") -> "FormField":
        out = FormField(self.chart, self.degree)
        for idx in set(self.comps) | set(other.comps):
            f = self.comp(idx) + other.comp(idx)
            if not f.is_zero:
                out.comps[idx] = f
        return out

    def __sub__(self, other: "FormField") -> "FormField":
        out = FormField(self.chart, self.degree)
        for idx in set(self.comps) | set(other.comps):
            f = self.comp(idx) - other.comp(idx)
            if not f.is_zero:
                out.comps[idx] = f
        return out

    def __neg__(self) -> "FormField":
        return self.scaled(-1.0)

    def scaled(self, c: float) -> "FormField":
        out = FormField(self.chart, self.degree)
        for idx, f in self.comps.items():
            out.comps[idx] = f.scaled(c)
        return out

    def mul_field(self, g: ScalarField) -> "FormField":
        out = FormField(self.chart, self.degree)
        if g.is_zero:
            return out
        for idx, f in self.comps.items():
            out.comps[idx] = f * g
        return out

    def max_abs(self, points: np.ndarray) -> float:
        return max_abs_fields(self.comps.values(), points)


def exterior_derivative(omega: FormField) -> FormField:
    """d on component arrays: (d w)_{i0..ik} = sum_j (-1)^j d_{ij} w_{..no ij..}."""
    chart = omega.chart
    k = omega.degree
    if k >= chart.dim:
        # every (k+1)-form above the top degree is zero
        return FormField(chart, k + 1)
    out = FormField(chart, k + 1)
    for idx in increasing_tuples(chart.dim, k + 1):
        terms = []
        for j, ij in enumerate(idx):
            rest = idx[:j] + idx[j + 1 :]
            f = omega.comp(rest)
            if f.is_zero:
                continue
            term = f.partial(ij)
            terms.append(term if j % 2 == 0 else -term)
        total = field_sum_d(terms, chart.dim)
        if not total.is_zero:
            out.comps[idx] = total
    return out


def wedge(alpha: FormField, beta: FormField) -> FormField:
    """Shuffle-convention wedge: unit coefficients, no factorial weights."""
    chart = alpha.chart
    k, l = alpha.degree, beta.degree
    if alpha.is_zero or beta.is_zero:
        return FormField(chart, k + l)
    if k + l > chart.dim:
        raise ValueError("wedge degree exceeds the chart dimension")
    out = FormField(chart, k + l)
    for idx in increasing_tuples(chart.dim, k + l):
        terms = []
        for subset in increasing_tuples(k + l, k):
            left = tuple(idx[p] for p in subset)
            right_positions = [p for p in range(k + l) if p not in subset]
            right = tuple(idx[p] for p in right_positions)
            sign = _shuffle_sign(subset, tuple(right_positions))
            fa = alpha.comp(left)
            fb = beta.comp(right)
            if fa.is_zero or fb.is_zero:
                continue
            prod = fa * fb
            terms.append(prod if sign > 0 else -prod)
        total = field_sum_d(terms, chart.dim)
        if not total.is_zero:
            out.comps[idx] = total
    return out


def _shuffle_sign(left_positions: tuple[int, ...], right_positions: tuple[int, ...]) -> int:
    canon, sign = sort_signed(left_positions + right_positions)
    return sign


def interior_product(v: "VectorField", omega: FormField) -> FormField:
    """(i_v w)_{i2..ik} = v^{i1} w_{i1 i2..ik}."""
    if omega.degree < 1:
        raise ValueError("interior product needs a form of degree >= 1")
    chart = omega.chart
    out = FormField(chart, omega.degree - 1)
    for idx in increasing_tuples(chart.dim, omega.degree - 1):
        terms = []
        for i1 in range(chart.dim):
            f = omega.comp((i1,) + idx)
            if f.is_zero or v.comps[i1].is_zero:
                continue
            terms.append(v.comps[i1] * f)
        total = field_sum_d(terms, chart.dim)
        if not total.is_zero:
            out.comps[idx] = total
    return out


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

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.comps)


def lie_bracket(u: VectorField, v: VectorField) -> VectorField:
    """[u, v]^i = u^j d_j v^i - v^j d_j u^i."""
    chart = u.chart
    out = []
    for i in range(chart.dim):
        terms = []
        for j in range(chart.dim):
            if not (u.comps[j].is_zero or v.comps[i].is_zero):
                terms.append(u.comps[j] * v.comps[i].partial(j))
            if not (v.comps[j].is_zero or u.comps[i].is_zero):
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
        out = FormField(chart, 1)
        for i in range(chart.dim):
            terms = [self.g[i][j] * v.comps[j] for j in range(chart.dim)]
            total = field_sum_d(terms, chart.dim)
            if not total.is_zero:
                out.comps[(i,)] = total
        return out


def lie_derivative_metric(v: VectorField, g: MetricField):
    """(L_v g)_ij = v^k d_k g_ij + d_i v^k g_kj + d_j v^k g_ik, as a field matrix."""
    chart = g.chart
    d = chart.dim
    out = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            terms = []
            for k in range(d):
                if not (v.comps[k].is_zero or g.g[i][j].is_zero):
                    terms.append(v.comps[k] * g.g[i][j].partial(k))
                if not (v.comps[k].is_zero or g.g[k][j].is_zero):
                    terms.append(v.comps[k].partial(i) * g.g[k][j])
                if not (v.comps[k].is_zero or g.g[i][k].is_zero):
                    terms.append(v.comps[k].partial(j) * g.g[i][k])
            total = field_sum_d(terms, d)
            out[i][j] = total
            out[j][i] = total
    return out


def max_abs_fields(fields, points: np.ndarray) -> float:
    """Largest |f| over the sample; NaN or inf when any value is non-finite."""
    maxima = [np.max(np.abs(f.eval(points).value)) for f in fields if not f.is_zero]
    return float(np.max(maxima, initial=0.0))
