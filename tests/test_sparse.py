"""The sparse form, vector and bundle operations build the nodes the dense
loops over all indices build: the same components, in the same key order,
each the same node object.

The dense loops below are the reference: each asks for every component of
every index tuple, zeros included, and adds a component's terms in loop
order.  Nodes are shared, so an equal graph is the identical node, and
``is`` compares whole sums, term order included."""

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lie_bracket
from momsec.algebroid import AlgebroidData, EForm, e_differential
from momsec.fields import (
    Chart,
    ExprField,
    FormField,
    VectorField,
    const_field,
    exterior_derivative,
    field_sum_d,
    interior_product,
    sort_signed,
    wedge,
)

# ---------------------------------------------------------------------------
# Dense references


def dense_exterior_derivative(omega: FormField) -> FormField:
    chart, k = omega.chart, omega.degree
    if omega.is_zero or k >= chart.dim:
        return FormField(chart, k + 1)
    comps = {}
    for idx in combinations(range(chart.dim), k + 1):
        terms = []
        for j, ij in enumerate(idx):
            term = omega.comp(idx[:j] + idx[j + 1 :]).partial(ij)
            terms.append(term if j % 2 == 0 else -term)
        comps[idx] = field_sum_d(terms, chart.dim)
    return FormField(chart, k + 1, comps)


def dense_wedge(alpha: FormField, beta: FormField) -> FormField:
    chart, k, l = alpha.chart, alpha.degree, beta.degree
    if alpha.is_zero or beta.is_zero:
        return FormField(chart, k + l)
    comps = {}
    for idx in combinations(range(chart.dim), k + l):
        terms = []
        for subset in combinations(range(k + l), k):
            left = tuple(idx[p] for p in subset)
            right_positions = tuple(p for p in range(k + l) if p not in subset)
            right = tuple(idx[p] for p in right_positions)
            prod = alpha.comp(left) * beta.comp(right)
            terms.append(prod if sort_signed(subset + right_positions)[1] > 0 else -prod)
        comps[idx] = field_sum_d(terms, chart.dim)
    return FormField(chart, k + l, comps)


def dense_interior_product(v: VectorField, omega: FormField) -> FormField:
    chart = omega.chart
    if omega.is_zero:
        return FormField(chart, omega.degree - 1)
    comps = {}
    for idx in combinations(range(chart.dim), omega.degree - 1):
        terms = [v.comps[i1] * omega.comp((i1,) + idx) for i1 in range(chart.dim)]
        comps[idx] = field_sum_d(terms, chart.dim)
    return FormField(chart, omega.degree - 1, comps)


def dense_lie_bracket(u: VectorField, v: VectorField) -> VectorField:
    out = []
    for i in range(u.chart.dim):
        terms = []
        for j in range(u.chart.dim):
            terms.append(u.comps[j] * v.comps[i].partial(j))
            terms.append(-(v.comps[j] * u.comps[i].partial(j)))
        out.append(field_sum_d(terms, u.chart.dim))
    return VectorField(u.chart, out)


def dense_e_differential(alpha: EForm) -> EForm:
    alg, m = alpha.alg, alpha.degree
    if m >= alg.rank:
        return EForm(alg, m + 1)
    comps = {}
    for idx in combinations(range(alg.rank), m + 1):
        terms = []
        for pos, a in enumerate(idx):
            t = alg.apply_anchor(a, alpha.comp(idx[:pos] + idx[pos + 1 :]))
            terms.append(t if pos % 2 == 0 else -t)
        for pi in range(m + 1):
            for pj in range(pi + 1, m + 1):
                rest = tuple(x for q, x in enumerate(idx) if q not in (pi, pj))
                for c in range(alg.rank):
                    t = alg.C[c].comp((idx[pi], idx[pj])) * alpha.comp((c,) + rest)
                    terms.append(t if (pi + pj) % 2 == 0 else -t)
        comps[idx] = field_sum_d(terms, alg.dim)
    return EForm(alg, m + 1, comps)


# ---------------------------------------------------------------------------
# Sparse data: components drawn from a few sources, zeros and constants among them

SOURCES = ("0", "0", "0", "1", "-2", "x1", "x2*x1 + 1", "x3^2 - x1", "x4*x2", "x1*x2*x3")


def chart_of(dim: int) -> Chart:
    return Chart(tuple(f"x{i + 1}" for i in range(dim)), ((-1.0, 1.0),) * dim)


def field(chart: Chart, source: str):
    # a source over coordinates the chart lacks falls back to its first one
    missing = [f"x{i}" for i in range(chart.dim + 1, 5) if f"x{i}" in source]
    for name in missing:
        source = source.replace(name, "x1")
    return ExprField.parse(source, chart)


@st.composite
def forms(draw, chart: Chart, degree: int):
    keys = list(combinations(range(chart.dim), degree))
    return FormField(chart, degree, {key: field(chart, draw(st.sampled_from(SOURCES))) for key in keys})


@st.composite
def vectors(draw, chart: Chart):
    return VectorField(chart, [field(chart, draw(st.sampled_from(SOURCES))) for _ in range(chart.dim)])


@st.composite
def chart_and_form(draw):
    chart = chart_of(draw(st.integers(1, 4)))
    return chart, draw(forms(chart, draw(st.integers(0, chart.dim))))


@st.composite
def algebroids(draw):
    chart = chart_of(draw(st.integers(1, 4)))
    rank = draw(st.integers(1, 4))
    anchor = [[field(chart, draw(st.sampled_from(SOURCES))) for _ in range(chart.dim)] for _ in range(rank)]
    structure = {
        (c, a, b): field(chart, draw(st.sampled_from(SOURCES)))
        for c in range(rank)
        for a, b in combinations(range(rank), 2)
    }
    return AlgebroidData(chart, rank, anchor, structure)


def assert_same_nodes(sparse, dense):
    assert list(sparse.comps) == list(dense.comps)
    assert all(sparse.comps[key] is dense.comps[key] for key in dense.comps)


SETTINGS = settings(max_examples=60, deadline=None)


@SETTINGS
@given(chart_and_form())
def test_exterior_derivative_matches_the_dense_loop(case):
    _, omega = case
    assert_same_nodes(exterior_derivative(omega), dense_exterior_derivative(omega))


@SETTINGS
@given(st.data())
def test_wedge_matches_the_dense_loop(data):
    chart = chart_of(data.draw(st.integers(1, 4)))
    k = data.draw(st.integers(0, chart.dim))
    alpha = data.draw(forms(chart, k))
    beta = data.draw(forms(chart, data.draw(st.integers(0, chart.dim - k))))
    assert_same_nodes(wedge(alpha, beta), dense_wedge(alpha, beta))


@SETTINGS
@given(st.data())
def test_interior_product_matches_the_dense_loop(data):
    chart = chart_of(data.draw(st.integers(1, 4)))
    omega = data.draw(forms(chart, data.draw(st.integers(1, chart.dim))))
    v = data.draw(vectors(chart))
    # the components are deferred sums, compared by the nodes they build
    sparse = interior_product(v, omega)
    built = FormField(chart, sparse.degree, {key: f.node for key, f in sparse.comps.items()})
    assert_same_nodes(built, dense_interior_product(v, omega))


@SETTINGS
@given(st.data())
def test_lie_bracket_matches_the_dense_loop(data):
    chart = chart_of(data.draw(st.integers(1, 4)))
    u, v = data.draw(vectors(chart)), data.draw(vectors(chart))
    sparse, dense = lie_bracket(u, v), dense_lie_bracket(u, v)
    assert all(s is t for s, t in zip(sparse.comps, dense.comps, strict=True))


@SETTINGS
@given(st.data())
def test_e_differential_matches_the_dense_loop(data):
    alg = data.draw(algebroids())
    m = data.draw(st.integers(0, alg.rank))
    keys = list(combinations(range(alg.rank), m))
    alpha = EForm(alg, m, {key: field(alg.chart, data.draw(st.sampled_from(SOURCES))) for key in keys})
    assert_same_nodes(e_differential(alpha), dense_e_differential(alpha))
    # and on a differential, whose components are sums
    once = dense_e_differential(alpha)
    assert_same_nodes(e_differential(once), dense_e_differential(once))


def test_the_sources_give_zeros_and_constants():
    chart = chart_of(2)
    assert field(chart, "0").is_zero
    assert field(chart, "x4*x2") is field(chart, "x1*x2")
    assert const_field(-2.0, 2) is field(chart, "-2")
