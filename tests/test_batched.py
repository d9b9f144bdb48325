"""Batched jets: a sample evaluates row by row exactly as single points do,
a run's memo never serves jets of another sample, and a jet evaluated to
a lower order is the full jet with its higher parts left out."""

import gc
import json
import pathlib
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import f, random_poly_source, random_smooth_source
from momsec.expressions import DomainError, eval_jet, eval_jets, parse
from momsec.fields import Chart, ScalarField, matrix_inverse_fields
from momsec.fixtures import fixture_bytes, fixture_names
from momsec.modelfile import load_model_bytes
from momsec.suites import RunConfig, run


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def _assert_rows_match(batch, rows):
    for p, row in enumerate(rows):
        assert _bits(batch.value[p]) == _bits(row.value)
        assert _bits(batch.grad[p]) == _bits(row.grad)
        if row.hess is None:
            assert batch.hess is None
        else:
            assert _bits(batch.hess[p]) == _bits(row.hess)
            assert np.array_equal(batch.hess[p], batch.hess[p].T)


@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 4),
    count=st.integers(1, 12),
    smooth=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_expression_batch_equals_rows(seed, dim, count, smooth):
    rng = np.random.default_rng(seed)
    coords = tuple("abcd"[:dim])
    make = random_smooth_source if smooth else random_poly_source
    expr = parse(make(rng, coords), coords)
    points = rng.uniform(-2.0, 2.0, size=(count, dim))
    _assert_rows_match(eval_jets(expr, points), [eval_jet(expr, p) for p in points])


@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 12))
@settings(max_examples=40, deadline=None)
def test_field_graph_batch_equals_rows(seed, count):
    # sums, products, scalings and partials of expression fields
    rng = np.random.default_rng(seed)
    ch = Chart(("x", "y", "z"), ((-2.0, 2.0),) * 3)
    u = f(random_smooth_source(rng, ch.coordinates), ch)
    v = f(random_poly_source(rng, ch.coordinates), ch)
    field = (u * v).partial(0) + u.scaled(2.5) - v.partial(2) * u
    points = ch.sample(count, seed)
    batch = field.eval(points)
    _assert_rows_match(batch, [field.jet(p) for p in points])


def test_matrix_inverse_matches_pointwise_inverse():
    # g = L L^T + 3 I with random polynomial L is SPD at every point
    rng = np.random.default_rng(8)
    ch = Chart(("x", "y", "z"), ((-1.0, 1.0),) * 3)
    n = 3
    L = [[random_poly_source(rng, ch.coordinates, max_terms=3, max_degree=2) for _ in range(n)] for _ in range(n)]
    entries = []
    for i in range(n):
        row = []
        for j in range(n):
            src = " + ".join(f"({L[i][k]})*({L[j][k]})" for k in range(n))
            row.append(f(src + (" + 3" if i == j else ""), ch))
        entries.append(row)
    inv = matrix_inverse_fields(entries)
    points = ch.sample(24, 3)
    jets = [[inv[i][j].eval(points) for j in range(n)] for i in range(n)]
    for p, point in enumerate(points):
        m = [[entries[i][j].jet(point) for j in range(n)] for i in range(n)]
        M = np.array([[m[i][j].value for j in range(n)] for i in range(n)])
        N = np.linalg.inv(M)
        for i in range(n):
            for j in range(n):
                jet = jets[i][j]
                assert abs(jet.value[p] - N[i, j]) <= 1e-12 * max(1.0, abs(N[i, j]))
                for k in range(3):
                    dM = np.array([[m[a][b].grad[k] for b in range(n)] for a in range(n)])
                    dN = -N @ dM @ N
                    assert abs(jet.grad[p, k] - dN[i, j]) <= 1e-11 * max(1.0, np.max(np.abs(dN)))
                assert np.array_equal(jet.hess[p], jet.hess[p].T)


def _point_dependent_model() -> bytes:
    # mu is not a momentum for the rotation, so residuals vary over the sample
    doc = json.loads(fixture_bytes("rotation_momentum_map"))
    doc["mu"][0]["expr"] = "x^3*y + sin(x)"
    return json.dumps(doc).encode()


def test_memo_never_serves_another_sample():
    # (seed, points) requests on one reused model; the last one has the
    # point count of the first, so a memo keyed by shape would serve it stale
    requests = [(5, 32), (6, 64), (5, 32), (6, 32)]
    raws = [fixture_bytes(name) for name in fixture_names()] + [_point_dependent_model()]
    for raw in raws:
        model = load_model_bytes(raw)
        cfgs = [RunConfig(tolerance=model.tolerance, points=n, seed=seed) for seed, n in requests]
        reused = [run(model, "all", cfg).to_json() for cfg in cfgs]
        fresh = [run(load_model_bytes(raw), "all", cfg).to_json() for cfg in cfgs]
        assert reused == fresh
        assert reused[0] == reused[2]
    # the modified model's residuals do depend on the sample
    residuals = [[c["max_residual"] for c in json.loads(r)["checks"]] for r in (reused[2], reused[3])]
    assert residuals[0] != residuals[1]


# ---------------------------------------------------------------------------
# Truncated jets


def _wrapped_source(rng, coords) -> str:
    """A random expression that also reaches division, real, negative,
    zero and variable exponents and every function of the table."""
    p = random_poly_source(rng, coords, max_terms=3, max_degree=2)
    q = random_smooth_source(rng, coords)
    x = coords[0]
    forms = (
        f"sqrt(1 + ({p})^2)",
        f"log(2 + sin({p}))",
        f"abs({p}) * exp(0.3*({q}))",
        f"tan(0.2*({p})) - tanh({q})",
        f"({q}) / (2 + cos({p}))",
        f"(1 + ({p})^2)^1.5 + (1 + {x}^2)^-2",
        f"(2 + sin({p}))^({q}) + ({p})^0",
        q,
    )
    return forms[int(rng.integers(0, len(forms)))]


def _assert_truncation(jet, full, order):
    """``jet`` is ``full`` up to ``order``, bit for bit, and holds nothing above."""
    assert _bits(jet.value) == _bits(full.value)
    if order >= 1 and full.grad is not None:
        assert _bits(jet.grad) == _bits(full.grad)
    else:
        assert jet.grad is None
    if order >= 2 and full.hess is not None:
        assert _bits(jet.hess) == _bits(full.hess)
    else:
        assert jet.hess is None


@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3), count=st.integers(1, 12))
@settings(max_examples=80, deadline=None)
def test_expression_order_truncates_the_full_jet(seed, dim, count):
    rng = np.random.default_rng(seed)
    coords = tuple("abc"[:dim])
    expr = parse(_wrapped_source(rng, coords), coords)
    points = rng.uniform(-1.0, 1.0, size=(count, dim))
    full = eval_jets(expr, points)
    assert full.hess is not None
    for order in (0, 1, 2):
        _assert_truncation(eval_jets(expr, points, order), full, order)


def _random_graph(seed: int, chart: Chart):
    """Random field nodes over a few expression leaves, with shared
    subtrees; a node is differentiated only while the fields under it
    have been differentiated at most once, so every node has a value."""
    rng = np.random.default_rng(seed)
    nodes = [f(random_smooth_source(rng, chart.coordinates), chart) for _ in range(3)]
    depth = [0, 0, 0]
    for _ in range(int(rng.integers(4, 14))):
        op = int(rng.integers(0, 5))
        i, j = (int(k) for k in rng.integers(0, len(nodes), size=2))
        if op == 0:
            node, d = nodes[i] + nodes[j], max(depth[i], depth[j])
        elif op == 1:
            node, d = nodes[i] - nodes[j], max(depth[i], depth[j])
        elif op == 2:
            node, d = nodes[i] * nodes[j], max(depth[i], depth[j])
        elif op == 3:
            node, d = nodes[i].scaled(float(rng.uniform(-2.0, 2.0))), depth[i]
        else:
            if depth[i] >= 2:
                continue
            node, d = nodes[i].partial(int(rng.integers(0, chart.dim))), depth[i] + 1
        nodes.append(node)
        depth.append(d)
    return nodes


@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 8), data=st.data())
@settings(max_examples=60, deadline=None)
def test_field_graph_order_truncates_the_full_jet(seed, count, data):
    # a random sequence of (node, order) requests on one sample shares one
    # memo, so memo hits at a higher order and re-evaluations at a higher
    # order both occur; a second graph built alike gives the full jets
    ch = Chart(("x", "y", "z"), ((-2.0, 2.0),) * 3)
    nodes = _random_graph(seed, ch)
    fresh = _random_graph(seed, ch)
    points = ch.sample(count, seed)
    full = [node.eval(points) for node in fresh]
    requests = data.draw(
        st.lists(st.tuples(st.integers(0, len(nodes) - 1), st.integers(0, 2)), min_size=1, max_size=30)
    )
    memo = {}
    for k, order in requests:
        _assert_truncation(nodes[k].eval(points, order, memo), full[k], order)


@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_values_first_then_full_jet_equals_a_fresh_full_jet(seed, count):
    ch = Chart(("x", "y", "z"), ((-2.0, 2.0),) * 3)
    nodes = _random_graph(seed, ch)
    fresh = _random_graph(seed, ch)
    points = ch.sample(count, seed)
    memo = {}
    for node in nodes:
        node.eval(points, 0, memo)
    for node, other in zip(nodes, fresh):
        _assert_truncation(node.eval(points, 2, memo), other.eval(points, 2), 2)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_third_partial_exhausts_the_jet_at_every_order(order):
    ch = Chart(("x", "y"), ((-1.0, 1.0),) * 2)
    third = f("x^3*y + sin(y)", ch).partial(0).partial(1).partial(0)
    with pytest.raises(ValueError, match="jet order exhausted"):
        third.eval(ch.sample(4, 1), order)


@pytest.mark.parametrize("source", ["sqrt(x)", "abs(x)"])
def test_derivative_domain_checks_fire_at_order_zero(source):
    # x = 0 is in the domain of the value but not of the derivative
    expr = parse(source, ("x",))
    points = np.array([[0.5], [0.0]])
    messages = []
    for order in (0, 2):
        with pytest.raises(DomainError) as info:
            eval_jets(expr, points, order)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert "derivative at zero" in messages[0]


def _son_model_bytes(monkeypatch, n: int) -> bytes:
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1]))
    from perfbench.models import son_model_bytes

    return son_model_bytes(n, 1)


def test_each_node_keeps_only_the_orders_its_consumers_need(monkeypatch):
    # only a partial asks its parent for a derivative; residual roots ask
    # for values alone, so few nodes of a whole run are evaluated with a
    # gradient and fewer with a Hessian
    model = load_model_bytes(_son_model_bytes(monkeypatch, 3))
    jets = {}  # node id -> (node, every jet the run evaluated it to)
    for cls in ScalarField.__subclasses__():

        def recording_eval(node, points, order, memo, _eval=cls._eval):
            jet = _eval(node, points, order, memo)
            jets.setdefault(id(node), (node, []))[1].append(jet)
            return jet

        monkeypatch.setattr(cls, "_eval", recording_eval)
    run(model, "all", RunConfig(tolerance=model.tolerance, points=32, seed=42))
    evaluated = [node_jets for _, node_jets in jets.values()]
    assert len(evaluated) > 3000
    assert sum(any(jet.grad is not None for jet in js) for js in evaluated) <= 1000
    assert sum(any(jet.hess is not None for jet in js) for js in evaluated) <= 60


# ---------------------------------------------------------------------------
# Graphs built once per model, jets held once per suite


@pytest.mark.parametrize("name", [*fixture_names(), "so3"])
def test_a_second_run_builds_no_field(name, monkeypatch):
    raw = _son_model_bytes(monkeypatch, 3) if name == "so3" else fixture_bytes(name)
    model = load_model_bytes(raw)
    built = []
    # every field class defines __init__, which can be wrapped and restored
    for cls in ScalarField.__subclasses__():

        def counting_init(node, *args, _init=cls.__init__, **kwargs):
            built.append(type(node).__name__)
            _init(node, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)
    run(model, "all", RunConfig(points=16, seed=5))
    assert built
    built.clear()
    run(model, "all", RunConfig(points=24, seed=6))
    assert built == []


@pytest.mark.parametrize("name", ["rotation_momentum_map", "so3"])
def test_a_reused_model_reports_as_fresh_models_do(name, monkeypatch):
    raw = _son_model_bytes(monkeypatch, 3) if name == "so3" else fixture_bytes(name)
    model = load_model_bytes(raw)
    for seed, points in [(5, 32), (6, 1024), (5, 32), (7, 8)]:
        cfg = RunConfig(points=points, seed=seed)
        assert run(model, "all", cfg).to_json() == run(load_model_bytes(raw), "all", cfg).to_json()


def test_a_dropped_model_frees_its_graphs_at_once(monkeypatch):
    # the model holds the evaluation steps of its suites; a step that held
    # the model would make a cycle, and every node would wait for the
    # cyclic collector
    for raw in [*(fixture_bytes(name) for name in fixture_names()), _son_model_bytes(monkeypatch, 3)]:
        model = load_model_bytes(raw)
        run(model, "all", RunConfig(points=8, seed=1))
        refs = [weakref.ref(model), *(weakref.ref(step) for step in model._plans.values())]
        gc.disable()
        try:
            del model
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()


def test_run_memory_is_bounded_and_released(monkeypatch):
    # so(4) with every block at 1024 points: a run peaked at 71 MB under
    # tracemalloc when every node kept its jets and graphs were rebuilt
    # per run; only roots and shared nodes may hold jets now, and only
    # until their suite ends
    model = load_model_bytes(_son_model_bytes(monkeypatch, 4))
    cfg = RunConfig(tolerance=model.tolerance, points=1024, seed=42)
    mb = 2.0**20
    tracemalloc.start()
    try:
        run(model, "all", cfg)
        first_peak = tracemalloc.get_traced_memory()[1]
        gc.collect()
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run(model, "all", cfg)
        gc.collect()
        end, second_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first_peak <= 40 * mb
    assert second_peak <= 40 * mb
    assert abs(end - start) <= 1 * mb
