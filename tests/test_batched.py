"""Batched evaluation: a sample evaluates row by row exactly as single
points do, a reused model reports as a fresh one does, a field's value
and partials evaluated with other roots are those of a program of their
own, and a run's reports do not depend on the length of the chunks it
evaluates."""

import gc
import json
import pathlib
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import expr_values, f, node, random_poly_source, random_smooth_source, run_plan_of
from test_suites import B_NOT_CLOSED
from momsec.expressions import DomainError
from momsec import fields, suites
from momsec.fields import Chart, ConstField, CoordField, Program, RuleField, ScalarField, matrix_inverse_fields
from momsec.fixtures import fixture_bytes, fixture_names
from momsec.modelfile import load_model_bytes
from momsec.suites import RunConfig, run


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def _jet(field: ScalarField) -> list:
    """A field and its first partials: the roots whose values a batch and
    a point must agree on."""
    return [field, *(field.partial(i) for i in range(field.dim))]


def _assert_rows_match(fields_, points):
    # one program over the sample against a one-point program per point
    batch = np.stack([expr_values(g, points) for g in fields_])
    for p, point in enumerate(points):
        assert _bits(batch[:, p]) == _bits([g.value(point) for g in fields_])


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
    expr = node(make(rng, coords), coords)
    points = rng.uniform(-2.0, 2.0, size=(count, dim))
    _assert_rows_match(_jet(expr), points)


@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 12))
@settings(max_examples=40, deadline=None)
def test_field_graph_batch_equals_rows(seed, count):
    # sums, products, scalings and partials of expression fields
    rng = np.random.default_rng(seed)
    ch = Chart(("x", "y", "z"), ((-2.0, 2.0),) * 3)
    u = f(random_smooth_source(rng, ch.coordinates), ch)
    v = f(random_poly_source(rng, ch.coordinates), ch)
    field = (u * v).partial(0) + u.scaled(2.5) - v.partial(2) * u
    _assert_rows_match(_jet(field), ch.sample(count, seed))


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
    values = [[np.stack([expr_values(g, points) for g in _jet(inv[i][j])]) for j in range(n)] for i in range(n)]
    for p, point in enumerate(points):
        M = np.array([[entries[i][j].value(point) for j in range(n)] for i in range(n)])
        N = np.linalg.inv(M)
        for i in range(n):
            for j in range(n):
                got = values[i][j][:, p]
                assert abs(got[0] - N[i, j]) <= 1e-12 * max(1.0, abs(N[i, j]))
                for k in range(3):
                    dM = np.array([[entries[a][b].partial(k).value(point) for b in range(n)] for a in range(n)])
                    dN = -N @ dM @ N
                    assert abs(got[1 + k] - dN[i, j]) <= 1e-11 * max(1.0, np.max(np.abs(dN)))


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
# Jets: a field's value and its partials up to order 2


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


def _full_jet(field: ScalarField) -> list:
    """A field, its first partials and its second partials, in that order."""
    first = [field.partial(i) for i in range(field.dim)]
    return [field, *first, *(g.partial(j) for g in first for j in range(field.dim))]


def _truncated(field: ScalarField, order: int) -> list:
    """The first roots of :func:`_full_jet`, up to partials of ``order``."""
    return _full_jet(field)[: sum(field.dim**k for k in range(order + 1))]


def _own_values(fields_, points) -> list:
    """The values of each field from a program of its own."""
    return [_bits(expr_values(g, points)) for g in fields_]


@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3), count=st.integers(1, 12))
@settings(max_examples=80, deadline=None)
def test_expression_order_truncates_the_full_jet(seed, dim, count):
    # a program of the jet up to some order gives the full jet's first
    # roots, bit for bit, as each would alone
    rng = np.random.default_rng(seed)
    coords = tuple("abc"[:dim])
    expr = node(_wrapped_source(rng, coords), coords)
    points = rng.uniform(-1.0, 1.0, size=(count, dim))
    full = _own_values(_full_jet(expr), points)
    for order in (0, 1, 2):
        roots = _truncated(expr, order)
        got = next(Program([roots], dim).run(points))
        assert [_bits(row) for row in got] == full[: len(roots)]


def _random_graph(seed: int, chart: Chart):
    """Random field nodes over a few expression leaves, with shared
    subtrees and partials of partials."""
    rng = np.random.default_rng(seed)
    nodes = [f(random_smooth_source(rng, chart.coordinates), chart) for _ in range(3)]
    for _ in range(int(rng.integers(4, 14))):
        op = int(rng.integers(0, 5))
        i, j = (int(k) for k in rng.integers(0, len(nodes), size=2))
        if op == 0:
            node_ = nodes[i] + nodes[j]
        elif op == 1:
            node_ = nodes[i] - nodes[j]
        elif op == 2:
            node_ = nodes[i] * nodes[j]
        elif op == 3:
            node_ = nodes[i].scaled(float(rng.uniform(-2.0, 2.0)))
        else:
            node_ = nodes[i].partial(int(rng.integers(0, chart.dim)))
        nodes.append(node_)
    return nodes


@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 8), data=st.data())
@settings(max_examples=60, deadline=None)
def test_field_graph_order_truncates_the_full_jet(seed, count, data):
    # a random sequence of (node, order) requests is one program, one root
    # group per request, each the node's jet up to that order; every group
    # reads what a program of each of its roots alone reads
    ch = Chart(("x", "y", "z"), ((-2.0, 2.0),) * 3)
    nodes = _random_graph(seed, ch)
    points = ch.sample(count, seed)
    requests = data.draw(
        st.lists(st.tuples(st.integers(0, len(nodes) - 1), st.integers(0, 2)), min_size=1, max_size=30)
    )
    with np.errstate(all="ignore"):
        groups = [_truncated(nodes[k], order) for k, order in requests]
        for roots, values in zip(groups, Program(groups, ch.dim).run(points)):
            assert [_bits(row) for row in values] == _own_values(roots, points)


@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_values_first_then_full_jet_equals_a_fresh_full_jet(seed, count):
    # every node read for its value and then for its full jet, in one program
    ch = Chart(("x", "y", "z"), ((-2.0, 2.0),) * 3)
    nodes = _random_graph(seed, ch)
    points = ch.sample(count, seed)
    with np.errstate(all="ignore"):
        values = list(Program([[n] for n in nodes] + [_full_jet(n) for n in nodes], ch.dim).run(points))
        for k, n in enumerate(nodes):
            full = _own_values(_full_jet(n), points)
            assert _bits(values[k][0]) == full[0]
            assert [_bits(row) for row in values[len(nodes) + k]] == full


@pytest.mark.parametrize("source", ["sqrt(x)", "abs(x)"])
def test_derivative_domain_checks_fire_at_order_zero(source):
    # x = 0 is in the domain of the value but not of the derivative, and
    # the value and each partial fail alike
    expr = node(source, ("x",))
    points = np.array([[0.5], [0.0]])
    messages = []
    for field in (expr, expr.partial(0), expr.partial(0).partial(0)):
        with pytest.raises(DomainError) as info:
            expr_values(field, points)
        messages.append(str(info.value))
    assert messages[0] == messages[1] == messages[2]
    assert "derivative at zero" in messages[0]


def _son_model_bytes(monkeypatch, n: int) -> bytes:
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1]))
    from perfbench.models import son_model_bytes

    return son_model_bytes(n, 1)


def _under(roots) -> set:
    """Every node of the graphs under ``roots``."""
    seen = set(roots)
    stack = list(seen)
    while stack:
        for node in stack.pop().inputs:
            if node not in seen:
                seen.add(node)
                stack.append(node)
    return seen


def _structural_ids(nodes) -> dict:
    """For each node, the id of its structure: its class, dimension,
    constants, coefficient, indices, expression text and its inputs' ids,
    in order.  Two nodes have one id exactly when their graphs are equal,
    whether or not they are one object."""
    ids, seen = {}, {}
    for node in sorted(nodes, key=lambda n: n.level):
        own = tuple(getattr(node, name, None) for name in ("c", "i", "j", "text"))
        key = (type(node), node.dim, own, tuple(ids[i] for i in node.inputs))
        ids[node] = seen.setdefault(key, len(seen))
    return ids


def _fields_of(plan) -> list:
    """The fields a suite's plan reads that are not structural zeros: its
    row sets' and its matrix probes'."""
    rows = [f for labeled in plan.row_sets if labeled is not None for _, f in labeled]
    return [f for f in rows + [f for p in plan.probes for f in p.fields] if not f.is_zero]


def _chunks_of(monkeypatch, model, length: int):
    """Make runs of ``model`` (all suites, planned already) evaluate
    ``length`` points at a time."""
    monkeypatch.setattr(suites, "CHUNK_BYTES", length * run_plan_of(model)[1].bytes_per_point)


def test_each_node_keeps_only_the_orders_its_consumers_need(monkeypatch):
    # every node holds its values alone, partials being nodes of their
    # own; every node is evaluated exactly once per chunk: the run's one
    # program has kernels that write disjoint slots that, with the leaves,
    # cover every node under the roots of every selected suite; no two of
    # those nodes are equal graphs, since the algebra shares every node it
    # would build again
    raw = _son_model_bytes(monkeypatch, 3)
    written = []
    for cls in ScalarField.__subclasses__():
        if "_kernel" in vars(cls):

            def recording_kernel(t, out, *args, _kernel=cls._kernel):
                written.append(out)
                _kernel(t, out, *args)

            monkeypatch.setattr(cls, "_kernel", staticmethod(recording_kernel))
    calls = []
    run_program = Program.run

    def recording_run(program, points):
        written.clear()
        jets = run_program(program, points)
        calls.append((program, len(points), sorted((rows.__array_interface__["data"][0], len(rows)) for rows in written)))
        return jets

    monkeypatch.setattr(Program, "run", recording_run)
    model = load_model_bytes(raw)
    run(model, "all", RunConfig(tolerance=model.tolerance, points=32, seed=42))
    run_plan, program = run_plan_of(model)
    under = _under(f for plan in run_plan.plans for f in _fields_of(plan))
    assert [(p, count) for p, count, _ in calls] == [(program, 32)]
    assert program.slots == len(under)
    # 876 nodes on this model (1,291 when partials were nodes of their own
    # that read their input's derivatives, 1,238 before its expressions
    # were lowered; 3,304 before equal nodes were shared)
    assert len(under) > 800
    assert len(set(_structural_ids(under).values())) == len(under)

    _chunks_of(monkeypatch, model, 11)
    calls.clear()
    run(model, "all", RunConfig(tolerance=model.tolerance, points=32, seed=42))
    assert [(p, count) for p, count, _ in calls] == [(program, 11), (program, 11), (program, 10)]
    for _, count, rows in calls:
        # one kernel per group of ready nodes of a class, across suites (38
        # on this model when a group was one class and jet order; 41 when
        # a key could be taken before all its nodes were ready, 42 when a
        # tie in height went by insertion order alone, 79 when a group was
        # one level's nodes, 52 before its expressions were lowered into
        # the program)
        assert len(rows) <= 41
        # disjoint row blocks of the value table, each written once
        assert all(a + n * 8 * count <= b for (a, n), (b, _) in zip(rows, rows[1:]))
        assert sum(n for _, n in rows) == program.slots


# (slots, kernels) of each fixture's all-suites program: 59 kernels in
# all, when a group whose every node is ready goes first and every program
# evaluates values only (100 with jets to order 2; 107 when only a tie in
# height went to the higher order, 111 when it went by insertion order
# alone, 184 when a group was one level's nodes)
PROGRAM_SIZES = {
    "broken_jacobi": (10, 5),
    "magnetic_twist_mechanics": (76, 16),
    "plectic2_flux_model": (3, 3),
    "rotation_momentum_map": (67, 18),
    "so3_action_algebroid": (35, 6),
    "translation_nonequivariant": (35, 11),
}


def test_the_fixtures_run_in_few_kernels():
    # the exact sizes, so that a compile that moves the schedule fails
    # naming each fixture whose program changed
    sizes = {}
    for name in fixture_names():
        model = load_model_bytes(fixture_bytes(name))
        run(model, "all", RunConfig(tolerance=model.tolerance, points=8, seed=42))
        program = run_plan_of(model)[1]
        sizes[name] = (program.slots, len(program._kernels))
    assert sizes == PROGRAM_SIZES


@pytest.mark.parametrize("model", ["so(3)", "magnetic_twist_mechanics"])
def test_no_kernel_reads_a_slot_before_it_is_written(model, monkeypatch):
    # the tables hold whatever the program's space held: a kernel that
    # read a slot before its kernel wrote it would read NaN from a space
    # filled with NaN and 0 from one filled with zeros.
    # magnetic_twist_mechanics's program has a matrix inverse, whose
    # entries are one group
    raw = _son_model_bytes(monkeypatch, 3) if model == "so(3)" else fixture_bytes(model)
    loaded = load_model_bytes(raw)
    run(loaded, "all", RunConfig(tolerance=loaded.tolerance, points=8, seed=42))
    _, program = run_plan_of(loaded)
    assert model == "so(3)" or any(kernel is fields.MatrixInverseField._kernel for kernel, _, _ in program._kernels)
    points = loaded.chart.sample(32, 42)
    list(program.run(points))
    program._space.fill(np.nan)
    nan = list(program.run(points))
    program._space.fill(0.0)
    zero = list(program.run(points))
    for a, b in zip(nan, zero):
        assert _bits(a) == _bits(b)


def _assert_jets_equal(got, expected):
    got, expected = list(got), list(expected)
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.shape == b.shape and _bits(a) == _bits(b)


@pytest.mark.parametrize("model", ["so(3)", "magnetic_twist_mechanics", "rotation_momentum_map"])
def test_a_reused_program_runs_as_a_fresh_one(model, monkeypatch):
    # a program keeps its tables bound to the chunk length of its last
    # run, and binds them again when it changes, growing its space when
    # the tables need more room than it has; whatever ran before, a run
    # gives a fresh program's jets bit for bit.  Every program here also
    # reads log(x - c), which leaves its domain at one point of the last
    # sample; magnetic_twist_mechanics has a matrix inverse and
    # rotation_momentum_map quotients and powers
    raw = _son_model_bytes(monkeypatch, 3) if model == "so(3)" else fixture_bytes(model)
    loaded = load_model_bytes(raw)
    ch = loaded.chart
    run_plan, _ = run_plan_of(loaded)
    first, second = ch.sample(32, 42), ch.sample(32, 43)
    c = float(min(first[:, 0].min(), second[:, 0].min())) - 0.01
    log = f(f"log({ch.coordinates[0]} - ({c!r}))", ch)
    groups = [run_plan.rows, *(p.fields for p in run_plan.probes), _full_jet(log)]
    program = Program(groups, ch.dim)
    assert model != "magnetic_twist_mechanics" or any(
        kernel is fields.MatrixInverseField._kernel for kernel, _, _ in program._kernels
    )

    def fresh(points):
        return Program(groups, ch.dim).run(points)

    for points in (first, first[:11], second):
        _assert_jets_equal(program.run(points), fresh(points))
    # a program whose first run was short grows its space for a longer one
    grown = Program(groups, ch.dim)
    for points in (first[:11], second):
        _assert_jets_equal(grown.run(points), fresh(points))
    assert len(grown._space) == 32 * grown.bytes_per_point // 8
    bad = first.copy()
    bad[20, 0] = c - 1.0
    with pytest.raises(DomainError) as info:
        program.run(bad)
    assert info.value.point == 20
    _assert_jets_equal(program.run(bad[:20]), fresh(bad[:20]))
    _assert_jets_equal(program.run(first), fresh(first))


@pytest.mark.parametrize("order", [0, 1, 2])
def test_a_sum_adds_its_terms_left_to_right(order):
    # the terms after the first are read as one block and added column
    # by column; with terms of 1e16 and 1, only the order a + b + c + ...
    # gives these bits.  Sums of 12, 7 and 3 terms are one group, and so
    # are their partials along x of each order: sums of the terms of the
    # terms' partials
    ch = Chart(("x", "y"), ((-2.0, 2.0),) * 2)
    base = f("(x*y + 0.5)*x", ch)
    scales = [1e16, 1.0, -1e16, 3.0, 1e16, 1.0, -1e16, 0.25, 1e16, -1.0, -1e16, 5.0]
    sums = [fields.field_sum_d([base.scaled(c) for c in scales[:n]], ch.dim) for n in (12, 7, 3)]
    for _ in range(order):
        sums = [s.partial(0) for s in sums]
    assert all(isinstance(s, fields.SumField) for s in sums)
    points = ch.sample(9, 3)
    values, *term_values = Program([sums, *(s.terms for s in sums)], ch.dim).run(points)
    for row, parts in enumerate(term_values):
        expected = parts[0]
        for k in range(1, len(parts)):
            expected = expected + parts[k]
        assert _bits(values[row]) == _bits(expected)
    # another order of the same terms gives other bits
    parts = term_values[0]
    backwards = parts[-1]
    for k in range(len(parts) - 2, -1, -1):
        backwards = backwards + parts[k]
    assert _bits(backwards) != _bits(values[0])


@pytest.mark.parametrize("source", ["x + y + x", "x*x"])
def test_a_node_that_reads_one_input_twice_runs_after_it(source):
    # a consumer waits for each position at which it reads an input, so a
    # node whose inputs repeat runs once, after them, and reads them right
    ch = Chart(("x", "y"), ((-2.0, 2.0),) * 2)
    field = f(source, ch)
    assert len(set(field.inputs)) < len(field.inputs)
    points = ch.sample(9, 4)
    x, y = points.T
    one, zero = np.ones_like(x), np.zeros_like(x)
    expected = {
        "x + y + x": [x + y + x, 2 * one, one, zero, zero, zero, zero],
        "x*x": [x * x, x + x, zero, 2 * one, zero, zero, zero],
    }[source]
    # the repeated input is a root of the program too
    values, coordinate = Program([_full_jet(field), [f("x", ch)]], ch.dim).run(points)
    assert _bits(coordinate[0]) == _bits(x)
    assert _bits(values[0]) == _bits(expected[0])
    # a structural zero partial reads as 0
    assert np.array_equal(values[1:], np.array(expected[1:]))


def test_a_node_shared_by_two_suites_is_written_once_per_chunk(monkeypatch):
    # compiling puts each node in one group, which one kernel writes once
    # per Program.run; with a program per suite, a node under two suites'
    # roots was in a group of each program and written twice a chunk.
    # The model is made first: its generator runs a model of its own
    model = load_model_bytes(_son_model_bytes(monkeypatch, 3))
    arranged = []
    for cls in (ScalarField, fields.SumField):

        def recording_arrange(nodes, _arrange=cls._arrange):
            arranged.append(_arrange(nodes))
            return arranged[-1]

        monkeypatch.setattr(cls, "_arrange", staticmethod(recording_arrange))
    cfg = RunConfig(tolerance=model.tolerance, points=32, seed=42)
    run(model, "all", cfg)
    under = [_under(_fields_of(plan)) for plan in run_plan_of(model)[0].plans]
    shared = {n for k, nodes in enumerate(under) for other in under[k + 1 :] for n in nodes & other if n.level}
    assert shared
    groups = [id(n) for nodes in arranged for n in nodes]
    assert all(groups.count(id(n)) == 1 for n in shared)

    calls = []
    run_program = Program.run

    def counting_run(program, points):
        calls.append(program)
        return run_program(program, points)

    monkeypatch.setattr(Program, "run", counting_run)
    _chunks_of(monkeypatch, model, 11)
    run(model, "all", cfg)
    assert calls == [run_plan_of(model)[1]] * 3


def test_expressions_are_lowered_into_shared_nodes(monkeypatch):
    # a model's expressions are nodes of the run's program like any
    # other: its only leaves are coordinates and constants, and a
    # subexpression in several entries is one node, in one slot
    model = load_model_bytes(_son_model_bytes(monkeypatch, 3))
    run(model, "all", RunConfig(tolerance=model.tolerance, points=32, seed=43))
    run_plan, program = run_plan_of(model)
    under = _under(f for plan in run_plan.plans for f in _fields_of(plan))
    assert program.slots == len(under)
    assert {type(n) for n in under if not n.inputs} == {ConstField, CoordField}
    squares = [n for n in under if isinstance(n, RuleField) and n.text == "x1^2.0"]
    assert len(squares) == 1
    # the metric's entries and mu_2 = c x2 x3 + c' x1^2 hold it
    assert all(squares[0] in _under([g]) for g in (model.metric.g[0][0], model.metric.g[2][2], model.mu[1]))


# ---------------------------------------------------------------------------
# Graphs built once per model, jets held once per suite


@pytest.mark.parametrize("name", [*fixture_names(), "so3"])
def test_a_second_run_builds_no_field(name, monkeypatch):
    raw = _son_model_bytes(monkeypatch, 3) if name == "so3" else fixture_bytes(name)
    model = load_model_bytes(raw)
    # every node but a zero constant is built through the node table, which
    # a first run asks even where a live model of the same file built its
    # nodes already
    asked = []
    shared = fields._shared

    def counting_shared(cls, *args):
        asked.append(cls.__name__)
        return shared(cls, *args)

    monkeypatch.setattr(fields, "_shared", counting_shared)
    run(model, "all", RunConfig(points=16, seed=5))
    assert asked
    asked.clear()
    run(model, "all", RunConfig(points=24, seed=6))
    assert asked == []


@pytest.mark.parametrize("name", ["rotation_momentum_map", "so3"])
def test_a_reused_model_reports_as_fresh_models_do(name, monkeypatch):
    raw = _son_model_bytes(monkeypatch, 3) if name == "so3" else fixture_bytes(name)
    model = load_model_bytes(raw)
    for seed, points in [(5, 32), (6, 1024), (5, 32), (7, 8)]:
        cfg = RunConfig(points=points, seed=seed)
        assert run(model, "all", cfg).to_json() == run(load_model_bytes(raw), "all", cfg).to_json()


def test_a_reused_model_reports_each_selection_as_fresh_models_do(monkeypatch):
    # each selection has a run plan and a program of its own, over the
    # plans of the suites it selects, which it plans on its first run
    raw = _son_model_bytes(monkeypatch, 3)
    model = load_model_bytes(raw)
    cfg = RunConfig(points=32, seed=5)
    for selection in ("momentum", "all", "axioms", "all"):
        assert run(model, selection, cfg).to_json() == run(load_model_bytes(raw), selection, cfg).to_json()
    suite_names = suites.applicable_suites(model)
    assert model._plans.keys() == {("momentum",), tuple(suite_names), ("axioms",)}


def test_a_dropped_model_frees_its_graphs_at_once(monkeypatch):
    # the model holds the evaluation steps of its suites and the programs
    # of its selections; a step that held the model would make a cycle,
    # and every node would wait for the cyclic collector.  The node table
    # holds its nodes weakly, so their entries go with them.  A live model
    # of the same file (a session fixture's) holds the nodes this one
    # shares with it; the rest are this load's own
    added = []
    for raw in [*(fixture_bytes(name) for name in fixture_names()), _son_model_bytes(monkeypatch, 3)]:
        gc.collect()
        gc.disable()
        try:
            before = set(fields._NODES)
            model = load_model_bytes(raw)
            run(model, "all", RunConfig(points=8, seed=1))
            refs = [weakref.ref(model), *(weakref.ref(step) for step in model._plans.values())]
            added.append(len(set(fields._NODES) - before))
            del model
            assert all(ref() is None for ref in refs)
            assert set(fields._NODES) == before
        finally:
            gc.enable()
    # no other model holds so(3)'s nodes: 921 of them, with the partials
    # the table keeps (over 1,000 when partials read their input's jets)
    assert added[-1] > 800


def test_two_suites_reading_one_quantity_read_one_set_of_nodes(monkeypatch):
    # axioms and sigma2d build the anchor-morphism rows each on their own
    rows = {}
    check = suites.CheckContext.check

    def recording_check(ctx, name, equation, labeled, *args, **kwargs):
        rows[name] = labeled
        return check(ctx, name, equation, labeled, *args, **kwargs)

    monkeypatch.setattr(suites.CheckContext, "check", recording_check)
    run(load_model_bytes(_son_model_bytes(monkeypatch, 3)), "all", RunConfig(points=8, seed=1))
    axioms, sigma2d = rows["axioms/anchor-morphism"], rows["sigma2d/rigid-anchor-morphism"]
    assert any(f.level for _, f in axioms)
    assert [label for label, _ in axioms] == [label for label, _ in sigma2d]
    assert all(x is y for (_, x), (_, y) in zip(axioms, sigma2d))


def test_run_memory_is_bounded_and_released(monkeypatch):
    # so(4) with every block: a run at 1024 points peaked at 71 MB under
    # tracemalloc when every node kept its jets and graphs were rebuilt
    # per run, and memory grew with the points; a run now evaluates
    # chunks of points whose length the tables' byte budget sets
    model = load_model_bytes(_son_model_bytes(monkeypatch, 4))
    mb = 2.0**20
    for points in (1024, 4096):
        cfg = RunConfig(tolerance=model.tolerance, points=points, seed=42)
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


# ---------------------------------------------------------------------------
# Chunks


def _json_at_chunk_lengths(monkeypatch, raw: bytes, seed: int, points: int) -> list[str]:
    """Reports of one model at chunk lengths 1, 7 and 32 and as one chunk,
    or the text of the domain error a run stops with."""
    model = load_model_bytes(raw)
    cfg = RunConfig(points=points, seed=seed)

    def report():
        try:
            return run(model, "all", cfg).to_json()
        except DomainError as exc:
            return f"error: {exc}"

    report()
    reports = []
    for length in (1, 7, 32, None):
        if length is None:
            monkeypatch.setattr(suites, "CHUNK_BYTES", 1 << 60)
        else:
            _chunks_of(monkeypatch, model, length)
        reports.append(report())
    return reports


def _saturated_exponent_model(base: str) -> bytes:
    """rotation_momentum_map with mu_1 = ``base^(tanh(1000*(y - c)) + 1) -
    base^2``.  The exponent is exactly 2, with zero derivatives, wherever
    y is not close to c, the y of sample point 0 at (seed 42, 32 points),
    so a chunk without that point sees a constant exponent."""
    doc = json.loads(fixture_bytes("rotation_momentum_map"))
    c = float(load_model_bytes(fixture_bytes("rotation_momentum_map")).chart.sample(32, 42)[0, 1])
    doc["mu"][0]["expr"] = f"{base}^(tanh(1000*(y - {c!r})) + 1) - {base}^2"
    return json.dumps(doc).encode()


@pytest.mark.parametrize(
    "name",
    [
        *fixture_names(),
        "so3",
        "b-not-closed",
        "nan-metric",
        "saturated-exponent-x",
        "saturated-exponent-x2-plus-half",
        "log-x-plus-sqrt-y",
    ],
)
def test_reports_do_not_depend_on_the_chunk_length(name, monkeypatch):
    # b-not-closed reads sigma2d's rows for a b that is not closed;
    # nan-metric's metric is NaN at some points, so a chunk may hold no
    # finite metric.  An exponent with a coordinate is variable at every
    # point, however constant its values over a chunk: with the base x,
    # which is negative at some points, every run stops with one error;
    # with x^2 + 1/2 every run takes one path, where sigma2d/bdry-pairing
    # differed in its last bits when the chunk decided.  In log(x) +
    # sqrt(y), sqrt leaves its domain first, at point 0 of (seed 42, 32
    # points), and log at point 2, so the first failing point, not the
    # chunk, decides which error a run stops with
    if name == "b-not-closed":
        raw = json.dumps(B_NOT_CLOSED).encode()
    elif name == "nan-metric":
        doc = json.loads(fixture_bytes("magnetic_twist_mechanics"))
        doc["metric"][0] = {"idx": [1, 1], "expr": "exp(1000*x) - exp(1000*x) + 1"}
        raw = json.dumps(doc).encode()
    elif name.startswith("saturated-exponent"):
        raw = _saturated_exponent_model("x" if name.endswith("-x") else "(x*x + 0.5)")
    elif name == "log-x-plus-sqrt-y":
        doc = json.loads(fixture_bytes("rotation_momentum_map"))
        doc["mu"][0]["expr"] = "log(x) + sqrt(y)"
        raw = json.dumps(doc).encode()
    else:
        raw = _son_model_bytes(monkeypatch, 3) if name == "so3" else fixture_bytes(name)
    for seed, points in ((42, 32), (7, 17)):
        reports = _json_at_chunk_lengths(monkeypatch, raw, seed, points)
        assert reports[1:] == reports[:-1]
        failed = reports[0].startswith("error: variable exponent requires a positive base")
        assert failed == (name == "saturated-exponent-x")
        assert reports[0].startswith("error: ") == (name in ("saturated-exponent-x", "log-x-plus-sqrt-y"))
        if name == "log-x-plus-sqrt-y" and seed == 42:
            assert reports[0] == "error: sqrt of a negative value in 'sqrt(y)' at sample point 0"


def test_a_run_that_reads_rows_of_a_b_that_is_not_closed_compiles_one_program(monkeypatch):
    # sigma2d's rows for a b that is not closed are one more row set of
    # the run's program: it is the one program a run compiles, and it
    # runs once per chunk
    model = load_model_bytes(json.dumps(B_NOT_CLOSED).encode())
    compiled, calls = [], []
    compile_program, run_program = Program.__init__, Program.run

    def counting_init(program, groups, dim):
        compiled.append(program)
        compile_program(program, groups, dim)

    def counting_run(program, points):
        calls.append(program)
        return run_program(program, points)

    monkeypatch.setattr(Program, "__init__", counting_init)
    monkeypatch.setattr(Program, "run", counting_run)
    cfg = RunConfig(points=32, seed=42)
    rep = run(model, "all", cfg)
    assert "b not closed" in " ".join(rep.find("sigma2d/rigid-b-invariance").flags)
    assert compiled == [run_plan_of(model)[1]]
    assert calls == compiled
    calls.clear()
    _chunks_of(monkeypatch, model, 11)
    assert run(model, "all", cfg).to_json() == rep.to_json()
    assert compiled == [run_plan_of(model)[1]]
    assert calls == compiled * 3


def test_a_nan_in_a_later_chunk_fails_its_row(monkeypatch):
    # exp(u) - exp(u) is 0 where exp does not overflow and NaN where it
    # does, for u > 709.78; c puts that bound between the largest x of the
    # first chunk of 7 points and the largest x of the rest
    doc = json.loads(fixture_bytes("rotation_momentum_map"))
    x = load_model_bytes(json.dumps(doc).encode()).chart.sample(32, 42)[:, 0]
    assert x[:7].max() + 0.01 < x[7:].max()
    c = float(x[:7].max()) + 0.005 - 0.71
    doc["mu"][0]["expr"] = f"exp(1000*(x - {c!r})) - exp(1000*(x - {c!r}))"
    reports = _json_at_chunk_lengths(monkeypatch, json.dumps(doc).encode(), 42, 32)
    assert reports[1:] == reports[:-1]
    h2 = next(c for c in json.loads(reports[1])["checks"] if c["name"] == "momentum/h2-momentum-section")
    assert h2["passed"] is False and "non-finite" in h2["flags"]
