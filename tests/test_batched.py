"""Batched jets: a sample evaluates row by row exactly as single points do,
and the per-sample memo never serves jets of another sample."""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import f, random_poly_source, random_smooth_source
from momsec.expressions import eval_jet, eval_jets, parse
from momsec.fields import Chart, matrix_inverse_fields
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
