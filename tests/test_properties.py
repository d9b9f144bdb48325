"""Property tests over the built-in fixtures and random models: malformed
model files fail only with ModelError, reports are deterministic with an
exit code that follows ``overall_pass``, a valid model yields a report, an
evaluation error or a load-time domain error and never a traceback, and
folding structural zeros changes no residual."""

import io
import itertools
import json
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_poly_source, random_smooth_source
from momsec.cli import EXIT_EVAL, EXIT_USAGE, main
from momsec.expressions import DomainError
from momsec.fixtures import fixture_bytes, fixture_names
from momsec.modelfile import ModelError, load_model_bytes
from momsec.suites import RunConfig, run

# JSON text has no infinity literal; an overflowing number such as 1e400
# is how one reaches a loader, so the strategy draws this marker and the
# serialized bytes get the literal in its place
_HUGE = "\x00huge"

_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.just(10**400)
    | st.floats()
    | st.just(_HUGE)
    | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=8,
)


def _node_paths(node, path=()):
    """Every position in a JSON document, as a key path from the root."""
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _node_paths(child, path + (key,))
    elif isinstance(node, list):
        for pos, child in enumerate(node):
            yield from _node_paths(child, path + (pos,))


def _replaced(doc, path, value):
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


@given(name=st.sampled_from(fixture_names()), data=st.data())
@settings(max_examples=60, deadline=None)
def test_mutated_fixture_fails_only_with_model_error(name, data):
    doc = json.loads(fixture_bytes(name))
    path = data.draw(st.sampled_from(list(_node_paths(doc))))
    doc = _replaced(doc, path, data.draw(_json_values))
    raw = json.dumps(doc).replace(json.dumps(_HUGE), "1e400").encode()
    try:
        load_model_bytes(raw)
    except ModelError:
        pass


@given(name=st.sampled_from(fixture_names()), seed=st.integers(0, 2**32 - 1), points=st.integers(1, 16))
@settings(max_examples=12, deadline=None)
def test_fresh_loads_give_identical_reports_and_matching_exit_code(tmp_path_factory, name, seed, points):
    model = load_model_bytes(fixture_bytes(name))
    config = RunConfig(tolerance=model.tolerance, points=points, seed=seed)
    report = run(model, "all", config).to_json()
    again = run(load_model_bytes(fixture_bytes(name)), "all", config)
    assert again.to_json() == report

    path = tmp_path_factory.mktemp("model") / f"{name}.json"
    path.write_bytes(fixture_bytes(name))
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["check", str(path), "--format", "json", "--seed", str(seed), "--points", str(points)])
    assert out.getvalue() == report
    assert code == (0 if again.overall_pass else 1)


def _random_model(rng: np.random.Generator) -> dict:
    """A valid model file with random expressions.  Two models in three
    fill every block, sometimes with a metric (positive definite at every
    point) and a multisymplectic tower, and one mu component in four is
    a log or a quotient, which may leave its domain at the sample, or at
    load where its argument has no coordinate.  The
    third has only constant anchors, mu and metric, so that some models
    pass."""
    dim = int(rng.integers(2, 4))
    rank = int(rng.integers(1, 4))
    coords = ["x", "y", "z"][:dim]
    constant = rng.random() < 1 / 3

    def expr() -> str:
        if constant:
            return repr(float(rng.uniform(-1.0, 1.0)))
        make = random_smooth_source if rng.random() < 0.5 else random_poly_source
        return make(rng, coords)

    def entries(shape, chance=0.6, distinct=False):
        out = []
        for idx in itertools.product(*(range(1, n + 1) for n in shape)):
            if distinct and list(idx) != sorted(set(idx)):
                continue
            if rng.random() < chance:
                out.append({"idx": list(idx), "expr": expr()})
        return out

    doc = {
        "schema": 1,
        "chart": {"coordinates": coords, "box": [[-1.0, 1.0]] * dim},
        "algebroid": {"rank": rank, "anchor": entries((rank, dim))},
        "mu": entries((rank,), 0.8),
    }
    if rng.random() < 0.5:
        doc["metric"] = [{"idx": [i, i], "expr": f"1 + ({expr()})^2"} for i in range(1, dim + 1)]
    if constant:
        return doc
    for e in doc["mu"]:
        if rng.random() < 0.25:
            e["expr"] = f"log({e['expr']})" if rng.random() < 0.5 else f"1/({e['expr']})"
    doc["algebroid"]["structure"] = [e for e in entries((rank, rank, rank), 0.3) if e["idx"][1] < e["idx"][2]]
    doc["algebroid"]["connection"] = entries((rank, rank, dim), 0.2)
    doc.update(
        b_field=entries((dim, dim), 0.5, distinct=True),
        eta_boundary=entries((dim,), 0.5),
        alpha=entries((rank,), 0.5),
        beta=entries((dim,), 0.5),
        V=expr(),
        tau=entries((rank, rank), 0.3),
    )
    if dim == 3 and rng.random() < 0.5:
        doc["multisym"] = {
            "n": 2,
            "h": [{"idx": [1, 2, 3], "expr": expr()}],
            "eta": {"2": entries((dim, dim), 0.5, distinct=True)},
        }
    return doc


@given(seed=st.integers(0, 2**32 - 1), sample_seed=st.integers(0, 2**32 - 1), points=st.integers(1, 12))
@example(seed=2589, sample_seed=42, points=12)
@settings(max_examples=40, deadline=None)
def test_random_valid_model_gives_a_report_or_an_evaluation_error(tmp_path_factory, seed, sample_seed, points):
    # seed 2589 wraps a constant mu entry in log, out of its domain
    raw = json.dumps(_random_model(np.random.default_rng(seed))).encode()
    path = tmp_path_factory.mktemp("model") / "random.json"
    path.write_bytes(raw)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["check", str(path), "--format", "json", "--seed", str(sample_seed), "--points", str(points)])
    if code == EXIT_USAGE:
        # a subexpression without a coordinate is a number fixed at load,
        # so its domain error names no sample point
        assert out.getvalue() == ""
        with pytest.raises(ModelError) as exc:
            load_model_bytes(raw)
        assert isinstance(exc.value.__cause__, DomainError) and exc.value.__cause__.point is None
        assert err.getvalue() == f"error: invalid model: {exc.value}\n"
        assert ": bad expression: " in err.getvalue() and "sample point" not in err.getvalue()
        return
    if code == EXIT_EVAL:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: cannot evaluate the model at the sample")
        return
    report = out.getvalue()
    assert code == (0 if json.loads(report)["overall_pass"] else 1)
    config = RunConfig(tolerance=1e-8, points=points, seed=sample_seed)
    assert run(load_model_bytes(raw), "all", config).to_json() == report
    assert run(load_model_bytes(raw), "all", config).to_json() == report


def _densified(doc: dict) -> dict:
    """The model with an explicit zero in every absent anchor slot and
    structure slot.  An anchor slot gets ``c - c``, with c the first
    coordinate: a zero that the loader does not fold, so it reaches every
    graph as a node.  A structure slot gets ``"0"``, which folds to the
    structural zero: a zero there that does not fold makes the structure
    functions non-constant, which removes the constant-bracket rows by
    design."""
    alg = doc["algebroid"]
    rank, coordinates = alg["rank"], doc["chart"]["coordinates"]
    zero = f"{coordinates[0]} - {coordinates[0]}"
    anchor = alg.setdefault("anchor", [])
    present = {tuple(e["idx"]) for e in anchor}
    anchor += [
        {"idx": [a, i], "expr": zero}
        for a in range(1, rank + 1)
        for i in range(1, len(coordinates) + 1)
        if (a, i) not in present
    ]
    structure = alg.setdefault("structure", [])
    present = {(e["idx"][0], *sorted(e["idx"][1:])) for e in structure}
    for c, a, b in itertools.product(range(1, rank + 1), repeat=3):
        if a < b and (c, a, b) not in present:
            structure.append({"idx": [c, a, b], "expr": "0"})
    return doc


def _summary(report):
    """What folding may not change: every row's name, residual, verdict and
    flags, and its non-zero term values; zero-valued terms and tuple counts
    may differ, since explicit zeros add rows and terms that read 0."""
    rows = [
        (c.name, c.max_residual, c.passed, c.flags, {k: v for k, v in (c.terms or {}).items() if v != 0.0})
        for c in report.checks
    ]
    return rows, report.verdicts


@pytest.mark.parametrize("name", fixture_names())
def test_explicit_zero_entries_leave_every_residual_unchanged(name):
    sparse = load_model_bytes(fixture_bytes(name))
    doc = json.loads(fixture_bytes(name))
    filled = doc["algebroid"]["rank"] * len(doc["chart"]["coordinates"]) > len(doc["algebroid"].get("anchor", []))
    dense = load_model_bytes(json.dumps(_densified(doc)).encode())
    # the filled anchor slots hold nodes, not the zero the sparse model holds
    pairs = zip(dense.alg.anchor, sparse.alg.anchor)
    differs = any(d is not s for dense_row, sparse_row in pairs for d, s in zip(dense_row, sparse_row))
    assert differs == filled
    for seed, points in ((42, 32), (7, 17)):
        config = RunConfig(tolerance=sparse.tolerance, points=points, seed=seed)
        assert _summary(run(dense, "all", config)) == _summary(run(sparse, "all", config))
