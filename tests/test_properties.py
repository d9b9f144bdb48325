"""Property tests over the built-in fixtures: malformed model files fail
only with ModelError, and reports are deterministic with an exit code
that follows ``overall_pass``."""

import io
import json
from contextlib import redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from momsec.cli import main
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
