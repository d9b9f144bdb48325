"""Planning works on a model's stored entries: it builds no node that no
probe reaches and seldom multiplies by, or looks up, a structural zero;
on the so(n) stress models it multiplies by none.  The counts come from
``scripts/plan_time.py``, which CI also runs.  A run plan reads the
maximum of every row set of every selected suite with one reduction,
and each is the maximum read over that row set alone."""

import pathlib
import sys

import numpy as np
import pytest

from conftest import run_plan_of
from momsec import fields, hamiltonian, momentum, sigma2d, suites
from momsec.fixtures import fixture_bytes, fixture_names
from momsec.modelfile import load_model_bytes

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "scripts"))

from plan_time import planning_counts  # noqa: E402
from perfbench.models import son_model_bytes  # noqa: E402


MODELS = {name: lambda name=name: fixture_bytes(name) for name in fixture_names()}
MODELS |= {"son(3, 1)": lambda: son_model_bytes(3, 1), "son(4, 1)": lambda: son_model_bytes(4, 1)}


@pytest.mark.parametrize("name", MODELS)
def test_planning_builds_only_nodes_a_probe_reaches(name):
    assert planning_counts(MODELS[name]())["unreached"] == []


@pytest.mark.parametrize("name", ["son(3, 1)", "son(4, 1)"])
def test_planning_multiplies_by_no_structural_zero(name):
    # their connections are flat, so no Gamma term of the multisym identity is built
    assert planning_counts(MODELS[name]())["zero_products"] == 0


# a quarter of each count when every planner looped over index ranges
BOUNDS = {"so3_action_algebroid": (627 // 4, 315 // 4), "son(3, 1)": (3921 // 4, 831 // 4)}


@pytest.mark.parametrize("name", BOUNDS)
def test_planning_seldom_touches_structural_zeros(name):
    products, lookups = BOUNDS[name]
    counts = planning_counts(MODELS[name]())
    assert counts["zero_products"] <= products
    assert counts["zero_lookups"] <= lookups


def _run_plan_and_rows(raw: bytes):
    """The run plan of every applicable suite of the model, and the max
    |f| of each field of its row probe over one run at seed 42 and 32
    points."""
    model = load_model_bytes(raw)
    run_plan, _ = run_plan_of(model)
    with np.errstate(all="ignore"):
        return run_plan, run_plan.evaluate(model.chart.sample(32, 42))[0]


def _holders(run_plan) -> dict:
    """Every row set of the run plan's suites, keyed by id, with the
    index of the suite whose plan returned it."""
    return {id(rows): (k, rows) for k, plan in enumerate(run_plan.plans) for rows in plan.row_sets if rows is not None}


def _one_by_one(run_plan, values: np.ndarray) -> dict:
    """Each row set's maximum read alone: the max over the positions of its
    fields in the row probe, 0 when all of them are zero."""
    position = {f: i for i, f in enumerate(run_plan.rows)}
    out = {}
    for key, (_, rows) in _holders(run_plan).items():
        picked = values[np.array([position[f] for _, f in rows if not f.is_zero], dtype=np.intp)]
        out[key] = float(picked.max()) if len(picked) else 0.0
    return out


@pytest.mark.parametrize("name", MODELS)
def test_one_reduction_reads_each_row_set_maximum(name):
    # one reduction over the row probe of every selected suite gives every
    # row set of every suite, each as its own maximum would
    run_plan, values = _run_plan_and_rows(MODELS[name]())
    got = run_plan.row_maxima(values)
    assert got.keys() == _holders(run_plan).keys()
    np.testing.assert_equal(got, _one_by_one(run_plan, values))


def test_a_nan_field_reads_nan_in_exactly_the_row_sets_holding_it():
    # a field that row sets of two suites read: a NaN there reads NaN in
    # every row set that holds it, of either suite, and in no other
    run_plan, values = _run_plan_and_rows(MODELS["son(3, 1)"]())
    assert not np.isnan(values).any()
    holders = _holders(run_plan)
    suites_of = {}
    for k, rows in holders.values():
        for _, f in rows:
            suites_of.setdefault(f, set()).add(k)
    shared = [i for i, f in enumerate(run_plan.rows) if len(suites_of[f]) > 1]
    assert shared
    for i in (shared[0], shared[len(shared) // 2], shared[-1]):
        nan = values.copy()
        nan[i] = np.nan
        got = run_plan.row_maxima(nan)
        field = run_plan.rows[i]
        holding = {key for key, (_, rows) in holders.items() if field in {f for _, f in rows}}
        assert len({holders[key][0] for key in holding}) > 1
        assert {key for key, value in got.items() if np.isnan(value)} == holding
        np.testing.assert_equal(got, _one_by_one(run_plan, nan))


def _counted_contractions(monkeypatch, builder) -> list:
    """Record every (vector, 2-form) pair that ``interior_product`` is
    called with at the fields module's name, where a Lie derivative
    would contract, and at the name ``builder`` calls.  The Lie
    derivative of a 2-form also contracts its d, a 3-form, not recorded."""
    contract, calls = fields.interior_product, []

    def counted(v, omega):
        if omega.degree == 2:
            calls.append((tuple(map(id, v.comps)), tuple((k, id(f)) for k, f in sorted(omega.comps.items()))))
        return contract(v, omega)

    for module in (fields, builder):
        monkeypatch.setattr(module, "interior_product", counted)
    return calls


@pytest.mark.parametrize("name", ["rotation_momentum_map", "son(3, 1)"])
def test_momentum_planning_contracts_each_anchor_with_B_once(name, monkeypatch):
    # gamma_a = iota_{rho_a} B is built once per plan and handed to the
    # H1/H2 rows and to the flat-connection reductions, whose Hamiltonian
    # rows are then H2's own nodes and whose Lie derivatives read it
    model = load_model_bytes(MODELS[name]())
    calls = _counted_contractions(monkeypatch, momentum)
    _, row_sets = suites.plan_momentum(model)
    assert len(calls) == len(set(calls)) == model.alg.rank
    h2_rows, hamiltonian = row_sets[2], row_sets[6]
    assert [label for label, _ in hamiltonian] == [label for label, _ in h2_rows]
    assert all(a is b for (_, a), (_, b) in zip(hamiltonian, h2_rows))


@pytest.mark.parametrize("name", ["rotation_momentum_map", "son(3, 1)"])
def test_sigma2d_planning_contracts_each_anchor_with_b_once(name, monkeypatch):
    # the rigid-b rows' Lie derivative L_{rho_a} b reads the contraction
    # iota_{rho_a} b that is also their default candidate.  The H1/H2 rows
    # of B = b + d eta contract in the momentum module, not counted here
    model = load_model_bytes(MODELS[name]())
    calls = _counted_contractions(monkeypatch, sigma2d)
    suites.plan_sigma2d(model)
    assert len(calls) == len(set(calls)) == model.alg.rank


@pytest.mark.parametrize(
    "name, calls", [("rotation_momentum_map", 1), ("son(3, 1)", 1), ("magnetic_twist_mechanics", 2)]
)
def test_mechanics_plans_the_absorbed_system_only_for_a_nonzero_beta(name, calls, monkeypatch):
    # absorbing a beta that is a structural zero leaves the system as it
    # is, so its twisted residuals are the untwisted ones, built once
    model = load_model_bytes(MODELS[name]())
    flow, made = hamiltonian.flow_fields, []
    monkeypatch.setattr(hamiltonian, "flow_fields", lambda system: made.append(system) or flow(system))
    suites.plan_mechanics(model)
    assert len(made) == calls
    assert (calls == 1) == (not model.beta.stored())
