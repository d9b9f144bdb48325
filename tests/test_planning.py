"""Planning works on a model's stored entries: it builds no node that no
probe reaches and seldom multiplies by, or looks up, a structural zero;
on the so(n) stress models it multiplies by none.  The counts come from
``scripts/plan_time.py``, which CI also runs.  A plan reads the maximum
of every row set with one reduction, and each is the maximum read over
that row set alone."""

import pathlib
import sys

import numpy as np
import pytest

from momsec import momentum, suites
from momsec.fields import Program
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


def _plans_and_maxima(raw: bytes):
    """Every applicable suite's plan of the model, and the probe maxima of
    one run of them at seed 42 and 32 points."""
    model = load_model_bytes(raw)
    plans = [suites._Plan(*suites._SUITES[s][0](model)) for s in suites.applicable_suites(model)]
    probes = [p for plan in plans for p in plan.probes]
    program = Program([(p.fields, p.order) for p in probes], model.chart.dim)
    with np.errstate(all="ignore"):
        return plans, suites._evaluate(program, probes, model.chart.sample(32, 42))


def _one_by_one(plan, values: np.ndarray) -> dict:
    """Each row set's maximum read alone: the max over the positions of its
    fields in the plan's first probe, 0 when all of them are zero."""
    position = {f: i for i, f in enumerate(plan.probes[0].fields)}
    out = {}
    for rows in plan.row_sets:
        if rows is not None:
            picked = values[np.array([position[f] for _, f in rows if not f.is_zero], dtype=np.intp)]
            out[id(rows)] = float(picked.max()) if len(picked) else 0.0
    return out


@pytest.mark.parametrize("name", MODELS)
def test_one_reduction_reads_each_row_set_maximum(name):
    plans, maxima = _plans_and_maxima(MODELS[name]())
    for plan in plans:
        np.testing.assert_equal(plan.row_maxima(maxima), _one_by_one(plan, maxima[plan.probes[0]]))


def test_a_nan_field_reads_nan_in_exactly_the_row_sets_holding_it():
    plans, maxima = _plans_and_maxima(MODELS["son(3, 1)"]())
    for plan in plans:
        values = maxima[plan.probes[0]].copy()
        assert not np.isnan(values).any()
        field = plan.probes[0].fields[len(values) // 2]
        values[len(values) // 2] = np.nan
        got = plan.row_maxima({**maxima, plan.probes[0]: values})
        holding = {id(rows) for rows in plan.row_sets if rows is not None and field in {f for _, f in rows}}
        assert holding and {key for key, value in got.items() if np.isnan(value)} == holding
        np.testing.assert_equal(got, _one_by_one(plan, values))


@pytest.mark.parametrize("name", ["rotation_momentum_map", "son(3, 1)"])
def test_momentum_planning_contracts_each_anchor_with_B_once(name, monkeypatch):
    # gamma_a = iota_{rho_a} B is built once per plan and handed to the
    # H1/H2 rows and to the flat-connection reductions, whose Hamiltonian
    # rows are then H2's own nodes.  Calls are counted at the momentum
    # module's name; a Lie derivative contracts inside fields
    model = load_model_bytes(MODELS[name]())
    contract, calls = momentum.interior_product, []

    def counted(v, omega):
        calls.append((tuple(map(id, v.comps)), tuple((k, id(f)) for k, f in sorted(omega.comps.items()))))
        return contract(v, omega)

    monkeypatch.setattr(momentum, "interior_product", counted)
    _, row_sets = suites.plan_momentum(model)
    assert len(calls) == len(set(calls)) == model.alg.rank
    h2_rows, hamiltonian = row_sets[2], row_sets[6]
    assert [label for label, _ in hamiltonian] == [label for label, _ in h2_rows]
    assert all(a is b for (_, a), (_, b) in zip(hamiltonian, h2_rows))
