"""Planning works on a model's stored entries: it builds no node that no
probe reaches and seldom multiplies by, or looks up, a structural zero;
on the so(n) stress models it multiplies by none.  The counts come from
``scripts/plan_time.py``, which CI also runs."""

import pathlib
import sys

import pytest

from momsec.fixtures import fixture_bytes, fixture_names

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
