"""Planning works on a model's stored entries: it builds no node that no
probe reaches and seldom multiplies by, or looks up, a structural zero.
The counts come from ``scripts/plan_time.py``, which CI also runs."""

import pathlib
import sys

import pytest

from momsec.fixtures import fixture_bytes, fixture_names

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "scripts"))

from plan_time import planning_counts  # noqa: E402
from perfbench.models import son_model_bytes  # noqa: E402


@pytest.mark.parametrize("name", fixture_names())
def test_planning_builds_only_nodes_a_probe_reaches(name):
    # entries of a metric inverse are exempt: matrix_inverse_fields builds
    # every entry of the inverse, and the Hamiltonian reads only the upper
    # triangle unless a connection term reads the rest
    assert planning_counts(fixture_bytes(name))["unreached"] == []


# a quarter of each count when every planner looped over index ranges
BOUNDS = {
    "so3_action_algebroid": (lambda: fixture_bytes("so3_action_algebroid"), 627 // 4, 315 // 4),
    "son(3, 1)": (lambda: son_model_bytes(3, 1), 3921 // 4, 831 // 4),
}


@pytest.mark.parametrize("name", BOUNDS)
def test_planning_seldom_touches_structural_zeros(name):
    raw, products, lookups = BOUNDS[name]
    counts = planning_counts(raw())
    assert counts["zero_products"] <= products
    assert counts["zero_lookups"] <= lookups
