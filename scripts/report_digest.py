#!/usr/bin/env python3
"""Print SHA-256 digests of a fixed set of reports, to compare code versions.

Usage: python scripts/report_digest.py

The set is the built-in examples in ``fixture_names()`` order, then a
copy of ``translation_nonequivariant`` with a polynomial ``connection``
block (no built-in example has one, so this model is what carries the
connection terms Gamma into the digest), then a copy of
``so3_action_algebroid`` with an identity metric and a b that is not
closed (so sigma2d reports ``rigid-b-invariance`` from d(L_rho b), a path
no other model of the set takes), then the generated so(3) models for
seeds 1-3 and the so(4) model for seed 1 (``perfbench/models.py``), then
a copy of ``magnetic_twist_mechanics`` with the rotation-invariant metric
g_ij = delta_ij + x_i x_j / 8 (every other metric of the set is
diagonal, so this model is what carries the dense metric inverse and the
SVD condition number into the digest).
Every model runs all applicable suites at (seed 42, 32 points) and then
at (seed 7, 17 points).  One digest is
updated with the JSON and then the text rendering of each report, in that
order, and printed first; one digest per document follows.  Two versions
of the code produce the same reports exactly when the first lines agree.

A loaded model's first run interprets its run plan and its second
compiles the plan's program (see ``momsec.suites``), so the first
(seed, points) of every model is run once more, on the compiled program,
after the digests are printed.  The script exits with status 1, naming
each model on standard error, if those documents differ from the first
run's; the printed lines do not change.

``scripts/report_digest.expected`` holds the first line for the committed
code, and CI fails when the printed one differs, so a change that alters
report bytes updates that file on purpose.
"""

import hashlib
import json
import pathlib
import sys

# the so(n) generator lives in the benchmark directory at the repo root
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

from momsec.fixtures import fixture_bytes, fixture_names  # noqa: E402
from momsec.modelfile import load_model_bytes  # noqa: E402
from momsec.suites import RunConfig, run  # noqa: E402
from perfbench.models import son_model_bytes  # noqa: E402

RUNS = ((42, 32), (7, 17))

# Gamma^a_{b i} entries as [a, b, i]
CONNECTION = [
    {"idx": [1, 2, 1], "expr": "x*y"},
    {"idx": [2, 1, 2], "expr": "x^2 - y"},
    {"idx": [1, 1, 2], "expr": "y"},
]

# b = x3 dx1^dx2 + x1 x2 dx2^dx3, with db = (1 + x2) dx1^dx2^dx3
B_NOT_CLOSED = [
    {"idx": [1, 2], "expr": "x3"},
    {"idx": [2, 3], "expr": "x1*x2"},
]

# g_ij = delta_ij + x_i x_j / 8, with an entry off the diagonal
DENSE_METRIC = [
    {"idx": [1, 1], "expr": "1 + x^2/8"},
    {"idx": [1, 2], "expr": "x*y/8"},
    {"idx": [2, 2], "expr": "1 + y^2/8"},
]


def models():
    for name in fixture_names():
        yield name, fixture_bytes(name)
    doc = json.loads(fixture_bytes("translation_nonequivariant"))
    doc["algebroid"]["connection"] = CONNECTION
    yield "translation-connection", (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
    doc = json.loads(fixture_bytes("so3_action_algebroid"))
    doc["metric"] = [{"idx": [i, i], "expr": "1"} for i in (1, 2, 3)]
    doc["b_field"] = B_NOT_CLOSED
    yield "so3-b-not-closed", (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
    for seed in (1, 2, 3):
        yield f"so3-s{seed}", son_model_bytes(3, seed)
    yield "so4-s1", son_model_bytes(4, 1)
    doc = json.loads(fixture_bytes("magnetic_twist_mechanics"))
    doc["metric"] = DENSE_METRIC
    yield "magnetic-dense-metric", (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def main() -> int:
    total = hashlib.sha256()
    lines = []
    loaded = [(name, load_model_bytes(raw)) for name, raw in models()]
    first = {}
    for seed, points in RUNS:
        for name, model in loaded:
            docs = documents(model, seed, points)
            first.setdefault(name, docs)
            for kind, data in docs:
                total.update(data)
                lines.append(f"{hashlib.sha256(data).hexdigest()}  {name} seed={seed} points={points} {kind}")
    print(total.hexdigest())
    print("\n".join(lines))
    seed, points = RUNS[0]
    differ = [name for name, model in loaded if documents(model, seed, points) != first[name]]
    for name in differ:
        print(f"error: {name} seed={seed} points={points}: the compiled rerun differs from the first run", file=sys.stderr)
    return 1 if differ else 0


def documents(model, seed: int, points: int) -> list:
    """``(kind, bytes)`` of the JSON and the text rendering of one run of all suites."""
    report = run(model, "all", RunConfig(tolerance=model.tolerance, points=points, seed=seed))
    return [("json", report.to_json().encode()), ("text", report.to_text().encode())]


if __name__ == "__main__":
    sys.exit(main())
