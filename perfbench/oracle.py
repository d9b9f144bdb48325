"""Correctness oracle for check reports.

It checks only answers that the theory fixes: the verdicts and the named
rows that the README's example table states for each fixture, and the
axiom rows of the so(n) action models.  It never compares against a
byte snapshot of a whole report, so a report may gain rows, flags or
terms and stay correct.  Every report must also be self-consistent:
finite residuals, each row's pass flag agreeing with its residual and
tolerance, ``overall_pass`` agreeing with the required rows, and the
report describing the request that produced it.
"""

from __future__ import annotations

import hashlib
import math

# Residuals that the theory fixes to a number (the obstruction B(rho_1, rho_2) = 1).
_EXACT_TOL = 1e-9

# name -> (every row passes, verdicts, rows).  A row expectation is True
# (passes), False (fails) or a float (fails with exactly this residual).
# A report that runs only some suites is held to the expectations of those.
FIXTURE_EXPECT: dict[str, tuple] = {
    "rotation_momentum_map": (
        True,
        {
            "algebroid_class": "Lie algebroid",
            "momentum_classification": "Hamiltonian",
            "sigma2d_classification": "Hamiltonian",
            "multisym_classification": "Hamiltonian",
        },
        {},
    ),
    "translation_nonequivariant": (
        False,
        {
            "algebroid_class": "Lie algebroid",
            "momentum_classification": "weakly Hamiltonian",
            "sigma2d_classification": "weakly Hamiltonian",
            "multisym_classification": "weakly Hamiltonian",
        },
        {
            "momentum/h2-momentum-section": True,
            "momentum/h3-bracket-compat": 1.0,
            "sigma2d/bdry-mu-equivariance": 1.0,
            "multisym/hm3-diff[k=0]": 1.0,
        },
    ),
    "so3_action_algebroid": (True, {"algebroid_class": "Lie algebroid"}, {}),
    "magnetic_twist_mechanics": (
        True,
        {"algebroid_class": "Lie algebroid", "mechanics_classification": "Hamiltonian"},
        {},
    ),
    "plectic2_flux_model": (
        True,
        {"algebroid_class": "Lie algebroid", "multisym_classification": "Hamiltonian"},
        {"multisym/hm1-anchoring": True},
    ),
    "broken_jacobi": (
        False,
        {"algebroid_class": "neither"},
        {"axioms/anchor-morphism": False, "axioms/jacobi-cyclic": False},
    ),
}

SON_AXIOM_ROWS = (
    "axioms/anchor-morphism",
    "axioms/jacobi-cyclic",
    "axioms/jacobi-anchored",
    "axioms/q-squared",
    "axioms/q-verdict-agreement",
)


def residual_values(report: dict) -> int:
    """Residual values the report states it certified: sum of n_tuples * n_points."""
    return sum(row["n_tuples"] * row["n_points"] for row in report["checks"])


def check_report(report: dict, model: str, raw: bytes, seed: int, points: int, suites) -> list[str]:
    """Problems with one report; an empty list means it is correct.

    ``model`` is a fixture name or ``so3``/``so4``; ``suites`` lists the
    suites the request ran.
    """
    problems = []
    if report.get("model_hash") != hashlib.sha256(raw).hexdigest():
        problems.append("model_hash does not match the model bytes")
    if report.get("seed") != seed or report.get("points") != points:
        problems.append(f"report is for seed {report.get('seed')} points {report.get('points')}")
    if report.get("suites") != list(suites):
        problems.append(f"suites {report.get('suites')} != {list(suites)}")
    rows = {}
    for row in report.get("checks", []):
        name = row["name"]
        res = row["max_residual"]
        rows[name] = row
        if not isinstance(res, (int, float)) or not math.isfinite(res):
            problems.append(f"{name}: non-finite residual {res!r}")
            continue
        if row["passed"] != (res < row["tolerance"]):
            problems.append(f"{name}: passed={row['passed']} contradicts residual {res!r}")
        if row["n_points"] != points:
            problems.append(f"{name}: n_points {row['n_points']} != {points}")
    if not rows:
        problems.append("report has no check rows")
    required = all(r["passed"] or r["informational"] for r in rows.values())
    if report.get("overall_pass") != required:
        problems.append("overall_pass contradicts the required rows")
    if problems:
        return problems

    verdicts = report.get("verdicts", {})
    if model in FIXTURE_EXPECT:
        all_pass, want_verdicts, want_rows = FIXTURE_EXPECT[model]
        failing = [n for n, r in rows.items() if not r["passed"]]
        if all_pass and failing:
            problems.append(f"rows expected to pass fail: {failing}")
    else:
        want_verdicts = {"algebroid_class": "Lie algebroid"}
        want_rows = dict.fromkeys(SON_AXIOM_ROWS, True)
    for key, want in want_verdicts.items():
        # a verdict is expected only when its suite ran
        suite = "axioms" if key == "algebroid_class" else key.split("_")[0]
        if suite in suites and verdicts.get(key) != want:
            problems.append(f"verdict {key} = {verdicts.get(key)!r}, expected {want!r}")
    for name, want in want_rows.items():
        if name.split("/")[0] not in suites:
            continue
        row = rows.get(name)
        if row is None:
            problems.append(f"row {name} missing")
        elif isinstance(want, bool):
            if row["passed"] != want:
                problems.append(f"{name}: passed={row['passed']}, expected {want}")
        elif row["passed"] or abs(row["max_residual"] - want) > _EXACT_TOL:
            problems.append(f"{name}: residual {row['max_residual']!r}, expected fail at {want!r}")
    return problems


def check_exit_code(report: dict, code: int) -> list[str]:
    want = 0 if report["overall_pass"] else 1
    return [] if code == want else [f"exit code {code} contradicts overall_pass={report['overall_pass']}"]


class RecurrenceCheck:
    """Byte-identical JSON whenever a (model, seed, points) triple recurs."""

    def __init__(self):
        self.digests: dict[tuple, str] = {}
        self.recurrences = 0

    def check(self, key: tuple, text: str) -> list[str]:
        digest = hashlib.sha256(text.encode()).hexdigest()
        if key not in self.digests:
            self.digests[key] = digest
            return []
        self.recurrences += 1
        return [] if self.digests[key] == digest else [f"JSON for {key} differs from an earlier identical request"]

