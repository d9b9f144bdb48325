"""Check results, report assembly and rendering.

Reports are deterministic for a fixed (model bytes, seed, point count):
check rows appear in registry order, floats are rendered with Python's
shortest round-trip repr, and JSON keys are sorted.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .fields import max_abs_fields


@dataclass
class CheckResult:
    name: str
    equation: str
    max_residual: float
    n_points: int
    n_tuples: int
    tolerance: float
    passed: bool
    informational: bool = False
    terms: dict | None = None
    flags: tuple[str, ...] = ()

    @property
    def required_pass(self) -> bool:
        return self.passed or self.informational


@dataclass
class CheckReport:
    model_hash: str
    seed: int
    points: int
    tolerance: float
    suites: list[str] = field(default_factory=list)
    checks: list[CheckResult] = field(default_factory=list)
    verdicts: dict = field(default_factory=dict)

    def add(self, result: CheckResult):
        self.checks.append(result)

    @property
    def overall_pass(self) -> bool:
        return all(c.required_pass for c in self.checks)

    def find(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json(self) -> str:
        payload = {
            "schema": 1,
            "model_hash": self.model_hash,
            "seed": self.seed,
            "points": self.points,
            "tolerance": self.tolerance,
            "suites": self.suites,
            "overall_pass": self.overall_pass,
            "verdicts": self.verdicts,
            "checks": [
                {
                    "name": c.name,
                    "equation": c.equation,
                    "max_residual": c.max_residual,
                    "n_points": c.n_points,
                    "n_tuples": c.n_tuples,
                    "tolerance": c.tolerance,
                    "passed": c.passed,
                    "informational": c.informational,
                    "terms": c.terms,
                    "flags": list(c.flags),
                }
                for c in self.checks
            ],
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        lines = []
        lines.append(f"model {self.model_hash[:16]}  seed={self.seed} points={self.points} tol={self.tolerance:g}")
        lines.append(f"suites: {', '.join(self.suites)}")
        lines.append("")
        width = max((len(c.name) for c in self.checks), default=10)
        for c in self.checks:
            if c.informational:
                status = "pass" if c.passed else "INFO"
            else:
                status = "PASS" if c.passed else "FAIL"
            lines.append(
                f"  [{status:>4}] {c.name:<{width}}  max|res| = {c.max_residual:.3e}  "
                f"(tol {c.tolerance:.1e}, {c.n_tuples} tuples x {c.n_points} pts)  {c.equation}"
            )
            if c.flags:
                lines.append(f"         flags: {', '.join(c.flags)}")
            if c.terms:
                for label, val in c.terms.items():
                    lines.append(f"         term {label}: {val:.3e}")
        lines.append("")
        for key, val in self.verdicts.items():
            lines.append(f"verdict {key}: {val}")
        lines.append(f"overall: {'PASS' if self.overall_pass else 'FAIL'}")
        return "\n".join(lines) + "\n"


def evaluate_check(
    name: str,
    equation: str,
    labeled_fields,
    points: np.ndarray,
    tolerance: float,
    informational: bool = False,
    terms: dict | None = None,
    flags: tuple[str, ...] = (),
) -> CheckResult:
    """The report row for labeled fields: their max absolute residual over
    the sampled points.  This is the only place a row is made from fields.

    ``terms`` maps a term label to its own labeled fields; the row reports
    the maximum of each term that has any, as a breakdown of the residual.
    """
    rows = list(labeled_fields)
    if terms is not None:
        terms = {label: rows_max(term_rows, points) for label, term_rows in terms.items() if term_rows}
    return _result(name, equation, rows_max(rows, points), len(points), len(rows), tolerance, informational, terms, flags)


def rows_max(labeled_fields, points: np.ndarray) -> float:
    """Largest |f| over the sample for (label, field) rows."""
    return max_abs_fields([f for _, f in labeled_fields], points)


def delta_check(
    name: str,
    equation: str,
    delta: float,
    points: int,
    tolerance: float,
    informational: bool = False,
    flags: tuple[str, ...] = (),
) -> CheckResult:
    return _result(name, equation, delta, points, 1, tolerance, informational, None, flags)


def _result(name, equation, residual, n_points, n_tuples, tolerance, informational, terms, flags) -> CheckResult:
    # NaN compares false with everything, so a non-finite residual is tested
    # explicitly: it fails the row and is flagged, never passed
    finite = math.isfinite(residual)
    return CheckResult(
        name=name,
        equation=equation,
        max_residual=float(residual),
        n_points=n_points,
        n_tuples=n_tuples,
        tolerance=tolerance,
        passed=finite and residual < tolerance,
        informational=informational,
        terms=terms,
        flags=flags if finite else flags + ("non-finite",),
    )


# Names of every check the suites can emit; the coverage test keeps the
# fixture set honest against this list.
CHECK_REGISTRY: tuple[str, ...] = (
    "axioms/anchor-morphism",
    "axioms/jacobi-cyclic",
    "axioms/jacobi-anchored",
    "axioms/q-squared",
    "axioms/q-verdict-agreement",
    "momentum/pre-symplectic-closed",
    "momentum/h1-anchoring",
    "momentum/h2-momentum-section",
    "momentum/h3-bracket-compat",
    "momentum/tangent-two-form-compat",
    "momentum/h1-tangent-agreement",
    "momentum/map-symplectic-vectorfield",
    "momentum/map-hamiltonian-pairing",
    "momentum/map-equivariance",
    "momentum/map-reduction-agreement",
    "mechanics/metric-conditioning",
    "mechanics/constraint-irreducibility",
    "mechanics/first-class",
    "mechanics/flow",
    "mechanics/twist-closed",
    "mechanics/tau-prime",
    "mechanics/first-class-twisted",
    "mechanics/flow-twisted",
    "mechanics/flow-deg1-vs-h2",
    "mechanics/firstclass-deg0-vs-h3",
    "mechanics/theorem-h1",
    "mechanics/theorem-h2",
    "mechanics/theorem-h3",
    "sigma2d/rigid-killing-metric",
    "sigma2d/rigid-b-invariance",
    "sigma2d/rigid-anchor-morphism",
    "sigma2d/gauged-metric-compat",
    "sigma2d/gauged-anchor-morphism",
    "sigma2d/bdry-pairing",
    "sigma2d/bdry-eta-compat",
    "sigma2d/bdry-mu-equivariance",
    "sigma2d/theorem-h2-agreement",
    "sigma2d/theorem-h3-agreement",
    "sigma2d/theorem-consistency",
    "sigma2d/theorem-h1",
    "multisym/pre-nplectic-closed",
    "multisym/descent-pairing",
    "multisym/descent-symmetry",
    "multisym/hm2-momentum-section",
    "multisym/hm1-anchoring",
    "multisym/hm3-diff",
    "multisym/hm3-rewrite",
    "multisym/lie-specialize-agreement",
    "multisym/n1-reduction-agreement",
)


def registry_base_name(name: str) -> str:
    """Strip a [k=...] style suffix so parametrized rows match the registry."""
    return name.split("[")[0]
