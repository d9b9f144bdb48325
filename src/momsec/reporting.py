"""Check results, report assembly and rendering.

Reports are deterministic for a fixed (model bytes, seed, point count):
check rows appear in the fixed order the suites make them, which is not
always registry order (mechanics makes theorem-h1..h3 before
flow-deg1-vs-h2 and firstclass-deg0-vs-h3, and multisym makes the
descent rows k by k), floats are rendered with Python's shortest
round-trip repr, and JSON keys are sorted.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field


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
            "checks": [vars(c) for c in self.checks],
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
