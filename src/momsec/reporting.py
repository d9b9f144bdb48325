"""Check results, report assembly and rendering.

Reports are deterministic for a fixed (model bytes, seed, point count):
check rows appear in the fixed order the suites make them, which is not
always registry order (mechanics makes theorem-h1..h3 before
flow-deg1-vs-h2 and firstclass-deg0-vs-h3, and multisym makes the
descent rows k by k), floats are rendered with Python's shortest
round-trip repr, and JSON keys are sorted.  ``CheckReport.to_json``
writes the bytes ``json.dumps(payload, sort_keys=True, indent=2)`` would,
and a newline, but fills one template per check row, with strings
through json's own C encoder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from operator import attrgetter


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
        """The report as ``json.dumps(payload, sort_keys=True, indent=2)``
        writes it, with a newline: each check row from one template."""
        rows = ",\n    ".join([_ROW % tuple(map(_json, _ROW_VALUES(c))) for c in self.checks])
        return _REPORT % (
            f"[\n    {rows}\n  ]" if rows else "[]",
            _json(self.model_hash),
            _json(self.overall_pass),
            _json(self.points),
            _json(self.seed),
            _json(self.suites, "\n  "),
            _json(self.tolerance),
            _json(self.verdicts, "\n  "),
        )

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


# the keys of a check row, and the report's in its template, sorted as json writes them
_ROW_KEYS = (
    "equation", "flags", "informational", "max_residual", "n_points", "n_tuples", "name", "passed", "terms", "tolerance"
)
_ROW_VALUES = attrgetter(*_ROW_KEYS)
_ROW = "{\n" + ",\n".join(f'      "{key}": %s' for key in _ROW_KEYS) + "\n    }"
_REPORT = (
    '{\n  "checks": %s,\n  "model_hash": %s,\n  "overall_pass": %s,\n  "points": %s,\n  "schema": 1,\n'
    '  "seed": %s,\n  "suites": %s,\n  "tolerance": %s,\n  "verdicts": %s\n}\n'
)


def _json(value, indent: str = "\n      ") -> str:
    """``value`` as ``json.dumps(..., sort_keys=True, indent=2)`` writes it
    where ``indent``, a line break and the indentation, starts its lines:
    strings through json's own ASCII encoder, floats by ``float.__repr__``
    with json's spellings of NaN and the infinities."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == math.inf:
            return "Infinity"
        if value == -math.inf:
            return "-Infinity"
        return float.__repr__(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join([_json(x, inner) for x in value]) + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [encode_basestring_ascii(k) + ": " + _json(x, inner) for k, x in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


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
