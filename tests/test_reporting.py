"""The JSON renderer: ``CheckReport.to_json`` writes, byte for byte, what
the standard library writes for the report's payload, on the fixtures'
reports and on rows made to reach every branch of the renderer."""

import dataclasses
import json
import math

import pytest

from momsec import reporting
from momsec.fixtures import fixture_bytes, fixture_names
from momsec.modelfile import load_model_bytes
from momsec.reporting import CheckReport, CheckResult
from momsec.suites import RunConfig, run


def _reference(report: CheckReport) -> str:
    """The report as the standard library's encoder writes it."""
    payload = {
        "schema": 1,
        "model_hash": report.model_hash,
        "seed": report.seed,
        "points": report.points,
        "tolerance": report.tolerance,
        "suites": report.suites,
        "overall_pass": report.overall_pass,
        "verdicts": report.verdicts,
        "checks": [vars(c) for c in report.checks],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _row(name="suite/row", residual=0.0, **changes) -> CheckResult:
    row = CheckResult(
        name=name, equation="a = b", max_residual=residual, n_points=32, n_tuples=3, tolerance=1e-9, passed=True
    )
    return dataclasses.replace(row, **changes)


def _report(rows, **changes) -> CheckReport:
    report = CheckReport(model_hash="ab" * 32, seed=42, points=32, tolerance=1e-9, suites=["axioms", "momentum"])
    for row in rows:
        report.add(row)
    report.verdicts.update(changes.pop("verdicts", {"algebroid_class": "Lie algebroid"}))
    return dataclasses.replace(report, **changes) if changes else report


ROWS = {
    "numbers": [
        _row("a", math.nan, passed=False, flags=("non-finite",)),
        _row("b", math.inf, passed=False),
        _row("c", -math.inf),
        _row("d", -0.0),
        _row("e", 5e-324),
        _row("f", 1e300, tolerance=0.5),
        _row("g", 0.1 + 0.2, n_tuples=0),
    ],
    "text": [
        _row(equation='say "d_E mu" \\ done', flags=('a "quoted" flag', "tab\there")),
        _row(equation="μ_a + η_i ρ^i_a = 0", flags=("été", "\U0001d53c-valued", "")),
        _row(name="\x00\x1f\x7f"),
        _row(flags=("",)),
    ],
    "terms": [
        _row(terms=None),
        _row(terms={}),
        _row(terms={"degree 1": 0.5, "degree 0": math.nan, "é": -math.inf, "b": -0.0}),
        _row(informational=True, passed=False, terms={"degree 2": 1e-17}),
        _row(terms={"degree 0": math.nan}),
    ],
    # each row's fixed fields are rendered once into a template that rows
    # with equal fields share: equal tolerances of two types, or two
    # spellings of zero, must not share one, and a % in the fixed text
    # must not read as a placeholder
    "templates": [
        _row("t", tolerance=1),
        _row("t", tolerance=1.0),
        _row("t", tolerance=1),
        _row("u", tolerance=2.0),
        _row("u", tolerance=2),
        _row("z", tolerance=0.0),
        _row("z", tolerance=-0.0),
        _row("z", tolerance=0),
        _row("100% sure", equation="x %s %d %% %(a)s = 0"),
        _row("%", equation="%", flags=("50%",), terms={"%s": 0.5}),
        _row("%", math.nan, passed=False, flags=("non-finite",), terms={"a": math.nan, "b": math.inf}),
        _row("%", math.inf, passed=False, flags=("non-finite", "%d"), terms={"c": -math.inf}),
        _row("%", -math.inf, passed=False, flags=("non-finite",)),
    ],
    "none": [],
}


@pytest.mark.parametrize("rows", ROWS.values(), ids=ROWS)
def test_to_json_writes_what_the_standard_encoder_writes(rows):
    report = _report(rows)
    assert report.to_json() == _reference(report)


@pytest.mark.parametrize(
    "changes",
    [
        {"tolerance": 1},
        {"tolerance": math.inf},
        {"suites": []},
        {"verdicts": {}},
        {"verdicts": {"z": "✓ pass", "a": "neither"}},
        {"model_hash": "ü"},
    ],
)
def test_to_json_writes_every_report_field_as_the_standard_encoder(changes):
    report = _report(ROWS["terms"], **changes)
    assert report.to_json() == _reference(report)


@pytest.mark.parametrize("name", fixture_names())
def test_to_json_of_a_fixture_report_is_the_standard_encoding(name):
    model = load_model_bytes(fixture_bytes(name))
    report = run(model, "all", RunConfig(tolerance=model.tolerance, points=9, seed=3))
    assert report.to_json() == _reference(report)


def test_to_json_writes_int_row_tolerances_as_the_standard_encoder():
    report = run(load_model_bytes(fixture_bytes(fixture_names()[0])), "all", RunConfig(tolerance=1, points=9, seed=3))
    assert any(type(c.tolerance) is int for c in report.checks)
    assert report.to_json() == _reference(report)


def test_the_row_template_names_every_field_of_a_check_result():
    # a field added to CheckResult must be added to the template too
    assert list(reporting._ROW_KEYS) == sorted(f.name for f in dataclasses.fields(CheckResult))


def test_a_rendered_report_renders_again_from_its_row_templates():
    # rendering a report makes the templates of its rows; rendering it, or
    # one with other residuals on the same rows, again makes none
    model = load_model_bytes(fixture_bytes("so3_action_algebroid"))
    first = run(model, "all", RunConfig(tolerance=model.tolerance, points=9, seed=3))
    first.to_json()
    made = reporting._template.cache_info().misses
    second = run(model, "all", RunConfig(tolerance=model.tolerance, points=9, seed=4))
    assert second.to_json() == _reference(second) != first.to_json()
    assert reporting._template.cache_info().misses == made
