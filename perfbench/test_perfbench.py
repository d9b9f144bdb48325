"""Fast checks of the benchmark itself; no timing gates.

    python3 -m pytest perfbench/test_perfbench.py -q -p no:cacheprovider

Runs two one-second benchmark runs, so it must not run while another
benchmark run uses the same checkout.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import calibration  # noqa: E402
import models  # noqa: E402
import oracle  # noqa: E402
from momsec import RunConfig, load_model_bytes, run  # noqa: E402
from momsec.fixtures import fixture_bytes  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args], cwd=ROOT, capture_output=True, text=True, timeout=170
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_output_schema(trace, key):
    out = bench("--workload", "fixtures", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    assert {name: m["unit"] for name, m in out["metrics"].items()} == want
    for m in out["metrics"].values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])


def _shape(raw: bytes) -> str:
    return re.sub(r"[-+]?\s*\d+\.\d+", "#", raw.decode())


@pytest.mark.parametrize("n", [3, 4])
def test_generator_is_valid_and_seed_only_moves_coefficients(n):
    a, b = models.son_model_bytes(n, 1), models.son_model_bytes(n, 2)
    assert a == models.son_model_bytes(n, 1)
    assert a != b and _shape(a) == _shape(b)
    report = run(load_model_bytes(a), "axioms", RunConfig(points=4, seed=5))
    assert report.verdicts["algebroid_class"] == "Lie algebroid"
    assert all(c.passed for c in report.checks)


def test_generator_refuses_the_opposite_bracket_sign(monkeypatch):
    flipped = {k: -v for k, v in models.structure_constants(3).items()}
    monkeypatch.setattr(models, "structure_constants", lambda n: flipped)
    with pytest.raises(models.GeneratorError, match="anchor-morphism"):
        models.son_model_bytes(3, 1)


def _fixture_report(name="translation_nonequivariant", seed=7):
    raw = fixture_bytes(name)
    text = run(load_model_bytes(raw), "all", RunConfig(points=32, seed=seed)).to_json()
    suites = ["axioms", "momentum", "mechanics", "sigma2d", "multisym"]
    return json.loads(text), raw, suites


def test_oracle_accepts_the_real_report():
    report, raw, suites = _fixture_report()
    assert oracle.check_report(report, "translation_nonequivariant", raw, 7, 32, suites) == []


def test_oracle_rejects_a_flipped_verdict():
    report, raw, suites = _fixture_report()
    report["verdicts"]["momentum_classification"] = "Hamiltonian"
    assert oracle.check_report(report, "translation_nonequivariant", raw, 7, 32, suites)


def test_oracle_rejects_a_nan_residual():
    report, raw, suites = _fixture_report("rotation_momentum_map")
    report["checks"][0]["max_residual"] = float("nan")
    text = json.dumps(report)  # written as NaN, as json.dumps does
    doctored = json.loads(text)
    problems = oracle.check_report(doctored, "rotation_momentum_map", raw, 7, 32, suites)
    assert any("non-finite" in p for p in problems)


def test_oracle_rejects_a_flipped_row_and_a_wrong_exit_code():
    report, raw, suites = _fixture_report()
    row = next(c for c in report["checks"] if c["name"] == "momentum/h3-bracket-compat")
    row["max_residual"], row["passed"] = 0.0, True
    assert oracle.check_report(report, "translation_nonequivariant", raw, 7, 32, suites)
    assert oracle.check_exit_code({"overall_pass": False}, 0)
    assert oracle.check_exit_code({"overall_pass": True}, 0) == []


def test_oracle_rejects_a_failing_son_axiom_row():
    raw = models.son_model_bytes(3, 1)
    report = json.loads(run(load_model_bytes(raw), "axioms", RunConfig(points=4, seed=5)).to_json())
    assert oracle.check_report(report, "so3", raw, 5, 4, ["axioms"]) == []
    report["verdicts"]["algebroid_class"] = "neither"
    assert oracle.check_report(report, "so3", raw, 5, 4, ["axioms"])


def test_calibration_scales_wall_time_by_the_chunks_around_it():
    # chunks at 0.0, 0.1, ..., 0.9 s; the slow ones (2 * REF_S) fall in [0.3, 0.6]
    samples = [(k / 10, calibration.REF_S * (2 if 3 <= k <= 6 else 1)) for k in range(10)]
    cal = calibration.Calibration(samples)
    assert cal.ref(0.35, 0.55) == pytest.approx(2 * calibration.REF_S)  # 0.3 to 0.6: all slow
    assert cal.seconds(0.35, 0.55) == pytest.approx(0.1)
    assert cal.setup_seconds(0.35, 0.55) == pytest.approx(0.2 * 0.5**0.5)
    assert cal.ref(0.95, 2.0) == pytest.approx(calibration.REF_S)  # past the end: the last chunk
    sampler = calibration.Sampler().start()
    time.sleep(5 * calibration.PERIOD_S)
    assert len(sampler.stop()) >= 2


def test_recurrence_check_requires_identical_bytes():
    recur = oracle.RecurrenceCheck()
    assert recur.check(("m", 1, 32), "a") == []
    assert recur.check(("m", 1, 32), "a") == []
    assert recur.check(("m", 1, 32), "b")
    assert recur.recurrences == 2


def test_no_result_without_sources():
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench" / f.name)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fixtures", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0 and proc.stdout == ""
