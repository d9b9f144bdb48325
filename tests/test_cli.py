import json
import warnings

import numpy as np
import pytest

from conftest import CHECK_REGISTRY, run_plan_of
from momsec import fields, suites
from momsec.cli import main
from momsec.fixtures import fixture_bytes, fixture_names
from momsec.modelfile import load_model
from momsec.suites import RunConfig, SuiteError, resolve_suites, run


@pytest.fixture()
def rotation_path(tmp_path):
    path = tmp_path / "rotation.json"
    path.write_bytes(fixture_bytes("rotation_momentum_map"))
    return str(path)


@pytest.fixture()
def translation_path(tmp_path):
    path = tmp_path / "translation.json"
    path.write_bytes(fixture_bytes("translation_nonequivariant"))
    return str(path)


class TestExamplesCommand:
    def test_list(self, capsys):
        assert main(["examples", "list"]) == 0
        out = capsys.readouterr().out.split()
        assert sorted(out) == sorted(fixture_names())

    def test_emit_byte_exact(self, tmp_path):
        target = tmp_path / "model.json"
        assert main(["examples", "emit", "so3_action_algebroid", str(target)]) == 0
        assert target.read_bytes() == fixture_bytes("so3_action_algebroid")

    def test_emit_unknown_name(self, tmp_path, capsys):
        assert main(["examples", "emit", "nope", str(tmp_path / "x.json")]) == 2
        assert "unknown example" in capsys.readouterr().err

    def test_emit_unwritable_path(self, tmp_path, capsys):
        # the parent of the target is a regular file, so the write fails
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code = main(["examples", "emit", "broken_jacobi", str(blocker / "x.json")])
        assert code == 2
        assert "cannot write" in capsys.readouterr().err


class TestCheckCommand:
    def test_rotation_momentum_passes(self, rotation_path, capsys):
        assert main(["check", rotation_path, "--suite", "momentum"]) == 0
        out = capsys.readouterr().out
        assert "Hamiltonian" in out

    def test_translation_momentum_fails(self, translation_path, capsys):
        assert main(["check", translation_path, "--suite", "momentum"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_broken_jacobi_axioms_fail(self, tmp_path, capsys):
        path = tmp_path / "bj.json"
        path.write_bytes(fixture_bytes("broken_jacobi"))
        assert main(["check", str(path), "--suite", "axioms"]) == 1
        assert "neither" in capsys.readouterr().out

    def test_json_deterministic(self, translation_path, capsys):
        main(["check", translation_path, "--format", "json"])
        first = capsys.readouterr().out
        main(["check", translation_path, "--format", "json"])
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["schema"] == 1
        assert payload["overall_pass"] is False

    def test_missing_block_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "so3.json"
        path.write_bytes(fixture_bytes("so3_action_algebroid"))
        assert main(["check", str(path), "--suite", "mechanics"]) == 2
        assert "metric" in capsys.readouterr().err

    def test_multisym_requires_block(self, tmp_path, capsys):
        path = tmp_path / "so3.json"
        path.write_bytes(fixture_bytes("so3_action_algebroid"))
        assert main(["check", str(path), "--suite", "multisym"]) == 2
        assert "multisym" in capsys.readouterr().err

    def test_invalid_model_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": 1}')
        assert main(["check", str(path)]) == 2
        assert "invalid model" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent/model.json"]) == 2

    def test_flag_overrides(self, rotation_path, capsys):
        assert main(["check", rotation_path, "--points", "5", "--seed", "7", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["points"] == 5
        assert payload["seed"] == 7

    def test_consecutive_calls_leak_no_options(self, rotation_path, capsys):
        # one parser serves every call in a process
        assert main(["check", rotation_path, "--format", "json", "--seed", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 3
        assert main(["check", rotation_path]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first.startswith("model ") and " seed=42 points=32 " in first

    def test_require_h1_flag(self, rotation_path, capsys):
        assert main(["check", rotation_path, "--require-h1", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        h1 = [c for c in payload["checks"] if c["name"] == "momentum/h1-anchoring"]
        assert h1 and h1[0]["informational"] is False

    def test_bad_tol(self, rotation_path, capsys):
        assert main(["check", rotation_path, "--tol", "-1"]) == 2

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_nonfinite_tol_is_usage_error(self, translation_path, capsys, tol):
        # an infinite tolerance would pass the failing bracket-compatibility row
        assert main(["check", translation_path, "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--tol" in captured.err

    def test_unallocatable_point_count_is_usage_error(self, rotation_path, capsys):
        # numpy refuses a sample of 10**15 points before allocating any of
        # it; that is no failed check, so it exits 2 with one line, not 1
        # with a traceback
        points = 10**15
        assert main(["check", rotation_path, "--points", str(points)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert f"{points} points" in captured.err

    def test_infinite_model_tolerance_is_usage_error(self, tmp_path, capsys):
        doc = json.loads(fixture_bytes("translation_nonequivariant"))
        doc["tolerances"] = {"default": 0.5}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc).replace('"default": 0.5', '"default": 1e400'))
        assert main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tolerances.default" in captured.err

    @pytest.mark.parametrize(
        "name, old, new, key",
        [
            # a second "mu" would replace the block, and the verdict would
            # go from weakly Hamiltonian to none
            ("translation_nonequivariant", '\n  "schema": 1\n}', '\n  "schema": 1,\n  "mu": []\n}', "key 'mu'"),
            # "01" would read as degree 1 and replace the "1" block, and the
            # verdict would go from Hamiltonian to none
            ("plectic2_flux_model", '\n    },\n    "h": [', ',\n      "01": []\n    },\n    "h": [', "multisym.eta[01]"),
        ],
        ids=["repeated-key", "second-degree-key"],
    )
    def test_key_that_would_replace_a_block_is_usage_error(self, tmp_path, capsys, name, old, new, key):
        text = fixture_bytes(name).decode()
        assert text.count(old) == 1
        path = tmp_path / "model.json"
        path.write_text(text.replace(old, new))
        assert main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid model" in captured.err and key in captured.err

    def test_usage_error(self, rotation_path, capsys):
        assert main(["check"]) == 2
        capsys.readouterr()
        # a negative seed is rejected as sampling.seed is, not by numpy
        assert main(["check", rotation_path, "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "--seed" in captured.err


class TestSeedSensitivity:
    def test_seed_changes_points_not_verdicts(self, fixture_models):
        model = fixture_models["rotation_momentum_map"]
        rep1 = run(model, "momentum", RunConfig(points=16, seed=1))
        rep2 = run(model, "momentum", RunConfig(points=16, seed=2))
        assert rep1.overall_pass and rep2.overall_pass


class TestRegistryCoverage:
    def test_every_check_exercised_by_fixtures(self, fixture_models):
        seen = set()
        for name, model in fixture_models.items():
            rep = run(model, "all")
            for check in rep.checks:
                base = check.name.split("[")[0]
                assert base in CHECK_REGISTRY, f"{check.name} not registered"
                seen.add(base)
        missing = set(CHECK_REGISTRY) - seen
        assert not missing, f"registered checks never exercised: {sorted(missing)}"

    def test_resolve_suites(self, fixture_models):
        so3 = fixture_models["so3_action_algebroid"]
        assert resolve_suites(so3, "all") == ["axioms", "momentum"]
        with pytest.raises(SuiteError):
            resolve_suites(so3, "sigma2d")
        with pytest.raises(SuiteError):
            resolve_suites(so3, "bogus")


def _rotation_with(tmp_path, **blocks):
    doc = json.loads(fixture_bytes("rotation_momentum_map"))
    doc.update(blocks)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _magnetic_with(tmp_path, block: str, expr: str) -> str:
    """magnetic_twist_mechanics with entry (1, 1) of its ``"anchor"`` or
    ``"metric"`` block set to ``expr``."""
    doc = json.loads(fixture_bytes("magnetic_twist_mechanics"))
    entries = doc["algebroid"]["anchor"] if block == "anchor" else doc["metric"]
    next(e for e in entries if e["idx"] == [1, 1])["expr"] = expr
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestEvaluationFailures:
    def test_nonfinite_residual_fails(self, tmp_path, capsys):
        # 1/1e-320 overflows to inf; its gradient is NaN
        path = _rotation_with(tmp_path, mu=[{"idx": [1], "expr": "1/(x-x+1e-320)"}])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["check", path, "--format", "json"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        rows = {c["name"]: c for c in json.loads(captured.out)["checks"]}
        h2 = rows["momentum/h2-momentum-section"]
        assert h2["passed"] is False
        assert "non-finite" in h2["flags"]

    def test_overflow_is_nonfinite_failure(self, tmp_path, capsys):
        path = _rotation_with(tmp_path, mu=[{"idx": [1], "expr": "exp(1000*x)"}])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["check", path, "--format", "json"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        failed = [c for c in json.loads(captured.out)["checks"] if "non-finite" in c["flags"]]
        assert failed and not any(c["passed"] for c in failed)

    def test_coordinate_free_overflow_is_nonfinite_failure(self, tmp_path, capsys):
        # exp(1000) is a number fixed at load, inf, with no warning there
        path = _rotation_with(tmp_path, mu=[{"idx": [1], "expr": "exp(1000)*x"}])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["check", path, "--format", "json"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        h2 = next(c for c in json.loads(captured.out)["checks"] if c["name"] == "momentum/h2-momentum-section")
        assert h2["passed"] is False and "non-finite" in h2["flags"]

    def test_too_deep_expression_is_usage_error(self, tmp_path, capsys):
        # evaluating a 3,000-term chain would recurse once per operator
        path = _rotation_with(tmp_path, mu=[{"idx": [1], "expr": "+".join(["x"] * 3000)}])
        assert main(["check", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: invalid model: mu[0].expr: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "shape",
        [
            lambda n: "(" * (n - 1) + "x" + ")" * (n - 1),
            lambda n: "-" * (n - 1) + "x",
            lambda n: "sin(" * (n - 1) + "x" + ")" * (n - 1),
        ],
        ids=["parens", "signs", "calls"],
    )
    def test_depth_limit_alone_decides_from_a_deep_caller(self, tmp_path, capsys, shape):
        # the parser keeps its own stack and builds each node as it
        # closes, so a caller already 500 frames deep loads 100 levels
        def at_depth(frames, path):
            return main(["check", path]) if frames == 0 else at_depth(frames - 1, path)

        deepest = _rotation_with(tmp_path, mu=[{"idx": [1], "expr": shape(100)}])
        assert at_depth(500, deepest) in (0, 1)
        assert "Traceback" not in capsys.readouterr().err
        too_deep = _rotation_with(tmp_path, mu=[{"idx": [1], "expr": shape(101)}])
        assert at_depth(500, too_deep) == 2
        assert "nested more than 100 levels deep" in capsys.readouterr().err

    def test_number_exponent_domain_error_is_usage_error(self, tmp_path, capsys):
        # an exponent without a coordinate is evaluated once, at load
        path = _rotation_with(tmp_path, mu=[{"idx": [1], "expr": "x^(1/0)"}])
        assert main(["check", path]) == 2
        assert capsys.readouterr().err == (
            "error: invalid model: mu[0].expr: bad expression: division by zero in '1.0 / 0.0'\n"
        )

    def test_coordinate_free_domain_error_is_usage_error(self, tmp_path, capsys):
        # a subexpression without a coordinate is a number fixed at load
        path = _rotation_with(tmp_path, mu=[{"idx": [1], "expr": "log(-1)*x"}])
        assert main(["check", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: invalid model: mu[0].expr: bad expression: log of a non-positive value in 'log(-1.0)'\n"
        )

    def test_domain_error_exit_code(self, tmp_path, capsys):
        # the box crosses x = 0, so log leaves its domain on the sample
        path = _rotation_with(tmp_path, mu=[{"idx": [1], "expr": "log(x)"}])
        assert main(["check", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "log(x)" in captured.err
        assert "Traceback" not in captured.err
        # the message names the first sample point where x <= 0
        model = load_model(path)
        points = model.chart.sample(model.sampling.points, model.sampling.seed)
        first = int(np.argmax(points[:, 0] <= 0.0))
        assert captured.err.rstrip().endswith(f"at sample point {first}")

    def test_domain_error_past_the_first_chunk(self, tmp_path, capsys, monkeypatch):
        # log(c - x) leaves its domain only at points after the first chunk
        # of 7; the message gives the index in the whole sample
        model = load_model(_rotation_with(tmp_path))
        x = model.chart.sample(model.sampling.points, model.sampling.seed)[:, 0]
        c = float(x[7:].max())
        assert c > x[:7].max()
        path = _rotation_with(tmp_path, mu=[{"idx": [1], "expr": f"log({c!r} - x)"}])
        model = load_model(path)
        with pytest.raises(ValueError):
            run(model, "all")
        _, program = run_plan_of(model)
        errors = []
        for budget in (7 * program.bytes_per_point, 1 << 60):
            monkeypatch.setattr(suites, "CHUNK_BYTES", budget)
            assert main(["check", path]) == 3
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].rstrip().endswith(f"at sample point {int(np.argmax(x >= c))}")

    def test_singular_metric_exit_code(self, tmp_path, capsys):
        metric = [{"idx": [1, 1], "expr": "1"}, {"idx": [2, 2], "expr": "0"}]
        path = _rotation_with(tmp_path, metric=metric)
        assert main(["check", path, "--suite", "mechanics"]) == 3
        assert "Singular matrix" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "block, expr, row",
        [
            # NaN where exp overflows, for x > 0.71, and 0 elsewhere
            ("anchor", "exp(1000*x) - exp(1000*x)", "mechanics/constraint-irreducibility"),
            # NaN where exp overflows and 1 elsewhere, so never a finite singular metric
            ("metric", "exp(1000*x) - exp(1000*x) + 1", "mechanics/metric-conditioning"),
        ],
    )
    def test_nonfinite_matrix_entry_fails_rows(self, tmp_path, capsys, block, expr, row):
        path = _magnetic_with(tmp_path, block, expr)
        code = main(["check", path, "--format", "json"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        rows = {c["name"]: c for c in json.loads(captured.out)["checks"]}
        assert rows[row]["passed"] is False
        assert "non-finite" in rows[row]["flags"]

    def test_a_metric_with_an_off_diagonal_entry_takes_the_dense_path(self, tmp_path, capsys, monkeypatch):
        # every model in the repo has a diagonal metric; this one keeps the
        # dense inverse and the SVD condition number in a full run
        doc = json.loads(fixture_bytes("magnetic_twist_mechanics"))
        doc["metric"] = [{"idx": [1, 1], "expr": "2"}, {"idx": [1, 2], "expr": "0.5"}, {"idx": [2, 2], "expr": "1"}]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert load_model(str(path)).metric.inverse()[0][0].core.diagonal is None
        calls = []
        dense = fields._MatrixInverse.values
        monkeypatch.setattr(fields._MatrixInverse, "values", lambda core, *a: calls.append(core) or dense(core, *a))
        assert main(["check", str(path), "--suite", "mechanics", "--format", "json"]) in (0, 1)
        rows = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        assert calls
        cond = np.linalg.cond(np.array([[2.0, 0.5], [0.5, 1.0]]))
        assert rows["mechanics/metric-conditioning"]["max_residual"] == cond
        assert rows["mechanics/flow"]["n_tuples"] > 0
        assert all(np.isfinite(row["max_residual"]) for row in rows.values())

    def test_underflowed_metric_entry_is_singular(self, tmp_path, capsys, monkeypatch):
        # exp(1000*x) is inf for x > 0.71 and exactly 0 for x < -0.75, where
        # the metric is a finite singular matrix; the message gives the
        # first such point by its index in the whole sample, in one chunk
        # and in chunks of 7.  The late form exp(1000*(c - x)) mirrors
        # that, and c puts every singular point after the first chunk
        model = load_model(_magnetic_with(tmp_path, "metric", "1"))
        x = model.chart.sample(model.sampling.points, model.sampling.seed)[:, 0]
        c = float(x[:7].max()) + 0.1 - 0.745
        for late in (False, True):
            expr = f"exp(1000*({c!r} - x))" if late else "exp(1000*x)"
            path = _magnetic_with(tmp_path, "metric", expr)
            with np.errstate(over="ignore"):
                underflowed = np.exp(1000 * (c - x) if late else 1000 * x) == 0.0
            singular = int(np.argmax(underflowed))
            assert underflowed[singular] and (singular >= 7) == late
            model = load_model(path)
            with pytest.raises(np.linalg.LinAlgError):
                run(model, "mechanics")
            _, program = run_plan_of(model, "mechanics")
            for budget in (7 * program.bytes_per_point, 1 << 60):
                monkeypatch.setattr(suites, "CHUNK_BYTES", budget)
                assert main(["check", path, "--suite", "mechanics"]) == 3
                err = capsys.readouterr().err
                assert "Singular matrix" in err
                assert err.rstrip().endswith(f"at sample point {singular}")
