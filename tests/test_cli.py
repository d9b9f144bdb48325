import json
import warnings

import pytest

from momsec.cli import main
from momsec.fixtures import fixture_bytes, fixture_names
from momsec.reporting import CHECK_REGISTRY, registry_base_name
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

    def test_infinite_model_tolerance_is_usage_error(self, tmp_path, capsys):
        doc = json.loads(fixture_bytes("translation_nonequivariant"))
        doc["tolerances"] = {"default": 0.5}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc).replace('"default": 0.5', '"default": 1e400'))
        assert main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tolerances.default" in captured.err

    def test_usage_error(self, capsys):
        assert main(["check"]) == 2


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
                base = registry_base_name(check.name)
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

    def test_domain_error_exit_code(self, tmp_path, capsys):
        # the box crosses x = 0, so log leaves its domain on the sample
        path = _rotation_with(tmp_path, mu=[{"idx": [1], "expr": "log(x)"}])
        assert main(["check", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "log(x)" in captured.err
        assert "Traceback" not in captured.err

    def test_singular_metric_exit_code(self, tmp_path, capsys):
        metric = [{"idx": [1, 1], "expr": "1"}, {"idx": [2, 2], "expr": "0"}]
        path = _rotation_with(tmp_path, metric=metric)
        assert main(["check", path, "--suite", "mechanics"]) == 3
        assert "Singular matrix" in capsys.readouterr().err
