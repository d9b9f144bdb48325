import json

import pytest

from momsec.fixtures import FIXTURE_SUITES
from momsec.modelfile import load_model_bytes
from momsec.suites import RunConfig, applicable_suites, run

# (fixture, suite) -> expected overall pass
EXPECTED = {
    ("rotation_momentum_map", "axioms"): True,
    ("rotation_momentum_map", "momentum"): True,
    ("rotation_momentum_map", "sigma2d"): True,
    ("rotation_momentum_map", "multisym"): True,
    ("translation_nonequivariant", "axioms"): True,
    ("translation_nonequivariant", "momentum"): False,
    ("translation_nonequivariant", "sigma2d"): False,
    ("translation_nonequivariant", "multisym"): False,
    ("so3_action_algebroid", "axioms"): True,
    ("magnetic_twist_mechanics", "axioms"): True,
    ("magnetic_twist_mechanics", "mechanics"): True,
    ("plectic2_flux_model", "axioms"): True,
    ("plectic2_flux_model", "multisym"): True,
    ("broken_jacobi", "axioms"): False,
}


class TestFixtureMatrix:
    @pytest.mark.parametrize("name,suite", sorted(EXPECTED))
    def test_expected_outcomes(self, fixture_models, name, suite):
        rep = run(fixture_models[name], suite)
        assert rep.overall_pass == EXPECTED[(name, suite)]

    def test_fixture_suites_registry(self, fixture_models):
        for name, suites in FIXTURE_SUITES.items():
            assert set(suites) <= set(applicable_suites(fixture_models[name]))

    def test_broken_jacobi_verdict(self, fixture_models):
        rep = run(fixture_models["broken_jacobi"], "axioms")
        assert rep.verdicts["algebroid_class"] == "neither"
        assert rep.find("axioms/jacobi-cyclic").max_residual == pytest.approx(2.0)

    def test_translation_failure_magnitudes_agree(self, fixture_models):
        model = fixture_models["translation_nonequivariant"]
        momentum = run(model, "momentum")
        sigma = run(model, "sigma2d")
        multis = run(model, "multisym")
        h3 = momentum.find("momentum/h3-bracket-compat").max_residual
        p3 = sigma.find("sigma2d/bdry-mu-equivariance").max_residual
        hm3 = multis.find("multisym/hm3-diff[k=0]").max_residual
        eq = momentum.find("momentum/map-equivariance").max_residual
        assert h3 == pytest.approx(1.0, abs=1e-12)
        assert abs(h3 - p3) < 1e-12
        assert abs(h3 - hm3) < 1e-12
        assert abs(h3 - eq) < 1e-12

    def test_rotation_verdicts(self, fixture_models):
        rep = run(fixture_models["rotation_momentum_map"], "all")
        assert rep.verdicts["algebroid_class"] == "Lie algebroid"
        assert rep.verdicts["momentum_classification"] == "Hamiltonian"
        assert rep.verdicts["sigma2d_classification"] == "Hamiltonian"
        assert rep.verdicts["multisym_classification"] == "Hamiltonian"

    def test_magnetic_mechanics_rows(self, fixture_models):
        rep = run(fixture_models["magnetic_twist_mechanics"], "mechanics")
        assert rep.verdicts["mechanics_classification"] == "Hamiltonian"
        assert rep.find("mechanics/tau-prime").max_residual == 0.0
        assert rep.find("mechanics/flow-deg1-vs-h2").passed
        assert rep.find("mechanics/firstclass-deg0-vs-h3").passed
        assert rep.find("mechanics/twist-closed").passed


class TestConfigBehavior:
    def test_require_h1_changes_exit_semantics(self, fixture_models):
        model = fixture_models["rotation_momentum_map"]
        rep = run(model, "momentum", RunConfig(require_h1=True))
        assert rep.find("momentum/h1-anchoring").informational is False
        assert rep.overall_pass

    def test_require_h1_changes_only_the_anchoring_rows(self, fixture_models):
        anchoring = {
            "momentum/h1-anchoring",
            "mechanics/theorem-h1",
            "sigma2d/theorem-h1",
            "multisym/hm1-anchoring",
        }
        for name, model in sorted(fixture_models.items()):
            for suite in applicable_suites(model):
                cfg = dict(tolerance=model.tolerance, points=model.sampling.points, seed=model.sampling.seed)
                loose = json.loads(run(model, suite, RunConfig(**cfg)).to_json())
                strict = json.loads(run(model, suite, RunConfig(**cfg, require_h1=True)).to_json())
                del loose["overall_pass"], strict["overall_pass"]
                for row in strict["checks"]:
                    if row["name"] in anchoring:
                        assert row["informational"] is False, (name, row["name"])
                        row["informational"] = True
                assert strict == loose, (name, suite)

    def test_h3_sign_switch_selects_convention(self, fixture_models):
        model = fixture_models["translation_nonequivariant"]
        default = run(model, "momentum", RunConfig())
        flipped = run(model, "momentum", RunConfig(h3_sign=-1.0))
        assert default.find("momentum/h3-bracket-compat").max_residual == pytest.approx(1.0)
        assert flipped.find("momentum/h3-bracket-compat").max_residual == pytest.approx(3.0)

    def test_point_count_respected(self, fixture_models):
        rep = run(fixture_models["so3_action_algebroid"], "axioms", RunConfig(points=7, seed=3))
        assert all(c.n_points == 7 for c in rep.checks)


class TestEdgeBranches:
    def test_non_closed_b_flagged(self):
        doc = {
            "schema": 1,
            "chart": {"coordinates": ["x", "y", "z"], "box": [[-1, 1]] * 3},
            "algebroid": {"rank": 1, "anchor": [{"idx": [1, 3], "expr": "1"}]},
            "metric": [{"idx": [1, 1], "expr": "1"}, {"idx": [2, 2], "expr": "1"}, {"idx": [3, 3], "expr": "1"}],
            "b_field": [{"idx": [1, 2], "expr": "z"}],
        }
        model = load_model_bytes(json.dumps(doc).encode())
        rep = run(model, "momentum")
        closed = rep.find("momentum/pre-symplectic-closed")
        assert not closed.passed
        assert "not pre-symplectic" in closed.flags
        # the run still completes with residual rows
        assert rep.find("momentum/h2-momentum-section") is not None
        sig = run(model, "sigma2d")
        row = sig.find("sigma2d/rigid-b-invariance")
        assert "closedness" in " ".join(row.flags) or "beta_rigid" in " ".join(row.flags)

    def test_beta_rigid_override_used(self):
        doc = {
            "schema": 1,
            "chart": {"coordinates": ["x", "y"], "box": [[-1, 1]] * 2},
            "algebroid": {"rank": 1, "anchor": [{"idx": [1, 1], "expr": "-y"}, {"idx": [1, 2], "expr": "x"}]},
            "metric": [{"idx": [1, 1], "expr": "1"}, {"idx": [2, 2], "expr": "1"}],
            "b_field": [{"idx": [1, 2], "expr": "1"}],
            "beta_rigid": [{"idx": [1, 1], "expr": "-x"}, {"idx": [1, 2], "expr": "-y"}],
        }
        model = load_model_bytes(json.dumps(doc).encode())
        rep = run(model, "sigma2d")
        row = rep.find("sigma2d/rigid-b-invariance")
        assert row.flags == ()  # no default-candidate flag
        assert row.passed  # d(-x dx - y dy) = 0 = L_rho b

    def test_tau_prime_nonzero_verdict(self):
        doc = {
            "schema": 1,
            "chart": {"coordinates": ["x", "y"], "box": [[-1, 1]] * 2},
            "algebroid": {"rank": 1, "anchor": [{"idx": [1, 1], "expr": "1"}]},
            "metric": [{"idx": [1, 1], "expr": "1"}, {"idx": [2, 2], "expr": "1"}],
            "tau": [{"idx": [1, 1], "expr": "1"}],
        }
        model = load_model_bytes(json.dumps(doc).encode())
        rep = run(model, "mechanics")
        assert rep.verdicts["mechanics_classification"] == "generalized (tau' != 0)"
        th2 = rep.find("mechanics/theorem-h2")
        assert th2.informational
        assert any("tau'" in fl for fl in th2.flags)

    def test_momentum_map_rows_skipped_for_connection(self):
        doc = {
            "schema": 1,
            "chart": {"coordinates": ["x", "y"], "box": [[-1, 1]] * 2},
            "algebroid": {
                "rank": 1,
                "anchor": [{"idx": [1, 1], "expr": "1"}],
                "connection": [{"idx": [1, 1, 1], "expr": "x"}],
            },
        }
        model = load_model_bytes(json.dumps(doc).encode())
        rep = run(model, "momentum")
        with pytest.raises(KeyError):
            rep.find("momentum/map-symplectic-vectorfield")

    def test_momentum_map_rows_skipped_for_varying_structure(self):
        doc = {
            "schema": 1,
            "chart": {"coordinates": ["x", "y"], "box": [[-1, 1]] * 2},
            "algebroid": {
                "rank": 2,
                "anchor": [{"idx": [1, 1], "expr": "1"}],
                "structure": [{"idx": [1, 1, 2], "expr": "x"}],
            },
        }
        model = load_model_bytes(json.dumps(doc).encode())
        rep = run(model, "momentum")
        with pytest.raises(KeyError):
            rep.find("momentum/map-equivariance")

    def test_text_report_renders(self, fixture_models):
        rep = run(fixture_models["plectic2_flux_model"], "multisym")
        text = rep.to_text()
        assert "multisym/hm2-momentum-section" in text
        assert "overall:" in text

    def test_row_without_breakdown_has_null_terms(self, fixture_models):
        # rank 1: the first-class brackets have no residual monomials at all,
        # and hm3-diff[k=0] on the flux model has no term components
        mech = run(fixture_models["rotation_momentum_map"], "mechanics")
        assert mech.find("mechanics/first-class").terms is None
        assert mech.find("mechanics/first-class-twisted").terms is None
        flux = run(fixture_models["plectic2_flux_model"], "multisym")
        assert flux.find("multisym/hm3-diff[k=0]").terms is None
        for rep in (mech, flux):
            for row in json.loads(rep.to_json())["checks"]:
                assert row["terms"] is None or row["terms"]
