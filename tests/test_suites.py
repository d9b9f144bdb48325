import json
import math
import pathlib

import numpy as np
import pytest

from momsec.fields import finite_only
from momsec.fixtures import FIXTURE_SUITES, fixture_bytes, fixture_names
from momsec.modelfile import load_model_bytes
from momsec.suites import CheckContext, RunConfig, anchor_ranks, applicable_suites, run

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

    def test_point_count_respected(self, fixture_models):
        rep = run(fixture_models["so3_action_algebroid"], "axioms", RunConfig(points=7, seed=3))
        assert all(c.n_points == 7 for c in rep.checks)

    def test_library_run_keeps_the_model_settings(self):
        doc = json.loads(fixture_bytes("translation_nonequivariant"))
        doc["sampling"] = {"seed": 5, "points": 7}
        doc["tolerances"] = {"default": 1e-6}
        model = load_model_bytes(json.dumps(doc).encode())
        rep = run(model, "momentum", RunConfig(require_h1=True))
        assert (rep.seed, rep.points, rep.tolerance) == (5, 7, 1e-6)
        assert all(c.n_points == 7 for c in rep.checks)
        explicit = run(model, "momentum", RunConfig(tolerance=1e-6, points=7, seed=5, require_h1=True))
        assert rep.to_json() == explicit.to_json()

    @pytest.mark.parametrize(
        "key,value",
        [("tolerance", float("inf")), ("tolerance", float("nan")), ("tolerance", 0.0), ("points", 0), ("seed", -1)],
    )
    def test_run_refuses_settings_no_residual_can_be_judged_by(self, fixture_models, key, value):
        # an infinite tolerance would pass the failing bracket-compatibility row
        with pytest.raises(ValueError, match=key):
            run(fixture_models["translation_nonequivariant"], "all", RunConfig(**{key: value}))


# A chart of dimension 4 with a metric, a b_field that is not closed and no
# beta_rigid: sigma2d then checks d(L_rho b), whose 3-forms have several
# components for each basis index.
OPEN_B_DIM4 = {
    "schema": 1,
    "chart": {"coordinates": ["x1", "x2", "x3", "x4"], "box": [[-1, 1]] * 4},
    "algebroid": {"rank": 2, "anchor": [{"idx": [1, 1], "expr": "1"}, {"idx": [2, 2], "expr": "x3"}]},
    "metric": [{"idx": [i, i], "expr": "1"} for i in (1, 2, 3, 4)],
    "b_field": [{"idx": [3, 4], "expr": "x1^2*x2"}, {"idx": [2, 4], "expr": "x1*x3^2"}],
}


SON_MODELS = {"so3-s1": (3, 1), "so3-s2": (3, 2), "so3-s3": (3, 3), "so4-s1": (4, 1)}


def son_bytes(name, monkeypatch) -> bytes:
    """A generated so(n) model from the benchmark directory at the repo root."""
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1]))
    from perfbench.models import son_model_bytes

    return son_model_bytes(*SON_MODELS[name])


@pytest.mark.parametrize("name", [*fixture_names(), *SON_MODELS, "open-b-dim4"])
def test_row_labels_are_unique_and_agreement_pairs_share_them(name, monkeypatch):
    """Every row set and term has unique labels, and in every agreement pair
    with rows on both sides the side with fewer rows has all its labels on
    the other side, so agreement rows can be matched by label."""
    if name in SON_MODELS:
        raw = son_bytes(name, monkeypatch)
    elif name == "open-b-dim4":
        raw = json.dumps(OPEN_B_DIM4).encode()
    else:
        raw = fixture_bytes(name)
    problems = []

    def labels(rows, where):
        out = [label for label, _ in rows]
        if len(set(out)) != len(out):
            problems.append(f"{where}: repeated labels in {out}")
        return set(out)

    check, agreement = CheckContext.check, CheckContext.agreement

    def recording_check(self, row, equation, rows, *args, terms=None, **kwargs):
        labels(rows, row)
        for term, term_rows in (terms or {}).items():
            labels(term_rows, f"{row} term {term}")
        return check(self, row, equation, rows, *args, terms=terms, **kwargs)

    def recording_agreement(self, row, equation, pairs, *args, **kwargs):
        for x, y in pairs:
            if x and y:
                fewer, more = sorted((x, y), key=len)
                missing = labels(fewer, row) - labels(more, row)
                if missing:
                    problems.append(f"{row}: {sorted(missing)} only on the side with fewer rows")
        return agreement(self, row, equation, pairs, *args, **kwargs)

    monkeypatch.setattr(CheckContext, "check", recording_check)
    monkeypatch.setattr(CheckContext, "agreement", recording_agreement)
    rep = run(load_model_bytes(raw), "all", RunConfig(points=32, seed=42))
    assert problems == []
    if name == "open-b-dim4":
        assert "only closedness" in " ".join(rep.find("sigma2d/rigid-b-invariance").flags)


# dB != 0: b = z dx ^ dy on R^3
B_NOT_CLOSED = {
    "schema": 1,
    "chart": {"coordinates": ["x", "y", "z"], "box": [[-1, 1]] * 3},
    "algebroid": {"rank": 1, "anchor": [{"idx": [1, 3], "expr": "1"}]},
    "metric": [{"idx": [1, 1], "expr": "1"}, {"idx": [2, 2], "expr": "1"}, {"idx": [3, 3], "expr": "1"}],
    "b_field": [{"idx": [1, 2], "expr": "z"}],
}

# tau' = tau = 1 != 0
TAU_ONE = {
    "schema": 1,
    "chart": {"coordinates": ["x", "y"], "box": [[-1, 1]] * 2},
    "algebroid": {"rank": 1, "anchor": [{"idx": [1, 1], "expr": "1"}]},
    "metric": [{"idx": [1, 1], "expr": "1"}, {"idx": [2, 2], "expr": "1"}],
    "tau": [{"idx": [1, 1], "expr": "1"}],
}


class TestEdgeBranches:
    def test_non_closed_b_flagged(self):
        model = load_model_bytes(json.dumps(B_NOT_CLOSED).encode())
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
        model = load_model_bytes(json.dumps(TAU_ONE).encode())
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


def _hm2_broken() -> dict:
    """The rotation example with eta^(0) shifted by x, so HM2 fails."""
    doc = json.loads(fixture_bytes("rotation_momentum_map"))
    doc["multisym"]["eta"]["0"][0]["expr"] = "x - (x^2 + y^2)/2"
    return doc


# (model, suite, conditional row, the reported rows whose failure it assumes away)
FAILED_HYPOTHESES = [
    ("b-not-closed", "momentum", "momentum/h1-tangent-agreement", ["momentum/pre-symplectic-closed"]),
    ("b-not-closed", "momentum", "momentum/map-reduction-agreement", ["momentum/pre-symplectic-closed"]),
    ("so3-s1", "momentum", "momentum/map-reduction-agreement", ["momentum/h2-momentum-section"]),
    ("tau-one", "mechanics", "mechanics/theorem-h2", ["mechanics/tau-prime"]),
    ("tau-one", "mechanics", "mechanics/flow-deg1-vs-h2", ["mechanics/tau-prime"]),
    ("so3-s1", "sigma2d", "sigma2d/theorem-h3-agreement", ["sigma2d/bdry-eta-compat"]),
    ("hm2-broken", "multisym", "multisym/n1-reduction-agreement", ["multisym/hm2-momentum-section"]),
    (
        "so3-s1",
        "multisym",
        "multisym/lie-specialize-agreement",
        ["multisym/descent-pairing[k=1]", "multisym/descent-symmetry[k=1]"],
    ),
]


@pytest.mark.parametrize("model,suite,row,hypotheses", FAILED_HYPOTHESES)
def test_a_failed_hypothesis_demotes_and_flags_the_row_that_assumes_it(
    fixture_models, monkeypatch, model, suite, row, hypotheses
):
    docs = {"b-not-closed": B_NOT_CLOSED, "tau-one": TAU_ONE, "hm2-broken": _hm2_broken()}
    raw = json.dumps(docs[model]).encode() if model in docs else son_bytes(model, monkeypatch)
    rep = run(load_model_bytes(raw), suite)
    for name in hypotheses:
        hypothesis = rep.find(name)
        assert not hypothesis.passed and math.isfinite(hypothesis.max_residual), name
    # the rotation example satisfies every hypothesis: there the row is
    # required (h1-tangent-agreement never is) and carries no flag
    holds = run(fixture_models["rotation_momentum_map"], suite).find(row)
    assert holds.informational == (row == "momentum/h1-tangent-agreement")
    assert holds.flags == ()
    demoted = rep.find(row)
    assert demoted.informational
    assert len(demoted.flags) == 1 and demoted.flags != ("non-finite",)


def test_a_non_finite_hypothesis_keeps_the_row_required(fixture_models):
    doc = json.loads(fixture_bytes("magnetic_twist_mechanics"))
    doc["tau"] = [{"idx": [1, 1], "expr": "exp(1000*x)"}]
    rep = run(load_model_bytes(json.dumps(doc).encode()), "mechanics")
    tau = rep.find("mechanics/tau-prime")
    assert tau.max_residual == math.inf and "non-finite" in tau.flags
    for name in ("mechanics/theorem-h2", "mechanics/flow-deg1-vs-h2"):
        row = rep.find(name)
        assert not row.informational, name
        assert not any("tau'" in flag for flag in row.flags), name
    flow = rep.find("mechanics/flow-deg1-vs-h2")
    assert not flow.passed and flow.flags == ("non-finite",)
    assert not rep.overall_pass


def test_an_agreement_is_nan_when_any_pair_is(fixture_models):
    ctx = CheckContext(fixture_models["so3_action_algebroid"], RunConfig(tolerance=1e-9, points=4, seed=0), [])
    finite, nan, zero = [], [], []
    ctx.row_maxima = {id(finite): 0.5, id(nan): math.nan, id(zero): 0.0}
    # the builtin max keeps its first argument when the second is NaN
    row = ctx.agreement("a", "x = y", [(finite, zero), (nan, zero)], 1e-9)
    assert math.isnan(row.max_residual) and not row.passed and row.flags == ("non-finite",)
    assert ctx.agreement("b", "x = y", [(zero, finite), (finite, finite)], 1.0).max_residual == 0.5


@pytest.mark.parametrize("expr, constant", [("2*(3 - 1)/4", True), ("x1 - x1 + 1", False)])
def test_constant_brackets_are_read_off_the_model(monkeypatch, expr, constant):
    # C^1_23 is 1 at every point either way; only a coordinate-free entry
    # is a constant of the model, which the constant-bracket rows assume
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1]))
    from perfbench.models import son_model_doc

    doc = son_model_doc(3, 1)
    entry = next(e for e in doc["algebroid"]["structure"] if e["idx"] == [1, 2, 3])
    entry["expr"] = expr
    names = {c.name for c in run(load_model_bytes(json.dumps(doc).encode()), "all").checks}
    assert "momentum/h3-bracket-compat" in names
    for name in (
        "momentum/map-symplectic-vectorfield",
        "momentum/map-hamiltonian-pairing",
        "momentum/map-equivariance",
        "momentum/map-reduction-agreement",
        "multisym/lie-specialize-agreement",
    ):
        assert (name in names) == constant, name


def test_a_nan_structure_function_is_not_constant(monkeypatch):
    # C^1_23 is 1 where exp does not overflow and NaN where it does, so
    # constancy is never established and no row that assumes it is made
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1]))
    from perfbench.models import son_model_doc

    doc = son_model_doc(3, 1)
    entry = next(e for e in doc["algebroid"]["structure"] if e["idx"] == [1, 2, 3])
    entry["expr"] = "1 + exp(1000*x1) - exp(1000*x1)"
    rep = run(load_model_bytes(json.dumps(doc).encode()), "all")
    names = {c.name for c in rep.checks}
    assert "momentum/h3-bracket-compat" in names
    for name in (
        "momentum/map-symplectic-vectorfield",
        "momentum/map-hamiltonian-pairing",
        "momentum/map-equivariance",
        "momentum/map-reduction-agreement",
        "multisym/lie-specialize-agreement",
    ):
        assert name not in names


@pytest.mark.parametrize("name", [*fixture_names(), "so3-s1", "so3-s2", "so3-s3"])
def test_required_rows_keep_their_verdict_across_sampling_seeds(fixture_models, monkeypatch, name):
    """A row that is required at one sampling seed is required at every
    seed and passes at all of them or at none: a row that flips is a
    defect in the check or a tolerance on an edge."""
    model = fixture_models[name] if name in fixture_models else load_model_bytes(son_bytes(name, monkeypatch))
    statuses = []
    for seed in (42, 1, 7, 2024, 5):
        rep = run(model, "all", RunConfig(seed=seed))
        statuses.append({c.name: "info" if c.informational else c.passed for c in rep.checks})
    flips = {row: [s.get(row) for s in statuses] for row in set().union(*statuses)}
    assert {row: seen for row, seen in flips.items() if len(set(seen)) > 1} == {}


class TestAnchorRanks:
    """The anchor-rank probe counts singular values above 1e-10 from one
    SVD, as ``np.linalg.matrix_rank(m, tol=1e-10)`` does."""

    @staticmethod
    def _stacks() -> dict:
        rng = np.random.default_rng(5)
        full = rng.normal(size=(40, 2, 3))
        deficient = full.copy()
        deficient[:, 1] = 2.5 * deficient[:, 0]
        tiny = np.zeros((3, 2, 3))
        tiny[:, 0, 0] = 1.0
        tiny[:, 1, 1] = [np.nextafter(1e-10, 0.0), 1e-10, np.nextafter(1e-10, 1.0)]
        nan, inf = full.copy(), full.copy()
        nan[[3, 17], 0, 2] = np.nan
        inf[[0, 39], 1, 1] = -np.inf
        return {"full-rank": full, "rank-deficient": deficient, "ulps": tiny, "nan": nan, "inf": inf}

    @pytest.mark.parametrize("name", ["full-rank", "rank-deficient", "ulps", "nan", "inf"])
    def test_equals_matrix_rank_bytes(self, name):
        m = self._stacks()[name]
        expected = finite_only(lambda m: np.linalg.matrix_rank(m, tol=1e-10), m)
        got = finite_only(anchor_ranks, m)
        assert got.dtype == expected.dtype == np.float64
        assert got.tobytes() == expected.tobytes()

    def test_ulps_on_either_side_of_the_tolerance(self):
        assert finite_only(anchor_ranks, self._stacks()["ulps"]).tolist() == [1.0, 1.0, 2.0]
