import json

import numpy as np
import pytest

from momsec.fixtures import fixture_bytes
from momsec.modelfile import ModelError, load_model_bytes


def doc_bytes(doc) -> bytes:
    return json.dumps(doc).encode()


def minimal_doc():
    return {
        "schema": 1,
        "chart": {"coordinates": ["x", "y"], "box": [[-1, 1], [-1, 1]]},
        "algebroid": {"rank": 1, "anchor": [{"idx": [1, 1], "expr": "1"}]},
    }


class TestFixtures:
    def test_rotation_fixture_shape(self):
        model = load_model_bytes(fixture_bytes("rotation_momentum_map"))
        assert model.chart.dim == 2
        assert model.alg.rank == 1
        assert model.has_metric
        assert model.multisym is not None and model.multisym.n == 1

    def test_all_fixtures_load(self):
        from momsec.fixtures import fixture_names

        for name in fixture_names():
            model = load_model_bytes(fixture_bytes(name))
            assert model.sampling.seed == 42

    def test_unknown_fixture(self):
        with pytest.raises(KeyError):
            fixture_bytes("no_such_model")


class TestValidation:
    def test_index_out_of_range(self):
        doc = minimal_doc()
        doc["algebroid"]["anchor"].append({"idx": [1, 5], "expr": "x"})
        with pytest.raises(ModelError) as err:
            load_model_bytes(doc_bytes(doc))
        assert "out of range" in str(err.value)
        assert "anchor" in str(err.value)

    def test_defaults(self):
        model = load_model_bytes(doc_bytes(minimal_doc()))
        assert model.conn.is_flat
        assert all(x.is_zero for x in model.alpha)
        assert all(x.is_zero for x in model.mu)
        assert model.V.is_zero
        assert model.tau[0][0].is_zero
        assert model.b_field.is_zero
        assert not model.has_metric
        assert model.tolerance == 1e-8

    def test_expression_error_carries_path(self):
        doc = minimal_doc()
        doc["mu"] = [{"idx": [1], "expr": "x +"}]
        with pytest.raises(ModelError) as err:
            load_model_bytes(doc_bytes(doc))
        assert "mu[0].expr" in str(err.value)

    def test_unknown_coordinate_in_expression(self):
        doc = minimal_doc()
        doc["V"] = "q^2"
        with pytest.raises(ModelError):
            load_model_bytes(doc_bytes(doc))

    def test_duplicate_entries_rejected(self):
        doc = minimal_doc()
        doc["b_field"] = [{"idx": [1, 2], "expr": "1"}, {"idx": [2, 1], "expr": "1"}]
        with pytest.raises(ModelError) as err:
            load_model_bytes(doc_bytes(doc))
        assert "contradictory" in str(err.value)

    def test_antisymmetric_diagonal_rejected(self):
        doc = minimal_doc()
        doc["b_field"] = [{"idx": [1, 1], "expr": "1"}]
        with pytest.raises(ModelError):
            load_model_bytes(doc_bytes(doc))

    def test_antisymmetric_entry_canonicalized(self):
        doc = minimal_doc()
        doc["b_field"] = [{"idx": [2, 1], "expr": "x"}]
        model = load_model_bytes(doc_bytes(doc))
        p = np.array([0.5, 0.0])
        assert model.b_field.comp((0, 1)).value(p) == pytest.approx(-0.5)

    def test_structure_diagonal_rejected(self):
        doc = minimal_doc()
        doc["algebroid"]["rank"] = 2
        doc["algebroid"]["structure"] = [{"idx": [1, 2, 2], "expr": "1"}]
        with pytest.raises(ModelError):
            load_model_bytes(doc_bytes(doc))

    def test_structure_antisymmetrized(self):
        doc = minimal_doc()
        doc["algebroid"]["rank"] = 2
        doc["algebroid"]["structure"] = [{"idx": [1, 2, 1], "expr": "x"}]
        model = load_model_bytes(doc_bytes(doc))
        p = np.array([0.5, 0.0])
        assert model.alg.structure(0, 0, 1).value(p) == pytest.approx(-0.5)

    def test_bad_schema_version(self):
        doc = minimal_doc()
        doc["schema"] = 99
        with pytest.raises(ModelError):
            load_model_bytes(doc_bytes(doc))

    def test_not_json(self):
        with pytest.raises(ModelError):
            load_model_bytes(b"not json")

    def test_degenerate_box(self):
        doc = minimal_doc()
        doc["chart"]["box"] = [[0, 0], [-1, 1]]
        with pytest.raises(ModelError):
            load_model_bytes(doc_bytes(doc))

    @pytest.mark.parametrize(
        "literal",
        [b"1e400", b"Infinity", b"NaN", b"true", b"0", b"1" + b"0" * 400],
        ids=["1e400", "Infinity", "NaN", "true", "zero", "huge-integer"],
    )
    def test_tolerance_must_be_finite_and_positive(self, literal):
        raw = doc_bytes(minimal_doc())[:-1] + b', "tolerances": {"default": ' + literal + b"}}"
        with pytest.raises(ModelError) as err:
            load_model_bytes(raw)
        assert "tolerances.default" in str(err.value)

    @pytest.mark.parametrize("interval", [[-1e308, 1e308], [float("-inf"), 0], [0, 10**400], [True, 2]])
    def test_box_must_be_finite(self, interval):
        doc = minimal_doc()
        doc["chart"]["box"] = [interval, [-1, 1]]
        with pytest.raises(ModelError) as err:
            load_model_bytes(doc_bytes(doc))
        assert "chart.box[0]" in str(err.value)

    @pytest.mark.parametrize("expr", ["(" * 3000 + "x" + ")" * 3000, "-" * 3000 + "x"], ids=["parens", "signs"])
    def test_deeply_nested_expression_is_model_error(self, expr):
        doc = minimal_doc()
        doc["algebroid"]["anchor"][0]["expr"] = expr
        with pytest.raises(ModelError) as err:
            load_model_bytes(doc_bytes(doc))
        assert "anchor" in str(err.value)

    def test_deeply_nested_json_is_model_error(self):
        with pytest.raises(ModelError):
            load_model_bytes(b"[" * 100_000 + b"]" * 100_000)

    @pytest.mark.parametrize("key", ["seed", "points"])
    def test_boolean_sampling_rejected(self, key):
        doc = minimal_doc()
        doc["sampling"] = {key: True}
        with pytest.raises(ModelError) as err:
            load_model_bytes(doc_bytes(doc))
        assert f"sampling.{key}" in str(err.value)

    def test_eta_key_must_be_decimal(self):
        # "²" is a digit to str.isdigit but not to int()
        doc = minimal_doc()
        doc["multisym"] = {"n": 1, "h": [], "eta": {"²": []}}
        with pytest.raises(ModelError) as err:
            load_model_bytes(doc_bytes(doc))
        assert "multisym.eta" in str(err.value)

    def test_multisym_needs_room(self):
        doc = minimal_doc()
        doc["multisym"] = {"n": 2, "h": []}
        with pytest.raises(ModelError) as err:
            load_model_bytes(doc_bytes(doc))
        assert "n+1" in str(err.value)

    def test_multisym_eta_indices(self):
        doc = minimal_doc()
        doc["chart"] = {"coordinates": ["x", "y", "z"], "box": [[-1, 1]] * 3}
        doc["multisym"] = {
            "n": 2,
            "h": [],
            "eta": {"1": [{"idx_form": [2], "idx_bundle": [3], "expr": "x"}]},
        }
        with pytest.raises(ModelError) as err:
            load_model_bytes(doc_bytes(doc))
        assert "bundle index" in str(err.value)

    def test_model_hash_tracks_bytes(self):
        a = load_model_bytes(fixture_bytes("rotation_momentum_map"))
        b = load_model_bytes(fixture_bytes("rotation_momentum_map"))
        c = load_model_bytes(fixture_bytes("broken_jacobi"))
        assert a.model_hash == b.model_hash
        assert a.model_hash != c.model_hash
