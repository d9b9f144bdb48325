import json

import numpy as np
import pytest

from conftest import structure
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


def tower_doc():
    """A rank-2 model on a 3-chart with room for an n = 2 tower."""
    doc = minimal_doc()
    doc["chart"] = {"coordinates": ["x", "y", "z"], "box": [[-1, 1]] * 3}
    doc["algebroid"]["rank"] = 2
    doc["multisym"] = {"n": 2}
    return doc


class TestFixtures:
    def test_rotation_fixture_shape(self):
        model = load_model_bytes(fixture_bytes("rotation_momentum_map"))
        assert model.chart.dim == 2
        assert model.alg.rank == 1
        assert model.metric is not None
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
        assert model.metric is None
        assert model.tolerance == 1e-8

    def test_expression_error_carries_path(self):
        doc = minimal_doc()
        doc["mu"] = [{"idx": [1], "expr": "x +"}]
        with pytest.raises(ModelError) as err:
            load_model_bytes(doc_bytes(doc))
        assert "mu[0].expr" in str(err.value)

    def test_equal_sources_share_one_leaf(self):
        doc = minimal_doc()
        doc["mu"] = [{"idx": [1], "expr": "x*y"}]
        doc["alpha"] = [{"idx": [1], "expr": "x*y"}]
        doc["V"] = "x*y"
        doc["beta"] = [{"idx": [1], "expr": "1"}, {"idx": [2], "expr": "y"}]
        model = load_model_bytes(doc_bytes(doc))
        assert model.mu[0] is model.alpha[0] is model.V
        assert model.beta.comps[0] is model.alg.anchor[0][0]
        assert model.beta.comps[1] is not model.V
        # lowered through the node table, equal sources are one node in a
        # second load too, while the first lives
        assert load_model_bytes(doc_bytes(doc)).V is model.V

    def test_repeated_bad_expression_names_its_first_entry(self):
        # mu is read before alpha; a bad source fails the load at the
        # first entry that has it
        doc = minimal_doc()
        doc["alpha"] = [{"idx": [1], "expr": "x +"}]
        doc["mu"] = [{"idx": [1], "expr": "x +"}]
        with pytest.raises(ModelError) as err:
            load_model_bytes(doc_bytes(doc))
        assert err.value.path == "mu[0].expr"
        doc["mu"] = [{"idx": [1], "expr": "x"}]
        with pytest.raises(ModelError) as err:
            load_model_bytes(doc_bytes(doc))
        assert err.value.path == "alpha[0].expr"

    def test_unknown_coordinate_in_expression(self):
        doc = minimal_doc()
        doc["V"] = "q^2"
        with pytest.raises(ModelError):
            load_model_bytes(doc_bytes(doc))

    @pytest.mark.parametrize(
        "keys, first, second",
        [
            (("algebroid", "anchor"), [1, 2], [1, 2]),
            (("algebroid", "structure"), [1, 1, 2], [1, 2, 1]),
            (("algebroid", "connection"), [1, 2, 3], [1, 2, 3]),
            (("metric",), [1, 2], [2, 1]),
            (("b_field",), [1, 2], [2, 1]),
            (("eta_boundary",), [3], [3]),
            (("mu",), [2], [2]),
            (("alpha",), [2], [2]),
            (("beta",), [3], [3]),
            (("tau",), [1, 2], [1, 2]),
            (("beta_rigid",), [2, 3], [2, 3]),
            (("multisym", "h"), [1, 2, 3], [3, 1, 2]),
            (("multisym", "eta", "0"), {"idx_form": [], "idx_bundle": [1, 2]}, {"idx_form": [], "idx_bundle": [2, 1]}),
        ],
        ids=[
            "anchor",
            "structure",
            "connection",
            "metric",
            "b_field",
            "eta_boundary",
            "mu",
            "alpha",
            "beta",
            "tau",
            "beta_rigid",
            "multisym.h",
            "multisym.eta",
        ],
    )
    def test_duplicate_entries_rejected(self, keys, first, second):
        # the second entry lands on the canonical slot of the first
        doc = tower_doc()
        block = doc
        for key in keys[:-1]:
            block = block.setdefault(key, {})
        block[keys[-1]] = [
            {**({"idx": idx} if isinstance(idx, list) else idx), "expr": expr}
            for idx, expr in ((first, "x"), (second, "y"))
        ]
        path = ".".join(keys[:2]) + "".join(f"[{k}]" for k in keys[2:])
        with pytest.raises(ModelError) as err:
            load_model_bytes(doc_bytes(doc))
        assert f"{path}[1]:" in str(err.value)
        assert "contradictory" in str(err.value)

    @pytest.mark.parametrize(
        "path, edit",
        [
            ("schema", lambda doc: doc.update(schema=True)),
            ("algebroid.rank", lambda doc: doc["algebroid"].update(rank=True)),
            ("multisym.n", lambda doc: doc["multisym"].update(n=True)),
            ("algebroid.anchor[0]", lambda doc: doc["algebroid"]["anchor"][0].update(idx=[True, 1])),
            ("multisym.eta[1][0]", lambda doc: doc["multisym"]["eta"]["1"][0].update(idx_form=[True])),
            ("multisym.eta[1][0]", lambda doc: doc["multisym"]["eta"]["1"][0].update(idx_bundle=[True])),
        ],
        ids=["schema", "rank", "n", "idx", "idx_form", "idx_bundle"],
    )
    def test_boolean_is_not_an_integer(self, path, edit):
        # JSON true is the Python integer 1, which must not load as 1
        doc = tower_doc()
        doc["multisym"]["eta"] = {"1": [{"idx_form": [1], "idx_bundle": [1], "expr": "x"}]}
        load_model_bytes(doc_bytes(doc))
        edit(doc)
        with pytest.raises(ModelError) as err:
            load_model_bytes(doc_bytes(doc))
        assert str(err.value).startswith(f"{path}:")

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
        assert structure(model.alg, 0, 0, 1).value(p) == pytest.approx(-0.5)

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

    @pytest.mark.parametrize(
        "expr",
        ["(" * 3000 + "x" + ")" * 3000, "-" * 3000 + "x", *(op.join(["x"] * 3000) for op in "+*-")],
        ids=["parens", "signs", "sum-chain", "product-chain", "difference-chain"],
    )
    def test_deeply_nested_expression_is_model_error(self, expr):
        # a chain parses in a loop but nests one tree level per operator
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


def reader_doc():
    """A rank-3 model on a 4-chart with an n = 3 tower, so that eta[0] and
    eta[1] have two or more bundle indices and eta[2] two form indices."""
    return {
        "schema": 1,
        "chart": {"coordinates": ["x", "y", "z", "w"], "box": [[-1, 1]] * 4},
        "algebroid": {"rank": 3},
        "multisym": {"n": 3},
    }


# every sparse block: (keys to it in the document, an entry's index lists,
# the same canonical slot with its indices permuted, the entry with a
# repeated index in an antisymmetric group, or None for a block without one)
READER_BLOCKS = {
    "algebroid.anchor": (("algebroid", "anchor"), {"idx": [1, 2]}, {"idx": [1, 2]}, None),
    "algebroid.structure": (("algebroid", "structure"), {"idx": [1, 2, 3]}, {"idx": [1, 3, 2]}, {"idx": [1, 2, 2]}),
    "algebroid.connection": (("algebroid", "connection"), {"idx": [1, 2, 3]}, {"idx": [1, 2, 3]}, None),
    "metric": (("metric",), {"idx": [1, 2]}, {"idx": [2, 1]}, None),
    "b_field": (("b_field",), {"idx": [1, 2]}, {"idx": [2, 1]}, {"idx": [2, 2]}),
    "eta_boundary": (("eta_boundary",), {"idx": [3]}, {"idx": [3]}, None),
    "mu": (("mu",), {"idx": [2]}, {"idx": [2]}, None),
    "alpha": (("alpha",), {"idx": [2]}, {"idx": [2]}, None),
    "beta": (("beta",), {"idx": [4]}, {"idx": [4]}, None),
    "tau": (("tau",), {"idx": [1, 2]}, {"idx": [1, 2]}, None),
    "beta_rigid": (("beta_rigid",), {"idx": [2, 3]}, {"idx": [2, 3]}, None),
    "multisym.h": (("multisym", "h"), {"idx": [1, 2, 3, 4]}, {"idx": [2, 1, 3, 4]}, {"idx": [1, 2, 4, 4]}),
    "multisym.eta[0]": (
        ("multisym", "eta", "0"),
        {"idx_form": [], "idx_bundle": [1, 2, 3]},
        {"idx_form": [], "idx_bundle": [2, 1, 3]},
        {"idx_form": [], "idx_bundle": [1, 3, 3]},
    ),
    "multisym.eta[1]": (
        ("multisym", "eta", "1"),
        {"idx_form": [4], "idx_bundle": [1, 2]},
        {"idx_form": [4], "idx_bundle": [2, 1]},
        {"idx_form": [4], "idx_bundle": [2, 2]},
    ),
    "multisym.eta[2]": (
        ("multisym", "eta", "2"),
        {"idx_form": [1, 2], "idx_bundle": [3]},
        {"idx_form": [2, 1], "idx_bundle": [3]},
        {"idx_form": [1, 1], "idx_bundle": [3]},
    ),
    "multisym.eta[3]": (("multisym", "eta", "3"), {"idx": [1, 2, 3]}, {"idx": [3, 2, 1]}, {"idx": [1, 2, 1]}),
}


def _with_last_index(entry: dict, key: str, value) -> dict:
    """``entry`` with the last index of its list ``key`` replaced by ``value``."""
    return {**entry, key: [*entry[key][:-1], value]}


MESSAGES = {
    "repeated": "antisymmetric entry with repeated index",
    "permuted": "duplicate or contradictory entry for slot",
    "out-of-range": "out of range",
    "non-integer": "is not an integer",
}


class TestEntryReader:
    """Every sparse block, eta[k] entries included, is read by one reader
    with one set of rules, and each rejection names the entry's path."""

    def test_valid_entries_load(self):
        doc = reader_doc()
        for keys, valid, _, _ in READER_BLOCKS.values():
            self._place(doc, keys, [valid])
        model = load_model_bytes(doc_bytes(doc))
        # each block without index symmetry is a table over rank 3 and
        # dimension 4 that is zero but at its one entry
        tables = [
            (model.alg.anchor, (3, 4), (1, 2)),
            (model.conn.gamma, (3, 3, 4), (1, 2, 3)),
            (model.mu, (3,), (2,)),
            (model.alpha, (3,), (2,)),
            (model.beta.comps, (4,), (4,)),
            (model.tau, (3, 3), (1, 2)),
        ]
        for table, shape, entry in tables:
            cells = np.array(table, dtype=object)
            assert cells.shape == shape
            assert [idx for idx in np.ndindex(shape) if not cells[idx].is_zero] == [tuple(i - 1 for i in entry)]
        assert [list(form.comps) for form in model.beta_rigid] == [[], [(2,)], []]

    @pytest.mark.parametrize(
        "path, rule",
        [(path, rule) for path, case in READER_BLOCKS.items() for rule in MESSAGES if rule != "repeated" or case[3]],
    )
    def test_rejection_names_the_entry(self, path, rule):
        keys, valid, permuted, repeated = READER_BLOCKS[path]
        if rule in ("repeated", "permuted"):
            bad_entries = [repeated if rule == "repeated" else permuted]
        else:
            # one bad index in each non-empty index list in turn
            value = 9 if rule == "out-of-range" else 1.5
            bad_entries = [_with_last_index(valid, key, value) for key in valid if valid[key]]
        for bad in bad_entries:
            doc = reader_doc()
            self._place(doc, keys, [valid, bad])
            with pytest.raises(ModelError) as err:
                load_model_bytes(doc_bytes(doc))
            assert str(err.value).startswith(f"{path}[1]: "), bad
            assert MESSAGES[rule] in str(err.value), bad

    @pytest.mark.parametrize(
        "form, bundle, sign",
        [([1, 2], [1, 2], 1.0), ([2, 1], [1, 2], -1.0), ([1, 2], [2, 1], -1.0), ([2, 1], [2, 1], 1.0)],
    )
    def test_eta_sign_is_the_product_of_the_permutation_signs(self, form, bundle, sign):
        # eta[2] of an n = 4 tower has two form and two bundle indices
        doc = minimal_doc()
        doc["chart"] = {"coordinates": ["x", "y", "z", "u", "v"], "box": [[-1, 1]] * 5}
        doc["algebroid"]["rank"] = 2
        doc["multisym"] = {"n": 4, "eta": {"2": [{"idx_form": form, "idx_bundle": bundle, "expr": "1 + x"}]}}
        eta = load_model_bytes(doc_bytes(doc)).multisym.eta[2]
        assert list(eta.comps) == [(0, 1)] and list(eta.comps[(0, 1)].comps) == [(0, 1)]
        assert eta.comps[(0, 1)].comps[(0, 1)].value(np.array([0.5, 0, 0, 0, 0])) == sign * 1.5

    @staticmethod
    def _place(doc, keys, entries):
        block = doc
        for key in keys[:-1]:
            block = block.setdefault(key, {})
        block[keys[-1]] = [{**entry, "expr": "x"} for entry in entries]
