import numpy as np
import pytest

from conftest import chart2, f, pairing_B, random_poly_source, structure
from momsec.algebroid import AlgebroidData
from momsec.connections import ConnectionData
from momsec.fields import (
    ConstField,
    ExprField,
    FormField,
    VectorField,
    const_field,
    exterior_derivative,
    max_abs_fields,
)
from momsec.momentum import (
    CLASS_BRACKET,
    CLASS_HAMILTONIAN,
    CLASS_MOMENTUM,
    CLASS_NONE,
    CLASS_WEAK,
    classify,
    closedness_fields,
    condition_fields,
    gamma_fields,
    h3_fields,
    momentum_map_fields,
)


def rotation_data(mu_sign=-1.0):
    ch = chart2()
    alg = AlgebroidData(ch, 1, [[f("-y", ch), f("x", ch)]], {})
    conn = ConnectionData.flat(alg)
    B = FormField(ch, 2, {(0, 1): const_field(1.0, 2)})
    mu_src = "-(x^2 + y^2)/2" if mu_sign < 0 else "(x^2 + y^2)/2"
    return alg, conn, B, [f(mu_src, ch)]


def translation_data():
    ch = chart2()
    one = const_field(1.0, 2)
    zero = const_field(0.0, 2)
    alg = AlgebroidData(ch, 2, [[one, zero], [zero, one]], {})
    conn = ConnectionData.flat(alg)
    B = FormField(ch, 2, {(0, 1): one})
    return alg, conn, B, [f("y", ch), f("-x", ch)]


def gamma(alg, B):
    """gamma_{a,i}, by basis index, as H2 reads it: its rows at mu = 0 and
    a flat connection are -gamma_{a,i}, in (a, i) order."""
    zero = const_field(0.0, alg.dim)
    _, h2, _ = condition_fields(alg, ConnectionData.flat(alg), B, [zero] * alg.rank)
    comps = [-g for _, g in h2]
    return [comps[a * alg.dim : (a + 1) * alg.dim] for a in range(alg.rank)]


class TestGamma:
    def test_rotation(self):
        alg, _, B, _ = rotation_data()
        comps = gamma(alg, B)[0]
        for p in alg.chart.sample(10, 1):
            assert comps[0].value(p) == pytest.approx(-p[0], abs=1e-14)
            assert comps[1].value(p) == pytest.approx(-p[1], abs=1e-14)

    def test_zero_anchor(self):
        ch = chart2()
        zero = const_field(0.0, 2)
        alg = AlgebroidData(ch, 1, [[zero, zero]], {})
        assert all(g.is_zero for g in gamma(alg, FormField(ch, 2, {(0, 1): f("x", ch)}))[0])

    def test_zero_form(self):
        alg = rotation_data()[0]
        assert all(g.is_zero for g in gamma(alg, FormField(alg.chart, 2))[0])

    def test_linear_in_B(self):
        ch = chart2()
        alg = AlgebroidData(ch, 1, [[f("-y", ch), f("x", ch)]], {})
        rng = np.random.default_rng(7)
        B1 = FormField(ch, 2, {(0, 1): f(random_poly_source(rng, ch.coordinates), ch)})
        B2 = FormField(ch, 2, {(0, 1): f(random_poly_source(rng, ch.coordinates), ch)})
        lhs = gamma(alg, B1 + B2)[0]
        rhs = [g1 + g2 for g1, g2 in zip(gamma(alg, B1)[0], gamma(alg, B2)[0])]
        assert max_abs_fields([g1 - g2 for g1, g2 in zip(lhs, rhs)], ch.sample(12, 2)) < 1e-13


class TestConditions:
    def test_rotation_all_pass(self):
        data = rotation_data()
        pts = data[0].chart.sample(100, 3)
        for rows in condition_fields(*data):
            assert max_abs_fields([g for _, g in rows], pts) < 1e-12

    def test_zero_data(self):
        ch = chart2()
        zero = const_field(0.0, 2)
        alg = AlgebroidData(ch, 1, [[f("-y", ch), f("x", ch)]], {})
        h1, h2, _ = condition_fields(alg, ConnectionData.flat(alg), FormField(ch, 2), [zero])
        pts = ch.sample(10, 4)
        assert max_abs_fields([g for _, g in h1], pts) == 0.0
        assert max_abs_fields([g for _, g in h2], pts) == 0.0

    def test_wrong_sign_section_fails(self):
        data = rotation_data(mu_sign=+1.0)
        pts = data[0].chart.sample(50, 5)
        worst = max_abs_fields([g for _, g in condition_fields(*data)[1]], pts)
        expected = 2.0 * max(np.max(np.abs(pts[:, 0])), np.max(np.abs(pts[:, 1])))
        assert worst == pytest.approx(expected, abs=1e-12)

    def test_translation_two_sided_oracle(self):
        # independent evaluation of both sides of the bracket-compatibility
        # condition; the model satisfies the momentum condition exactly
        alg, conn, B, mu = translation_data()
        pts = alg.chart.sample(100, 6)
        _, h2, rows = condition_fields(alg, conn, B, mu)
        assert max_abs_fields([g for _, g in h2], pts) < 1e-12
        assert len(rows) == 1
        worst = max(abs(rows[0][1].value(p)) for p in pts)

        def oracle(p):
            # d_E mu(e_1, e_2) = rho_1(mu_2) - rho_2(mu_1) - C mu = -2
            lhs = -1.0 - 1.0
            # required value: -B(rho_1, rho_2) = -1
            rhs = -pairing_B(alg, B, 0, 1).value(p)
            return abs(lhs - rhs)

        oracle_worst = max(oracle(p) for p in pts)
        assert worst == pytest.approx(oracle_worst, abs=1e-10)
        assert worst == pytest.approx(1.0, abs=1e-12)

    def test_rank1_h3_vacuous(self):
        alg, _, B, mu = rotation_data()
        assert h3_fields(alg, B, mu) == []

    def test_h2_invariant_under_constant_shift_when_flat(self):
        alg, conn, B, mu = rotation_data()
        pts = alg.chart.sample(20, 8)
        base = max_abs_fields([g for _, g in condition_fields(alg, conn, B, mu)[1]], pts)
        shifted = condition_fields(alg, conn, B, [mu[0] + const_field(3.7, 2)])[1]
        assert max_abs_fields([g for _, g in shifted], pts) == base

    def test_h2_implies_h1_flat_closed(self):
        # with a flat connection, an exact momentum condition forces anchoring
        for alg, conn, B, mu in (rotation_data(), translation_data()):
            pts = alg.chart.sample(30, 9)
            h1, h2, _ = condition_fields(alg, conn, B, mu)
            assert max_abs_fields([g for _, g in closedness_fields(B)], pts) < 1e-12
            assert max_abs_fields([g for _, g in h2], pts) < 1e-10
            assert max_abs_fields([g for _, g in h1], pts) < 1e-8


class TestClassify:
    def test_labels(self):
        assert classify(True, True, True) == CLASS_HAMILTONIAN
        assert classify(True, True, False) == CLASS_WEAK
        assert classify(False, True, True) == CLASS_BRACKET
        assert classify(False, True, False) == CLASS_MOMENTUM
        assert classify(True, False, True) == CLASS_NONE

    def test_rotation_is_hamiltonian(self):
        data = rotation_data()
        pts = data[0].chart.sample(30, 10)
        h1, h2, h3 = (max_abs_fields([g for _, g in rows], pts) for rows in condition_fields(*data))
        assert classify(h1 < 1e-8, h2 < 1e-8, h3 < 1e-8) == CLASS_HAMILTONIAN

    def test_translation_excludes_bracket_compat(self):
        data = translation_data()
        pts = data[0].chart.sample(30, 11)
        h1, h2, h3 = (max_abs_fields([g for _, g in rows], pts) for rows in condition_fields(*data))
        verdict = classify(h1 < 1e-8, h2 < 1e-8, h3 < 1e-8)
        assert verdict == CLASS_WEAK
        assert "bracket" not in verdict


def reductions(alg, conn, B, mu):
    return momentum_map_fields(alg, conn, B, mu, gamma_fields(alg, B))


class TestMomentumMapReduction:
    def test_rotation_all_pass(self):
        data = rotation_data()
        pts = data[0].chart.sample(30, 12)
        rows = reductions(*data)
        for key in ("symplectic", "hamiltonian", "equivariance"):
            assert max_abs_fields([g for _, g in rows[key]], pts) < 1e-12

    def test_abelian_trivial(self):
        ch = chart2()
        alg = AlgebroidData(ch, 1, [[const_field(1.0, 2), const_field(0.0, 2)]], {})
        rows = reductions(alg, ConnectionData.flat(alg), FormField(ch, 2), [const_field(0.0, 2)])
        pts = ch.sample(10, 13)
        for key in rows:
            assert max_abs_fields([g for _, g in rows[key]], pts) == 0.0

    def test_translation_equivariance_fails_matching_h3(self):
        alg, conn, B, mu = translation_data()
        pts = alg.chart.sample(30, 14)
        rows = reductions(alg, conn, B, mu)
        eq = max_abs_fields([g for _, g in rows["equivariance"]], pts)
        h3 = max_abs_fields([g for _, g in h3_fields(alg, B, mu)], pts)
        assert abs(eq - h3) < 1e-12

    def test_reduction_agreement(self):
        for data in (rotation_data(), translation_data()):
            pts = data[0].chart.sample(30, 15)
            rows = reductions(*data)
            for key, general in zip(("symplectic", "hamiltonian", "equivariance"), condition_fields(*data)):
                red = max_abs_fields([g for _, g in rows[key]], pts)
                gen = max_abs_fields([g for _, g in general], pts)
                assert abs(red - gen) < 1e-10

    def test_rejects_nonflat_connection(self):
        alg, _, B, mu = rotation_data()
        gamma = [[[f("x", alg.chart)] * 2]]
        with pytest.raises(ValueError):
            reductions(alg, ConnectionData(alg, gamma), B, mu)

    def test_constant_structure_detector(self):
        # constant brackets are read off the model: a coordinate-free
        # entry is its number when it loads; x - x is not folded
        ch = chart2()
        zero = const_field(0.0, 2)

        def alg_with(source):
            return AlgebroidData(ch, 2, [[zero, zero]] * 2, {(0, 0, 1): f(source, ch)})

        assert alg_with("2*(3 - 1)/4").constant_structure
        assert isinstance(structure(alg_with("2*(3 - 1)/4"), 0, 0, 1), ConstField)
        assert not alg_with("x - x + 1").constant_structure
        assert not alg_with("x").constant_structure
        assert AlgebroidData(ch, 2, [[zero, zero]] * 2, {}).constant_structure
        nan = AlgebroidData(ch, 2, [[zero, zero]] * 2, {(0, 0, 1): const_field(float("nan"), 2)})
        assert not nan.constant_structure


class TestClosedness:
    def test_exact_form_is_closed(self):
        ch = chart2()
        rng = np.random.default_rng(17)
        A = FormField(ch, 1, {(0,): f(random_poly_source(rng, ch.coordinates), ch)})
        rows = closedness_fields(exterior_derivative(A))
        assert max_abs_fields([g for _, g in rows], ch.sample(10, 18)) < 1e-13

    def test_top_degree_vacuous(self):
        ch = chart2()
        B = FormField(ch, 2, {(0, 1): f("x*y", ch)})
        assert closedness_fields(B) == []
