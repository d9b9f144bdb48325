import numpy as np
import pytest

from conftest import chart2, f, random_poly_source, structure
from momsec.algebroid import (
    AlgebroidData,
    EForm,
    anchor_morphism_fields,
    e_differential,
    jacobi_sigma_fields,
    q_squared_fields,
)
from momsec.fields import Chart, const_field, max_abs_fields

EPS3 = {
    (0, 1, 2): 1.0, (1, 2, 0): 1.0, (2, 0, 1): 1.0,
    (0, 2, 1): -1.0, (2, 1, 0): -1.0, (1, 0, 2): -1.0,
}


def so3_model() -> AlgebroidData:
    """Rotation algebra acting on R^3: rho^i_a = eps_{a i k} x^k, C^c_ab = eps_{a b c}."""
    ch = Chart(("x1", "x2", "x3"), ((-1.5, 1.5),) * 3)
    d = 3
    anchor = []
    for a in range(3):
        row = []
        for i in range(3):
            src = ""
            for k in range(3):
                e = EPS3.get((a, i, k), 0.0)
                if e == 1.0:
                    src = ch.coordinates[k]
                elif e == -1.0:
                    src = "-" + ch.coordinates[k]
            row.append(f(src, ch) if src else const_field(0.0, d))
        anchor.append(row)
    structure = {}
    for c in range(3):
        for a in range(3):
            for b in range(a + 1, 3):
                e = EPS3.get((a, b, c), 0.0)
                if e:
                    structure[(c, a, b)] = const_field(e, d)
    return AlgebroidData(ch, 3, anchor, structure)


def abelian_rank1(ch=None) -> AlgebroidData:
    ch = ch or Chart(("x",), ((-1.5, 1.5),))
    return AlgebroidData(ch, 1, [[const_field(1.0, ch.dim)] + [const_field(0.0, ch.dim)] * (ch.dim - 1)], {})


def nonmorphism_model() -> AlgebroidData:
    """rho_1 = d_x, rho_2 = x d_x with zero bracket: the anchor is not a morphism."""
    ch = Chart(("x",), ((-1.5, 1.5),))
    return AlgebroidData(ch, 2, [[const_field(1.0, 1)], [f("x", ch)]], {})


class TestAnchorMorphism:
    def test_so3_passes(self):
        alg = so3_model()
        rows = anchor_morphism_fields(alg)
        assert max_abs_fields([g for _, g in rows], alg.chart.sample(20, 6)) < 1e-10

    def test_zero_anchor(self):
        ch = chart2()
        alg = AlgebroidData(ch, 2, [[const_field(0.0, 2)] * 2] * 2, {(0, 0, 1): f("x", ch)})
        rows = anchor_morphism_fields(alg)
        assert max_abs_fields([g for _, g in rows], ch.sample(10, 7)) == 0.0

    def test_failing_model_residual_one(self):
        alg = nonmorphism_model()
        rows = anchor_morphism_fields(alg)
        vals = [abs(g.value(p)) for _, g in rows for p in alg.chart.sample(10, 8)]
        assert max(vals) == pytest.approx(1.0, abs=1e-14)


class TestJacobi:
    def test_so3_sigma_vanishes(self):
        alg = so3_model()
        sigma, contracted = jacobi_sigma_fields(alg)
        pts = alg.chart.sample(20, 9)
        assert max_abs_fields([g for _, g in sigma], pts) < 1e-10
        assert max_abs_fields([g for _, g in contracted], pts) < 1e-10

    def test_rank1_trivial(self):
        alg = abelian_rank1()
        sigma, contracted = jacobi_sigma_fields(alg)
        assert sigma == [] and contracted == []

    def test_nonconstant_structure_zero_anchor(self):
        # C^3_12 = x with zero anchor: products vanish, derivative terms vanish
        ch = chart2()
        zero = const_field(0.0, 2)
        alg = AlgebroidData(ch, 3, [[zero, zero]] * 3, {(2, 0, 1): f("x", ch)})
        sigma, _ = jacobi_sigma_fields(alg)
        assert max_abs_fields([g for _, g in sigma], ch.sample(10, 10)) == 0.0

    def test_brute_force_cyclic_sum(self):
        # independent evaluation of the cyclic tensor on a random model
        ch = chart2()
        rng = np.random.default_rng(13)
        anchor = [[f(random_poly_source(rng, ch.coordinates, max_degree=1), ch) for _ in range(2)] for _ in range(3)]
        entries = {}
        for c in range(3):
            for a in range(3):
                for b in range(a + 1, 3):
                    entries[(c, a, b)] = f(random_poly_source(rng, ch.coordinates, max_degree=1), ch)
        alg = AlgebroidData(ch, 3, anchor, entries)
        sigma, _ = jacobi_sigma_fields(alg)

        def C(c, a, b, p):
            return structure(alg, c, a, b).value(p)

        def dC(c, a, b, i, p):
            return structure(alg, c, a, b).partial(i).value(p)

        pts = ch.sample(6, 11)
        worst = 0.0
        for label, fld in sigma:
            dd = int(label[1]) - 1
            abc = tuple(int(token[1:]) - 1 for token in label.split()[1:])
            for p in pts:
                ref = 0.0
                for a, b, c in (abc, (abc[1], abc[2], abc[0]), (abc[2], abc[0], abc[1])):
                    for e in range(3):
                        ref += C(e, a, b, p) * C(dd, c, e, p)
                    for j in range(2):
                        ref += alg.anchor[a][j].value(p) * dC(dd, b, c, j, p)
                worst = max(worst, abs(fld.value(p) - ref))
        assert worst < 1e-12


class TestEDifferential:
    def test_rank1_top_degree(self):
        alg = abelian_rank1()
        alpha = EForm(alg, 1, {(0,): f("x", alg.chart)})
        out = e_differential(alpha)
        assert out.comps == {}

    def test_zero_anchor_gives_structure_contraction(self):
        # with rho = 0: (d_E a)(e_a, e_b) = -C^c_ab a_c
        ch = chart2()
        zero = const_field(0.0, 2)
        alg = AlgebroidData(ch, 2, [[zero, zero]] * 2, {(0, 0, 1): f("x*y", ch)})
        alpha = EForm(alg, 1, {(0,): f("x", ch), (1,): f("y", ch)})
        out = e_differential(alpha)
        for p in ch.sample(10, 12):
            expected = -(p[0] * p[1]) * p[0]
            assert out.comp((0, 1)).value(p) == pytest.approx(expected, abs=1e-13)

    def test_on_functions_matches_anchor(self):
        # (d_E f)(e_a) = rho_a(f)
        alg = so3_model()
        ch = alg.chart
        fn = f("x1^2*x3", ch)
        zero_form = EForm(alg, 0, {(): fn})
        out = e_differential(zero_form)
        for p in ch.sample(10, 13):
            for a in range(3):
                assert out.comp((a,)).value(p) == pytest.approx(
                    alg.apply_anchor(a, fn).value(p), abs=1e-14
                )

    def test_brute_force_summation_oracle(self):
        # compare against a direct evaluation of the alternating sum
        alg = so3_model()
        ch = alg.chart
        alpha = EForm(alg, 1, {(a,): f(ch.coordinates[a], ch) for a in range(3)})
        out = e_differential(alpha)
        pts = ch.sample(8, 14)
        worst = 0.0
        for a in range(3):
            for b in range(a + 1, 3):
                for p in pts:
                    ref = (
                        alg.apply_anchor(a, alpha.comp((b,))).value(p)
                        - alg.apply_anchor(b, alpha.comp((a,))).value(p)
                    )
                    for c in range(3):
                        ref -= structure(alg, c, a, b).value(p) * alpha.comp((c,)).value(p)
                    worst = max(worst, abs(out.comp((a, b)).value(p) - ref))
        assert worst < 1e-10

    def test_dd_zero_on_jacobi_models(self):
        alg = so3_model()
        ch = alg.chart
        rng = np.random.default_rng(15)
        alpha = EForm(alg, 1, {(a,): f(random_poly_source(rng, ch.coordinates, max_degree=2), ch) for a in range(3)})
        dd = e_differential(e_differential(alpha))
        assert max_abs_fields(list(dd.comps.values()), ch.sample(12, 16)) < 1e-9


class TestQSquared:
    def test_so3(self):
        alg = so3_model()
        rows = q_squared_fields(alg)
        assert max_abs_fields([g for _, g in rows], alg.chart.sample(15, 17)) < 1e-10

    def test_zero_structure(self):
        ch = chart2()
        zero = const_field(0.0, 2)
        alg = AlgebroidData(ch, 2, [[zero, zero]] * 2, {})
        rows = q_squared_fields(alg)
        assert max_abs_fields([g for _, g in rows], ch.sample(8, 18)) == 0.0

    def test_matches_anchor_residual_on_failing_model(self):
        alg = nonmorphism_model()
        pts = alg.chart.sample(10, 19)
        q2 = max_abs_fields([g for _, g in q_squared_fields(alg)], pts)
        anchor = max_abs_fields([g for _, g in anchor_morphism_fields(alg)], pts)
        assert abs(q2 - anchor) < 1e-12

    def test_equivalence_random_models(self):
        # squared differential vanishes iff anchor and cyclic residuals vanish
        rng = np.random.default_rng(99)
        tol = 1e-9
        for trial in range(12):
            ch = chart2()
            r = int(rng.integers(2, 4))
            anchor = []
            for a in range(r):
                row = []
                for i in range(2):
                    if rng.random() < 0.5:
                        row.append(const_field(0.0, 2))
                    else:
                        row.append(f(random_poly_source(rng, ch.coordinates, max_degree=1), ch))
                anchor.append(row)
            structure = {}
            for c in range(r):
                for a in range(r):
                    for b in range(a + 1, r):
                        if rng.random() < 0.5:
                            structure[(c, a, b)] = const_field(float(rng.integers(-2, 3)), 2)
            alg = AlgebroidData(ch, r, anchor, structure)
            pts = ch.sample(12, 100 + trial)
            q2 = max_abs_fields([g for _, g in q_squared_fields(alg)], pts)
            anchor_res = max_abs_fields([g for _, g in anchor_morphism_fields(alg)], pts)
            sigma, _ = jacobi_sigma_fields(alg)
            sigma_res = max_abs_fields([g for _, g in sigma], pts)
            assert (q2 < tol) == (anchor_res < tol and sigma_res < tol)
