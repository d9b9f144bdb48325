import numpy as np
import pytest

from conftest import chart2, f, random_poly_source
from momsec.algebroid import AlgebroidData
from momsec.connections import ConnectionData
from momsec.fields import (
    ExprField,
    FormField,
    MetricField,
    VectorField,
    const_field,
    exterior_derivative,
    field_sum_d,
    interior_product,
    max_abs_fields,
)
from momsec.momentum import condition_fields, h3_fields
from momsec.sigma2d import (
    boundary_eta_fields,
    boundary_mu_fields,
    boundary_pairing_fields,
    induced_momentum_inputs,
    rigid_b_fields,
    rigid_killing_fields,
)


def rotation_setup():
    ch = chart2()
    alg = AlgebroidData(ch, 1, [[f("-y", ch), f("x", ch)]], {})
    conn = ConnectionData.flat(alg)
    g = MetricField.identity(ch)
    b = FormField(ch, 2)
    eta = FormField(ch, 1, {(0,): f("-y/2", ch), (1,): f("x/2", ch)})
    mu = [f("-(x^2 + y^2)/2", ch)]
    return ch, alg, conn, g, b, eta, mu


def translation_setup():
    ch = chart2()
    one = const_field(1.0, 2)
    zero = const_field(0.0, 2)
    alg = AlgebroidData(ch, 2, [[one, zero], [zero, one]], {})
    conn = ConnectionData.flat(alg)
    g = MetricField.identity(ch)
    b = FormField(ch, 2, {(0, 1): const_field(-1.0, 2)})
    eta = FormField(ch, 1, {(0,): f("-y", ch), (1,): f("x", ch)})
    mu = [f("y", ch), f("-x", ch)]
    return ch, alg, conn, g, b, eta, mu


class TestRigidInvariance:
    def test_rotation_passes(self):
        ch, alg, conn, g, b, eta, mu = rotation_setup()
        pts = ch.sample(15, 1)
        assert max_abs_fields([x for _, x in rigid_killing_fields(alg, g)], pts) == 0.0
        b2 = FormField(ch, 2, {(0, 1): const_field(1.0, 2)})
        rows, used_default = rigid_b_fields(alg, b2)
        assert used_default
        assert max_abs_fields([x for _, x in rows], pts) < 1e-13

    def test_zero_anchor_trivial(self):
        ch = chart2()
        zero = const_field(0.0, 2)
        alg = AlgebroidData(ch, 1, [[zero, zero]], {})
        g = MetricField.identity(ch)
        assert max_abs_fields([x for _, x in rigid_killing_fields(alg, g)], ch.sample(8, 2)) == 0.0

    def test_stretched_metric_fails(self):
        ch = chart2()
        alg = AlgebroidData(ch, 1, [[const_field(1.0, 2), const_field(0.0, 2)]], {})
        g = MetricField(ch, {(0, 0): const_field(1.0, 2), (1, 1): f("x^2", ch)})
        rows = rigid_killing_fields(alg, g)
        p = np.array([0.7, 0.1])
        by_label = {label: fld.value(p) for label, fld in rows}
        assert by_label["a1 i2 i2"] == pytest.approx(2 * 0.7, abs=1e-14)

    def test_supplied_exactness_candidate(self):
        # L_rho b = d beta_a with an explicit candidate
        ch, alg, conn, g, b, eta, mu = rotation_setup()
        b2 = FormField(ch, 2, {(0, 1): const_field(1.0, 2)})
        candidate = [interior_product(alg.anchor_vector(0), b2)]
        rows, used_default = rigid_b_fields(alg, b2, candidate)
        assert not used_default
        assert max_abs_fields([x for _, x in rows], ch.sample(10, 3)) < 1e-13


class TestBoundaryConditions:
    def test_trivial_boundary(self):
        ch = chart2()
        zero = const_field(0.0, 2)
        alg = AlgebroidData(ch, 1, [[f("-y", ch), f("x", ch)]], {})
        conn = ConnectionData.flat(alg)
        eta = FormField(ch, 1)
        rows = boundary_pairing_fields(alg, eta, [zero])
        rows += boundary_eta_fields(alg, conn, FormField(ch, 2), eta, [zero])
        rows += boundary_mu_fields(alg, conn, [zero])
        assert max_abs_fields([x for _, x in rows], ch.sample(8, 4)) == 0.0

    def test_rotation_brute_force(self):
        # evaluate each printed component independently
        ch, alg, conn, g, b, eta, mu = rotation_setup()
        pts = ch.sample(12, 5)
        p2 = boundary_eta_fields(alg, conn, b, eta, mu)
        worst = 0.0
        for p in pts:
            rho = [alg.anchor[0][i].value(p) for i in range(2)]
            for i in range(2):
                ref = 0.0
                for j in range(2):
                    ref += rho[j] * b.comp((j, i)).value(p)
                    ref += rho[j] * eta.comp((i,)).partial(j).value(p)
                    ref += eta.comp((j,)).value(p) * alg.anchor[0][j].partial(i).value(p)
                worst = max(worst, abs(p2[i][1].value(p) - ref))
        assert worst < 1e-13
        assert max_abs_fields([x for _, x in p2], pts) < 1e-13

    def test_flipped_sign_detected(self):
        # flipping mu makes the pairing residual 2 |eta_i rho^i|
        ch, alg, conn, g, b, eta, mu = rotation_setup()
        flipped = [f("(x^2 + y^2)/2", ch)]
        rows = boundary_pairing_fields(alg, eta, flipped)
        p = np.array([1.0, 1.0])
        assert rows[0][1].value(p) == pytest.approx(2.0, abs=1e-13)

    def test_rotation_all_pass(self):
        ch, alg, conn, g, b, eta, mu = rotation_setup()
        pts = ch.sample(15, 6)
        assert max_abs_fields([x for _, x in boundary_pairing_fields(alg, eta, mu)], pts) < 1e-13
        assert max_abs_fields([x for _, x in boundary_mu_fields(alg, conn, mu)], pts) < 1e-13


class TestTheoremEquivalence:
    @pytest.mark.parametrize("setup", [rotation_setup, translation_setup])
    def test_eta_block_equals_momentum_residual(self, setup):
        ch, alg, conn, g, b, eta, mu = setup()
        pts = ch.sample(30, 7)
        mu_star, B_star = induced_momentum_inputs(alg, b, eta)
        p2 = max_abs_fields([x for _, x in boundary_eta_fields(alg, conn, b, eta, mu_star)], pts)
        h2 = max_abs_fields([x for _, x in condition_fields(alg, conn, B_star, mu_star)[1]], pts)
        assert abs(p2 - h2) < 1e-9

    @pytest.mark.parametrize("setup", [rotation_setup, translation_setup])
    def test_mu_block_equals_bracket_residual(self, setup):
        ch, alg, conn, g, b, eta, mu = setup()
        pts = ch.sample(30, 8)
        mu_star, B_star = induced_momentum_inputs(alg, b, eta)
        p3 = max_abs_fields([x for _, x in boundary_mu_fields(alg, conn, mu_star)], pts)
        h3 = max_abs_fields([x for _, x in h3_fields(alg, B_star, mu_star)], pts)
        assert abs(p3 - h3) < 1e-9

    def test_translation_mu_block_fails_like_bracket_compat(self):
        ch, alg, conn, g, b, eta, mu = translation_setup()
        pts = ch.sample(30, 9)
        mu_star, B_star = induced_momentum_inputs(alg, b, eta)
        p3 = max_abs_fields([x for _, x in boundary_mu_fields(alg, conn, mu_star)], pts)
        assert p3 == pytest.approx(1.0, abs=1e-12)

    def test_combined_identity_on_random_models(self):
        # H3_ab = P3_ab + rho^i_b P2_ai holds for any eta, b, connection
        rng = np.random.default_rng(31)
        ch = chart2()
        for trial in range(4):
            r = 2
            anchor = [
                [ExprField.parse(random_poly_source(rng, ch.coordinates, max_degree=1), ch) for _ in range(2)]
                for _ in range(r)
            ]
            structure = {(c, 0, 1): ExprField.parse(random_poly_source(rng, ch.coordinates, max_degree=1), ch) for c in range(r)}
            alg = AlgebroidData(ch, r, anchor, structure)
            gamma = [
                [[ExprField.parse(random_poly_source(rng, ch.coordinates, max_degree=1), ch) for _ in range(2)] for _ in range(r)]
                for _ in range(r)
            ]
            conn = ConnectionData(alg, gamma)
            b = FormField(ch, 2, {(0, 1): ExprField.parse(random_poly_source(rng, ch.coordinates), ch)})
            eta = FormField(ch, 1, {(0,): ExprField.parse(random_poly_source(rng, ch.coordinates), ch),
                                    (1,): ExprField.parse(random_poly_source(rng, ch.coordinates), ch)})
            mu_star, B_star = induced_momentum_inputs(alg, b, eta)
            h3_rows = h3_fields(alg, B_star, mu_star)
            p2_rows = boundary_eta_fields(alg, conn, b, eta, mu_star)
            p3_rows = boundary_mu_fields(alg, conn, mu_star)
            p2 = {}
            pos = 0
            for a in range(r):
                for i in range(2):
                    p2[(a, i)] = p2_rows[pos][1]
                    pos += 1
            p3 = {}
            pos = 0
            for a in range(r):
                for bb in range(r):
                    p3[(a, bb)] = p3_rows[pos][1]
                    pos += 1
            residuals = []
            pos = 0
            for a in range(r):
                for bb in range(a + 1, r):
                    terms = [h3_rows[pos][1], -p3[(a, bb)]]
                    for i in range(2):
                        terms.append(-(alg.anchor[bb][i] * p2[(a, i)]))
                    residuals.append(field_sum_d(terms, 2))
                    pos += 1
            assert max_abs_fields(residuals, ch.sample(10, 40 + trial)) < 1e-10

    def test_gauge_shift_regression(self):
        # replacing eta by eta + df leaves B and preserves the equivalences
        ch, alg, conn, g, b, eta, mu = translation_setup()
        rng = np.random.default_rng(32)
        shift = ExprField.parse(random_poly_source(rng, ch.coordinates, max_degree=3), ch)
        df = exterior_derivative(FormField(ch, 0, {(): shift}))
        eta_shifted = eta + df
        pts = ch.sample(20, 10)
        mu1, B1 = induced_momentum_inputs(alg, b, eta)
        mu2, B2 = induced_momentum_inputs(alg, b, eta_shifted)
        assert max_abs_fields((B1 - B2).comps.values(), pts) < 1e-12
        for a in range(2):
            shift_a = interior_product(alg.anchor_vector(a), df).comp(())
            assert max_abs_fields([mu2[a] - (mu1[a] - shift_a)], pts) < 1e-12
        # the eta-block equivalence is unconditional
        p2 = max_abs_fields([x for _, x in boundary_eta_fields(alg, conn, b, eta_shifted, mu2)], pts)
        h2 = max_abs_fields([x for _, x in condition_fields(alg, conn, B2, mu2)[1]], pts)
        assert abs(p2 - h2) < 1e-9
        # the mu-block equivalence holds through the combined identity
        h3_rows = h3_fields(alg, B2, mu2)
        p2_rows = boundary_eta_fields(alg, conn, b, eta_shifted, mu2)
        p3_rows = boundary_mu_fields(alg, conn, mu2)
        combo = [
            h3_rows[0][1],
            -p3_rows[1][1],
        ]
        for i in range(2):
            combo.append(-(alg.anchor[1][i] * p2_rows[i][1]))
        assert max_abs_fields([field_sum_d(combo, 2)], pts) < 1e-10
