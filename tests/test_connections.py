import numpy as np
import pytest

from conftest import chart2, f, random_poly_source
from momsec.algebroid import AlgebroidData
from momsec.connections import (
    ConnectionData,
    dual_covariant_derivative,
    e_nabla_metric_fields,
    e_nabla_two_form_fields,
)
from momsec.fields import (
    Chart,
    ExprField,
    FormField,
    MetricField,
    const_field,
    exterior_derivative,
    field_sum_d,
    max_abs_fields,
    wedge,
)
from momsec.momentum import condition_fields


def rank2_model(ch=None):
    ch = ch or chart2()
    zero = const_field(0.0, 2)
    anchor = [[f("-y", ch), f("x", ch)], [const_field(1.0, 2), zero]]
    return AlgebroidData(ch, 2, anchor, {})


def random_connection(alg, rng) -> ConnectionData:
    ch = alg.chart
    gamma = [
        [
            [ExprField.parse(random_poly_source(rng, ch.coordinates, max_degree=1), ch) for _ in range(ch.dim)]
            for _ in range(alg.rank)
        ]
        for _ in range(alg.rank)
    ]
    return ConnectionData(alg, gamma)


class TestCovariantDerivative:
    def test_duality_identity(self):
        # d<mu,e> = <D mu, e> + <mu, D e>
        alg = rank2_model()
        ch = alg.chart
        rng = np.random.default_rng(3)
        conn = random_connection(alg, rng)
        e = [f(random_poly_source(rng, ch.coordinates, max_degree=2), ch) for _ in range(2)]
        mu = [f(random_poly_source(rng, ch.coordinates, max_degree=2), ch) for _ in range(2)]
        Dmu = dual_covariant_derivative(conn, [FormField(ch, 0, {(): m}) for m in mu])

        def De(a, i):
            # README convention on sections: (D e)^a_i = d_i f^a + Gamma^a_{b i} f^b
            return field_sum_d([e[a].partial(i)] + [conn.gamma[a][b][i] * e[b] for b in range(2)], 2)

        pairing = field_sum_d([mu[a] * e[a] for a in range(2)], 2)
        residuals = []
        for i in range(2):
            terms = [pairing.partial(i)]
            for a in range(2):
                terms.append(-(Dmu[a].comp((i,)) * e[a]))
                terms.append(-(mu[a] * De(a, i)))
            residuals.append(field_sum_d(terms, 2))
        assert max_abs_fields(residuals, ch.sample(12, 4)) < 1e-10

    def test_second_derivative_is_curvature(self):
        # D(D mu) = -F^b_a mu_b with F^b_a = d Gamma^b_a + Gamma^b_c ^ Gamma^c_a
        alg = rank2_model()
        ch = alg.chart
        rng = np.random.default_rng(5)
        conn = random_connection(alg, rng)
        mu = [f(random_poly_source(rng, ch.coordinates, max_degree=2), ch) for _ in range(2)]
        DDmu = dual_covariant_derivative(conn, dual_covariant_derivative(conn, [FormField(ch, 0, {(): m}) for m in mu]))
        residuals = []
        for a in range(2):
            expected = FormField(ch, 2)
            for b in range(2):
                F = exterior_derivative(conn.one_form(b, a))
                for c in range(2):
                    F = F + wedge(conn.one_form(b, c), conn.one_form(c, a))
                expected = expected + F.mul_field(mu[b])
            residuals.append(DDmu[a] + expected)
        worst = max(max_abs_fields(r.comps.values(), ch.sample(10, 6)) for r in residuals)
        assert worst < 1e-9

    def test_flat_dual_on_one_forms(self):
        alg = rank2_model()
        ch = alg.chart
        conn = ConnectionData.flat(alg)
        mu = [
            FormField(ch, 1, {(0,): f("x*y", ch)}),
            FormField(ch, 1, {(1,): f("x^2", ch)}),
        ]
        Dmu = dual_covariant_derivative(conn, mu)
        for a in range(2):
            delta = Dmu[a] - exterior_derivative(mu[a])
            assert max_abs_fields(delta.comps.values(), ch.sample(8, 7)) == 0.0


class TestENablaMetric:
    def test_rotation_killing(self):
        ch = chart2()
        alg = AlgebroidData(ch, 1, [[f("-y", ch), f("x", ch)]], {})
        conn = ConnectionData.flat(alg)
        rows = e_nabla_metric_fields(conn, MetricField.identity(ch))
        assert max_abs_fields([g for _, g in rows], ch.sample(10, 10)) == 0.0

    def test_zero_anchor(self):
        ch = chart2()
        zero = const_field(0.0, 2)
        alg = AlgebroidData(ch, 1, [[zero, zero]], {})
        rng = np.random.default_rng(11)
        conn = random_connection(alg, rng)
        g = MetricField(ch, {(0, 0): f("1 + x^2", ch), (1, 1): f("2", ch)})
        rows = e_nabla_metric_fields(conn, g)
        assert max_abs_fields([g_ for _, g_ in rows], ch.sample(10, 12)) == 0.0

    def test_stretched_metric_residual(self):
        # g = diag(1, x^2), rho = d_x: residual is |d_x g_22| = 2|x|
        ch = chart2()
        alg = AlgebroidData(ch, 1, [[const_field(1.0, 2), const_field(0.0, 2)]], {})
        conn = ConnectionData.flat(alg)
        g = MetricField(ch, {(0, 0): const_field(1.0, 2), (1, 1): f("x^2", ch)})
        rows = e_nabla_metric_fields(conn, g)
        p = np.array([0.8, -0.2])
        vals = {label: fld.value(p) for label, fld in rows}
        assert vals["a1 i2 i2"] == pytest.approx(2 * 0.8, abs=1e-14)


class TestENablaTwoForm:
    def test_zero_anchor(self):
        ch = chart2()
        zero = const_field(0.0, 2)
        alg = AlgebroidData(ch, 1, [[zero, zero]], {})
        rng = np.random.default_rng(14)
        conn = random_connection(alg, rng)
        B = FormField(ch, 2, {(0, 1): f("x + y^2", ch)})
        rows = e_nabla_two_form_fields(conn, B)
        assert max_abs_fields([g for _, g in rows], ch.sample(8, 15)) == 0.0

    def test_rotation_preserves_area_form(self):
        ch = chart2()
        alg = AlgebroidData(ch, 1, [[f("-y", ch), f("x", ch)]], {})
        conn = ConnectionData.flat(alg)
        B = FormField(ch, 2, {(0, 1): const_field(1.0, 2)})
        rows = e_nabla_two_form_fields(conn, B)
        assert max_abs_fields([g for _, g in rows], ch.sample(10, 16)) == 0.0

    def test_matches_anchoring_residual_for_closed_forms(self):
        # with dB = 0 the tangent-action residual equals the derivative of
        # the induced dual-valued 1-form, connection terms included
        alg = rank2_model()
        ch = alg.chart
        rng = np.random.default_rng(17)
        conn = random_connection(alg, rng)
        A = FormField(ch, 1, {(0,): f(random_poly_source(rng, ch.coordinates, max_degree=3), ch)})
        B = exterior_derivative(A)
        rows = e_nabla_two_form_fields(conn, B)
        h1rows = condition_fields(alg, conn, B, [const_field(0.0, 2)] * 2)[0]
        pts = ch.sample(12, 18)
        by_label = {label: fld for label, fld in rows}
        worst = 0.0
        for label, fld in h1rows:
            # h1 labels are "a{,} i{,} i{,}"; the two-form rows use the same scheme
            other = by_label[label]
            for p in pts:
                worst = max(worst, abs(fld.value(p) - other.value(p)))
        assert worst < 1e-10
