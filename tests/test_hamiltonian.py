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
    max_abs_fields,
)
from momsec.hamiltonian import (
    ConstraintSystem,
    PhasePolynomial,
    absorb_beta,
    first_class_fields,
    flow_fields,
    poisson_bracket,
)
from momsec.momentum import condition_fields, h3_fields


def poly_max(poly: PhasePolynomial, pts) -> float:
    return max_abs_fields(poly.comps.values(), pts)


def random_phase_poly(ch, rng, max_degree=2) -> PhasePolynomial:
    d = ch.dim
    mono = {}
    mono[()] = ExprField.parse(random_poly_source(rng, ch.coordinates, max_degree=2), ch)
    for i in range(d):
        mono[(i,)] = ExprField.parse(random_poly_source(rng, ch.coordinates, max_degree=2), ch)
    if max_degree >= 2:
        for i in range(d):
            for j in range(i, d):
                mono[(i, j)] = ExprField.parse(random_poly_source(rng, ch.coordinates, max_degree=1), ch)
    return PhasePolynomial(d, mono)


class TestPoissonBracket:
    def test_momentum_coordinate_pairing(self):
        # {p_i, x^j} = delta_i^j
        ch = chart2()
        p = ch.sample(4, 1)
        for i in range(2):
            for j in range(2):
                F = PhasePolynomial(2, {(i,): const_field(1.0, 2)})
                G = PhasePolynomial(2, {(): f(ch.coordinates[j], ch)})
                br = poisson_bracket(F, G)
                val = br.comp(()).value(p[0])
                assert val == (1.0 if i == j else 0.0)

    def test_antisymmetry_exact(self):
        ch = chart2()
        rng = np.random.default_rng(3)
        pts = ch.sample(10, 2)
        for _ in range(5):
            F = random_phase_poly(ch, rng)
            G = random_phase_poly(ch, rng)
            s = poisson_bracket(F, G) + poisson_bracket(G, F)
            assert poly_max(s, pts) == 0.0

    def test_self_bracket_vanishes_exactly(self):
        ch = chart2()
        rng = np.random.default_rng(4)
        F = random_phase_poly(ch, rng)
        assert poly_max(poisson_bracket(F, F), ch.sample(10, 3)) == 0.0

    def test_affine_bracket_hand_formula(self):
        # {rho p + alpha, rho' p + alpha'} = [rho, rho'] p + rho(alpha') - rho'(alpha)
        ch = chart2()
        rng = np.random.default_rng(5)
        rho = [f(random_poly_source(rng, ch.coordinates, max_degree=2), ch) for _ in range(2)]
        rho2 = [f(random_poly_source(rng, ch.coordinates, max_degree=2), ch) for _ in range(2)]
        al = f(random_poly_source(rng, ch.coordinates, max_degree=2), ch)
        al2 = f(random_poly_source(rng, ch.coordinates, max_degree=2), ch)
        F = PhasePolynomial(2, {(0,): rho[0], (1,): rho[1], (): al})
        G = PhasePolynomial(2, {(0,): rho2[0], (1,): rho2[1], (): al2})
        br = poisson_bracket(F, G)
        pts = ch.sample(10, 4)
        worst = 0.0
        for p in pts:
            for k in range(2):
                lie = sum(
                    rho[j].value(p) * rho2[k].partial(j).value(p) - rho2[j].value(p) * rho[k].partial(j).value(p)
                    for j in range(2)
                )
                worst = max(worst, abs(br.comp((k,)).value(p) - lie))
            deg0 = sum(rho[j].value(p) * al2.partial(j).value(p) - rho2[j].value(p) * al.partial(j).value(p) for j in range(2))
            worst = max(worst, abs(br.comp(()).value(p) - deg0))
        assert worst < 1e-12

    def test_twist_pairing(self):
        # {p_i, p_j} = B_ij once the twist is installed
        ch = chart2()
        B = FormField(ch, 2, {(0, 1): f("x*y + 2", ch)})
        F = PhasePolynomial(2, {(0,): const_field(1.0, 2)})
        G = PhasePolynomial(2, {(1,): const_field(1.0, 2)})
        br = poisson_bracket(F, G, twist=B)
        for p in ch.sample(8, 5):
            assert br.comp(()).value(p) == pytest.approx(p[0] * p[1] + 2, abs=1e-14)

    def test_degree_bookkeeping(self):
        # bracket of degree <= 1 stays degree <= 1
        ch = chart2()
        rng = np.random.default_rng(6)
        F = random_phase_poly(ch, rng, max_degree=1)
        G = random_phase_poly(ch, rng, max_degree=1)
        br = poisson_bracket(F, G)
        assert set(br.degrees_present()) <= {0, 1}

    def test_jacobi_untwisted(self):
        ch = chart2()
        rng = np.random.default_rng(7)
        pts = ch.sample(8, 6)
        for _ in range(3):
            F, G, K = (random_phase_poly(ch, rng) for _ in range(3))
            s = (
                poisson_bracket(poisson_bracket(F, G), K)
                + poisson_bracket(poisson_bracket(G, K), F)
                + poisson_bracket(poisson_bracket(K, F), G)
            )
            assert poly_max(s, pts) < 1e-9

    def test_jacobi_with_closed_twist(self):
        ch = chart2()
        rng = np.random.default_rng(8)
        pts = ch.sample(8, 7)
        A = FormField(ch, 1, {(0,): f(random_poly_source(rng, ch.coordinates), ch),
                              (1,): f(random_poly_source(rng, ch.coordinates), ch)})
        B = exterior_derivative(A)
        for _ in range(3):
            F, G, K = (random_phase_poly(ch, rng) for _ in range(3))
            s = (
                poisson_bracket(poisson_bracket(F, G, B), K, B)
                + poisson_bracket(poisson_bracket(G, K, B), F, B)
                + poisson_bracket(poisson_bracket(K, F, B), G, B)
            )
            assert poly_max(s, pts) < 1e-9

    def test_grading_report(self):
        ch = chart2()
        g = MetricField.identity(ch)
        alg = AlgebroidData(ch, 1, [[f("-y", ch), f("x", ch)]], {})
        system = ConstraintSystem(
            alg, ConnectionData.flat(alg), g,
            [const_field(0.0, 2)],
            VectorField(ch, [f("-y", ch), f("x", ch)]),
            f("x^2", ch),
            [[const_field(0.0, 2)]],
        )
        assert system.hamiltonian().degrees_present() == [0, 1, 2]
        assert PhasePolynomial(2, {(): const_field(4.0, 2)}).degrees_present() == [0]


def magnetic_system() -> ConstraintSystem:
    ch = chart2()
    alg = AlgebroidData(ch, 1, [[f("-y", ch), f("x", ch)]], {})
    return ConstraintSystem(
        alg,
        ConnectionData.flat(alg),
        MetricField.identity(ch),
        [const_field(0.0, 2)],
        VectorField(ch, [f("-y", ch), f("x", ch)]),
        const_field(0.0, 2),
        [[const_field(0.0, 2)]],
    )


def free_particle_system() -> ConstraintSystem:
    # H = |p|^2 / 2, constraint p_x, no couplings
    ch = chart2()
    alg = AlgebroidData(ch, 1, [[const_field(1.0, 2), const_field(0.0, 2)]], {})
    return ConstraintSystem(
        alg,
        ConnectionData.flat(alg),
        MetricField.identity(ch),
        [const_field(0.0, 2)],
        VectorField.zero(ch),
        const_field(0.0, 2),
        [[const_field(0.0, 2)]],
    )


class TestConstraintSystems:
    def test_free_particle_flow_vanishes(self):
        system = free_particle_system()
        pts = system.alg.chart.sample(10, 8)
        blocks = flow_fields(system)
        for deg, rows in blocks.items():
            assert max_abs_fields([g for _, g in rows], pts) == 0.0

    def test_angular_momentum_conserved(self):
        # rotation constraint with the free Hamiltonian: residual zero
        system = magnetic_system()
        no_beta = ConstraintSystem(
            system.alg, system.conn, system.metric,
            system.alpha, VectorField.zero(system.alg.chart), system.V, system.tau,
        )
        pts = system.alg.chart.sample(10, 9)
        blocks = flow_fields(no_beta)
        for deg, rows in blocks.items():
            assert max_abs_fields([g for _, g in rows], pts) < 1e-13

    def test_so3_constraints_first_class(self):
        # rotation-algebra constraints close on their structure constants
        from test_algebroid import so3_model

        alg = so3_model()
        ch = alg.chart
        zero = const_field(0.0, 3)
        system = ConstraintSystem(
            alg, ConnectionData.flat(alg), MetricField.identity(ch),
            [zero, zero, zero], VectorField.zero(ch), zero,
            [[zero] * 3 for _ in range(3)],
        )
        blocks = first_class_fields(system)
        pts = ch.sample(15, 23)
        for rows in blocks.values():
            assert max_abs_fields([g for _, g in rows], pts) < 1e-10

    def test_translation_twist_obstruction(self):
        # two translation constraints with a unit twist: the constant block
        # of the first-class residual equals the pairing value 1
        ch = chart2()
        one = const_field(1.0, 2)
        zero = const_field(0.0, 2)
        alg = AlgebroidData(ch, 2, [[one, zero], [zero, one]], {})
        system = ConstraintSystem(
            alg, ConnectionData.flat(alg), MetricField.identity(ch),
            [zero, zero], VectorField.zero(ch), zero,
            [[zero, zero], [zero, zero]],
            twist=FormField(ch, 2, {(0, 1): one}),
        )
        blocks = first_class_fields(system)
        pts = ch.sample(10, 10)
        assert max_abs_fields([g for _, g in blocks[0]], pts) == pytest.approx(1.0)
        assert 1 not in blocks or max_abs_fields([g for _, g in blocks[1]], pts) == 0.0


class TestAbsorbBeta:
    def test_zero_beta_is_identity(self):
        system = free_particle_system()
        out = absorb_beta(system)
        pts = system.alg.chart.sample(8, 11)
        assert system.metric.lower(system.beta).is_zero
        assert out.twist.is_zero
        assert max_abs_fields([out.V - system.V], pts) == 0.0

    def test_magnetic_example(self):
        system = magnetic_system()
        out = absorb_beta(system)
        p = np.array([1.0, 0.5])
        A = system.metric.lower(system.beta)
        assert A.comp((0,)).value(p) == pytest.approx(-0.5)
        assert A.comp((1,)).value(p) == pytest.approx(1.0)
        assert out.twist.comp((0, 1)).value(p) == pytest.approx(2.0)
        assert out.V.value(p) == pytest.approx(-(1.0 + 0.25) / 2)
        assert out.alpha[0].value(p) == pytest.approx(-(1.0 + 0.25))
        assert out.beta.stored() == []

    def test_rank1_alpha_shift(self):
        # alpha = 0, rho = d_x, beta = (-y, x): alpha' = -A_x = y
        ch = chart2()
        alg = AlgebroidData(ch, 1, [[const_field(1.0, 2), const_field(0.0, 2)]], {})
        system = ConstraintSystem(
            alg, ConnectionData.flat(alg), MetricField.identity(ch),
            [const_field(0.0, 2)],
            VectorField(ch, [f("-y", ch), f("x", ch)]),
            const_field(0.0, 2), [[const_field(0.0, 2)]],
        )
        out = absorb_beta(system)
        for p in ch.sample(8, 12):
            assert out.alpha[0].value(p) == pytest.approx(p[1], abs=1e-14)

    def test_twist_closed_by_construction(self):
        ch = chart2()
        rng = np.random.default_rng(13)
        alg = AlgebroidData(ch, 1, [[f("-y", ch), f("x", ch)]], {})
        system = ConstraintSystem(
            alg, ConnectionData.flat(alg),
            MetricField(ch, {(0, 0): f("2 + x^2", ch), (0, 1): f("x*y/4", ch), (1, 1): f("2 + y^2", ch)}),
            [const_field(0.0, 2)],
            VectorField(ch, [f(random_poly_source(rng, ch.coordinates), ch),
                             f(random_poly_source(rng, ch.coordinates), ch)]),
            const_field(0.0, 2), [[const_field(0.0, 2)]],
        )
        out = absorb_beta(system)
        dB = exterior_derivative(out.twist)
        assert max_abs_fields(dB.comps.values(), ch.sample(10, 14)) < 1e-12

    def test_tau_prime_shift(self):
        # tau' = tau - Gamma(beta)
        ch = chart2()
        alg = AlgebroidData(ch, 1, [[f("-y", ch), f("x", ch)]], {})
        gamma = [[[f("x", ch), f("y", ch)]]]
        system = ConstraintSystem(
            alg, ConnectionData(alg, gamma), MetricField.identity(ch),
            [const_field(0.0, 2)],
            VectorField(ch, [const_field(1.0, 2), const_field(2.0, 2)]),
            const_field(0.0, 2), [[f("x + 2*y", ch)]],
        )
        out = absorb_beta(system)
        for p in ch.sample(8, 15):
            assert out.tau[0][0].value(p) == pytest.approx(0.0, abs=1e-14)


class TestTheoremEquivalences:
    def test_magnetic_flow_deg1_matches_momentum_residual(self):
        system = magnetic_system()
        out = absorb_beta(system)
        pts = system.alg.chart.sample(30, 16)
        assert max_abs_fields([r for _, r in [('t', out.tau[0][0])]], pts) == 0.0
        blocks = flow_fields(out)
        deg1 = max_abs_fields([g for _, g in blocks[1]], pts)
        h2 = max_abs_fields([g for _, g in condition_fields(out.alg, out.conn, out.twist, out.alpha)[1]], pts)
        assert abs(deg1 - h2) < 1e-9

    def test_magnetic_firstclass_deg0_matches_bracket_compat(self):
        system = magnetic_system()
        out = absorb_beta(system)
        pts = system.alg.chart.sample(30, 17)
        blocks = first_class_fields(out)
        deg0 = max_abs_fields([g for _, g in blocks.get(0, [])], pts)
        h3 = max_abs_fields([g for _, g in h3_fields(out.alg, out.twist, out.alpha)], pts)
        assert abs(deg0 - h3) < 1e-9

    def test_perturbed_alpha_equivalence_nonzero(self):
        # break the momentum condition and confirm both sides move together
        system = magnetic_system()
        out = absorb_beta(system)
        ch = system.alg.chart
        broken_alpha = [out.alpha[0] + f("x^2/3", ch)]
        twisted = ConstraintSystem(
            system.alg, system.conn, system.metric,
            broken_alpha, VectorField.zero(ch), out.V, out.tau,
            twist=out.twist,
        )
        pts = ch.sample(30, 18)
        deg1 = max_abs_fields([g for _, g in flow_fields(twisted)[1]], pts)
        h2 = max_abs_fields([g for _, g in condition_fields(out.alg, out.conn, out.twist, broken_alpha)[1]], pts)
        assert deg1 > 1e-3
        assert abs(deg1 - h2) < 1e-9

    def test_flow_verdict_stable_under_absorption(self):
        system = magnetic_system()
        pts = system.alg.chart.sample(20, 19)
        pre = flow_fields(system)
        out = absorb_beta(system)
        post = flow_fields(out)
        pre_pass = all(max_abs_fields([g for _, g in rows], pts) < 1e-9 for rows in pre.values())
        post_pass = all(max_abs_fields([g for _, g in rows], pts) < 1e-9 for rows in post.values())
        assert pre_pass == post_pass

    def test_random_system_with_connection_deg1_matches_momentum_residual(self):
        # random metric, connection, alpha and beta with tau = Gamma(beta),
        # so the shifted multiplier constant vanishes; after absorption the
        # lowered linear block must equal the momentum-section residual on
        # (dA, alpha') for the same connection
        rng = np.random.default_rng(29)
        ch = chart2()
        alg = AlgebroidData(
            ch,
            2,
            [
                [f(random_poly_source(rng, ch.coordinates, max_degree=1), ch) for _ in range(2)]
                for _ in range(2)
            ],
            {(c, 0, 1): f(random_poly_source(rng, ch.coordinates, max_degree=1), ch) for c in range(2)},
        )
        gamma = [
            [[f(random_poly_source(rng, ch.coordinates, max_degree=1), ch) for _ in range(2)] for _ in range(2)]
            for _ in range(2)
        ]
        conn = ConnectionData(alg, gamma)
        g = MetricField(
            ch,
            {(0, 0): f("2 + x^2/4", ch), (0, 1): f("x*y/8", ch), (1, 1): f("2 + y^2/4", ch)},
        )
        beta = VectorField(ch, [f(random_poly_source(rng, ch.coordinates, max_degree=2), ch) for _ in range(2)])
        alpha = [f(random_poly_source(rng, ch.coordinates, max_degree=2), ch) for _ in range(2)]
        from momsec.fields import field_sum_d

        tau = [
            [field_sum_d([gamma[b][a][i] * beta.comps[i] for i in range(2)], 2) for b in range(2)]
            for a in range(2)
        ]
        system = ConstraintSystem(alg, conn, g, alpha, beta, const_field(0.0, 2), tau)
        out = absorb_beta(system)
        pts = ch.sample(20, 30)
        assert max_abs_fields([out.tau[a][b] for a in range(2) for b in range(2)], pts) < 1e-12
        deg1 = max_abs_fields([x for _, x in flow_fields(out)[1]], pts)
        _, h2_rows, h3_rows = condition_fields(alg, conn, out.twist, out.alpha)
        h2 = max_abs_fields([x for _, x in h2_rows], pts)
        assert deg1 > 1e-3  # a generic system does not satisfy the condition
        assert abs(deg1 - h2) < 1e-9
        deg0 = max_abs_fields([x for _, x in first_class_fields(out).get(0, [])], pts)
        h3 = max_abs_fields([x for _, x in h3_rows], pts)
        assert deg0 > 1e-3
        assert abs(deg0 - h3) < 1e-9

    def test_deg2_block_matches_metric_compat(self):
        # the lowered quadratic block agrees with the tangent-action
        # residual of the metric
        from momsec.connections import e_nabla_metric_fields

        ch = chart2()
        alg = AlgebroidData(ch, 1, [[const_field(1.0, 2), const_field(0.0, 2)]], {})
        g = MetricField(ch, {(0, 0): const_field(1.0, 2), (1, 1): f("1 + x^2/2", ch)})
        system = ConstraintSystem(
            alg, ConnectionData.flat(alg), g,
            [const_field(0.0, 2)], VectorField.zero(ch), const_field(0.0, 2),
            [[const_field(0.0, 2)]],
        )
        pts = ch.sample(20, 20)
        deg2 = max_abs_fields([f_ for _, f_ in flow_fields(system)[2]], pts)
        ref = max_abs_fields([f_ for _, f_ in e_nabla_metric_fields(system.conn, g)], pts)
        assert deg2 > 1e-3
        assert abs(deg2 - ref) < 1e-9
