import numpy as np
import pytest

from conftest import chart3, f, random_poly_source
from momsec.algebroid import AlgebroidData
from momsec.connections import ConnectionData
from momsec.fields import (
    Chart,
    ExprField,
    FormField,
    const_field,
    exterior_derivative,
    interior_product,
    lie_derivative,
    max_abs_fields,
)
from momsec.multisym import (
    BundleValuedForm,
    PrenPlecticData,
    descent_pairing_fields,
    descent_symmetry_fields,
    hm1_fields,
    hm2_fields,
    hm3_differential_fields,
    hm3_rewrite_fields,
    specialized_fields,
    tilde_h,
)


def plectic_rank1():
    """Volume flux on R^3, anchor d/dz, eta^(1) = x dy."""
    ch = chart3()
    d = 3
    zero = const_field(0.0, d)
    alg = AlgebroidData(ch, 1, [[zero, zero, const_field(1.0, d)]], {})
    conn = ConnectionData.flat(alg)
    h = FormField(ch, 3, {(0, 1, 2): const_field(1.0, d)})
    eta1 = BundleValuedForm(alg, 1, 1, {(0,): FormField(ch, 1, {(1,): f("x", ch)})})
    return PrenPlecticData(alg, conn, 2, h, {1: eta1})


def plectic_rank2(rng=None, consistent=True):
    """Two commuting anchors with half-gauge potentials on R^3."""
    ch = chart3()
    d = 3
    zero = const_field(0.0, d)
    one = const_field(1.0, d)
    alg = AlgebroidData(ch, 2, [[zero, zero, one], [zero, one, zero]], {})
    conn = ConnectionData.flat(alg)
    h = FormField(ch, 3, {(0, 1, 2): one})
    e1 = FormField(ch, 1, {(0,): f("-y/2", ch), (1,): f("x/2", ch)})
    e2 = FormField(ch, 1, {(0,): f("z/2", ch), (2,): f("-x/2", ch)})
    eta1 = BundleValuedForm(alg, 1, 1, {(0,): e1, (1,): e2})
    eta0_val = f("x", ch) if consistent else f("x + 1", ch)
    eta0 = BundleValuedForm(alg, 0, 2, {(0, 1): FormField(ch, 0, {(): eta0_val})})
    return PrenPlecticData(alg, conn, 2, h, {0: eta0, 1: eta1})


class TestTildeH:
    def test_no_top_form(self):
        data = plectic_rank1()
        assert tilde_h(data) is data.h

    def test_exact_shift(self):
        # h = 0, eta^(n) = A with dA = 2 dx^dy at n = 1
        ch = Chart(("x", "y"), ((-1.5, 1.5),) * 2)
        zero = const_field(0.0, 2)
        alg = AlgebroidData(ch, 1, [[const_field(1.0, 2), zero]], {})
        A = FormField(ch, 1, {(0,): f("-y", ch), (1,): f("x", ch)})
        data = PrenPlecticData(alg, ConnectionData.flat(alg), 1, FormField(ch, 2), {1: A})
        ht = tilde_h(data)
        for p in ch.sample(8, 1):
            assert ht.comp((0, 1)).value(p) == pytest.approx(2.0, abs=1e-14)

    def test_shifted_flux_stays_closed(self):
        rng = np.random.default_rng(2)
        ch = chart3()
        zero = const_field(0.0, 3)
        alg = AlgebroidData(ch, 1, [[zero, zero, const_field(1.0, 3)]], {})
        eta2 = FormField(ch, 2, {(0, 1): f(random_poly_source(rng, ch.coordinates), ch),
                                 (0, 2): f(random_poly_source(rng, ch.coordinates), ch)})
        data = PrenPlecticData(alg, ConnectionData.flat(alg), 2, FormField(ch, 3), {2: eta2})
        ht = tilde_h(data)
        dht = exterior_derivative(ht)
        assert max_abs_fields(dht.comps.values(), ch.sample(10, 3)) < 1e-10


class TestHM2:
    def test_flux_model_passes(self):
        data = plectic_rank1()
        assert max_abs_fields([x for _, x in hm2_fields(data)], data.alg.chart.sample(15, 4)) < 1e-12

    def test_missing_potential_fails_by_one(self):
        ch = chart3()
        zero = const_field(0.0, 3)
        alg = AlgebroidData(ch, 1, [[zero, zero, const_field(1.0, 3)]], {})
        h = FormField(ch, 3, {(0, 1, 2): const_field(1.0, 3)})
        data = PrenPlecticData(alg, ConnectionData.flat(alg), 2, h, {})
        assert max_abs_fields([x for _, x in hm2_fields(data)], ch.sample(10, 5)) == pytest.approx(1.0)

    def test_rank2_passes(self):
        data = plectic_rank2()
        assert max_abs_fields([x for _, x in hm2_fields(data)], data.alg.chart.sample(15, 6)) < 1e-12


class TestHM1:
    def test_flux_model(self):
        data = plectic_rank1()
        assert max_abs_fields([x for _, x in hm1_fields(data)], data.alg.chart.sample(10, 7)) < 1e-13

    def test_zero_anchor(self):
        ch = chart3()
        zero = const_field(0.0, 3)
        alg = AlgebroidData(ch, 1, [[zero, zero, zero]], {})
        h = FormField(ch, 3, {(0, 1, 2): f("x*y", ch)})
        data = PrenPlecticData(alg, ConnectionData.flat(alg), 2, h, {})
        assert max_abs_fields([x for _, x in hm1_fields(data)], ch.sample(8, 8)) == 0.0

    def test_exterior_derivative_oracle(self):
        # rotation anchors on R^3 against a constant-coefficient flux:
        # compare the flat-connection residual with d(iota_rho h~)
        ch = Chart(("x1", "x2", "x3"), ((-1.5, 1.5),) * 3)
        d = 3
        EPS = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1, (0, 2, 1): -1, (2, 1, 0): -1, (1, 0, 2): -1}
        anchor = []
        for a in range(3):
            row = []
            for i in range(3):
                src = ""
                for k in range(3):
                    e = EPS.get((a, i, k), 0)
                    if e == 1:
                        src = ch.coordinates[k]
                    elif e == -1:
                        src = "-" + ch.coordinates[k]
                row.append(f(src, ch) if src else const_field(0.0, d))
            anchor.append(row)
        structure = {(2, 0, 1): const_field(1.0, d), (0, 1, 2): const_field(1.0, d), (1, 0, 2): const_field(-1.0, d)}
        alg = AlgebroidData(ch, 3, anchor, structure)
        h = FormField(ch, 3, {(0, 1, 2): const_field(1.0, d)})
        data = PrenPlecticData(alg, ConnectionData.flat(alg), 2, h, {})
        rows = hm1_fields(data)
        pts = ch.sample(10, 9)
        ht = tilde_h(data)
        worst = 0.0
        by_label = dict(rows)
        for a in range(3):
            ref = exterior_derivative(interior_product(alg.anchor_vector(a), ht))
            for idx, fld in ref.comps.items():
                label = " ".join([f"a{a + 1}"] + [f"i{q + 1}" for q in idx])
                got = by_label.get(label)
                for p in pts:
                    gv = got.value(p) if got is not None else 0.0
                    worst = max(worst, abs(gv - fld.value(p)))
        assert worst < 1e-12


class TestDescent:
    def test_all_zero(self):
        data = plectic_rank1()
        assert descent_pairing_fields(data, 1) == []

    def test_consistent_tower_passes(self):
        data = plectic_rank2(consistent=True)
        pts = data.alg.chart.sample(12, 10)
        assert max_abs_fields([x for _, x in descent_pairing_fields(data, 1)], pts) < 1e-13
        assert max_abs_fields([x for _, x in descent_symmetry_fields(data, 1)], pts) < 1e-13

    def test_inconsistent_tower_fails_by_shift(self):
        data = plectic_rank2(consistent=False)
        pts = data.alg.chart.sample(12, 11)
        assert max_abs_fields([x for _, x in descent_pairing_fields(data, 1)], pts) == pytest.approx(1.0, abs=1e-13)

    def test_zero_anchor_leaves_lower_form(self):
        # with rho = 0 the pairing residual is the lower form itself
        ch = chart3()
        zero = const_field(0.0, 3)
        alg = AlgebroidData(ch, 2, [[zero] * 3, [zero] * 3], {})
        h = FormField(ch, 3)
        eta0 = BundleValuedForm(alg, 0, 2, {(0, 1): FormField(ch, 0, {(): f("x + 2", ch)})})
        data = PrenPlecticData(alg, ConnectionData.flat(alg), 2, h, {0: eta0})
        rows = descent_pairing_fields(data, 1)
        p = np.array([0.5, 0.0, 0.0])
        assert rows[0][1].value(p) == pytest.approx(2.5, abs=1e-14)

    def test_signed_cyclic_sum_brute_force(self):
        # independent evaluation of the signed two-term contraction
        data = plectic_rank2(consistent=True)
        alg = data.alg
        eta1 = data.eta_k(1)
        eta0 = data.eta_k(0)
        pts = alg.chart.sample(10, 12)
        rows = descent_pairing_fields(data, 1)
        assert len(rows) == 1
        for p in pts:
            i1 = interior_product(alg.anchor_vector(0), eta1.comp((1,))).comp(()).value(p)
            i2 = interior_product(alg.anchor_vector(1), eta1.comp((0,))).comp(()).value(p)
            ref = eta0.comp((0, 1)).comp(()).value(p) - (-i1 + i2)
            assert rows[0][1].value(p) == pytest.approx(ref, abs=1e-13)


class TestHM3:
    def test_all_zero(self):
        ch = chart3()
        zero = const_field(0.0, 3)
        alg = AlgebroidData(ch, 2, [[zero] * 3, [zero] * 3], {(0, 0, 1): f("x", ch)})
        data = PrenPlecticData(alg, ConnectionData.flat(alg), 2, FormField(ch, 3), {})
        for k in (0, 1):
            rows, _ = hm3_differential_fields(data, k)
            assert max_abs_fields([x for _, x in rows], ch.sample(8, 13)) == 0.0

    def test_k0_brute_force_constant_tower(self):
        # abelian rank-2 with constant eta^(0): the Lie term is the whole
        # identity and it vanishes; a linear eta^(0) leaves its anchor flow
        ch = chart3()
        zero = const_field(0.0, 3)
        one = const_field(1.0, 3)
        alg = AlgebroidData(ch, 2, [[zero, zero, one], [zero, one, zero]], {})
        conn = ConnectionData.flat(alg)
        eta0c = BundleValuedForm(alg, 0, 2, {(0, 1): FormField(ch, 0, {(): const_field(2.0, 3)})})
        data = PrenPlecticData(alg, conn, 2, FormField(ch, 3), {0: eta0c})
        rows, _ = hm3_differential_fields(data, 0)
        assert max_abs_fields([x for _, x in rows], ch.sample(8, 14)) == 0.0
        eta0v = BundleValuedForm(alg, 0, 2, {(0, 1): FormField(ch, 0, {(): f("z", ch)})})
        datav = PrenPlecticData(alg, conn, 2, FormField(ch, 3), {0: eta0v})
        rows, _ = hm3_differential_fields(datav, 0)
        # rho_1 = d/dz flows the component: residual |d_z z| = 1
        assert max_abs_fields([x for _, x in rows], ch.sample(8, 15)) == pytest.approx(1.0)

    def test_flux_model_passes(self):
        data = plectic_rank1()
        pts = data.alg.chart.sample(10, 16)
        for k in (0, 1):
            rows, _ = hm3_differential_fields(data, k)
            assert max_abs_fields([x for _, x in rows], pts) < 1e-13

    def test_literal_vs_rewrite_relation(self):
        # two-formula consistency at a flat connection:
        #   literal(a,b) - rewrite(a,b)
        #     = L_{rho_b} eta_a + d iota_{rho_b} eta_a - d iota_{rho_a} eta_b
        # for any descent-consistent tower
        rng = np.random.default_rng(41)
        ch = chart3()
        zero = const_field(0.0, 3)
        for trial in range(3):
            anchor = [
                [ExprField.parse(random_poly_source(rng, ch.coordinates, max_degree=1), ch) for _ in range(3)]
                for _ in range(2)
            ]
            structure = {(c, 0, 1): ExprField.parse(random_poly_source(rng, ch.coordinates, max_degree=1), ch) for c in range(2)}
            alg = AlgebroidData(ch, 2, anchor, structure)
            conn = ConnectionData.flat(alg)
            e1 = FormField(ch, 1, {(i,): ExprField.parse(random_poly_source(rng, ch.coordinates, max_degree=2), ch) for i in range(3)})
            e2 = FormField(ch, 1, {(i,): ExprField.parse(random_poly_source(rng, ch.coordinates, max_degree=2), ch) for i in range(3)})
            eta1 = BundleValuedForm(alg, 1, 1, {(0,): e1, (1,): e2})
            # descent-consistent eta^(0)
            val = (
                interior_product(alg.anchor_vector(1), e1).comp(())
                - interior_product(alg.anchor_vector(0), e2).comp(())
            )
            eta0 = BundleValuedForm(alg, 0, 2, {(0, 1): FormField(ch, 0, {(): val})})
            data = PrenPlecticData(alg, conn, 2, FormField(ch, 3), {0: eta0, 1: eta1})
            pts = ch.sample(8, 50 + trial)
            assert max_abs_fields([x for _, x in descent_pairing_fields(data, 1)], pts) < 1e-12
            literal, _ = hm3_differential_fields(data, 1)
            rewrite = hm3_rewrite_fields(data)
            lit = {}
            for label, fld in literal:
                lit[label] = fld
            rew = dict(rewrite)
            worst = 0.0
            for p in pts:
                for i in range(3):
                    label = f"a1 b2 i{i + 1}"
                    l12 = lit.get(label)
                    r12 = rew.get(label)
                    lv = l12.value(p) if l12 is not None else 0.0
                    rv = r12.value(p) if r12 is not None else 0.0
                    corr = (
                        lie_derivative(alg.anchor_vector(1), e1)
                        + exterior_derivative(interior_product(alg.anchor_vector(1), e1))
                        - exterior_derivative(interior_product(alg.anchor_vector(0), e2))
                    ).comp((i,)).value(p)
                    worst = max(worst, abs(lv - rv - corr))
            assert worst < 1e-10


class TestSpecialization:
    def test_flux_model_agreement(self):
        data = plectic_rank1()
        pts = data.alg.chart.sample(10, 17)
        sp = specialized_fields(data)
        for k in (0, 1):
            rows, _ = hm3_differential_fields(data, k)
            general = max_abs_fields([x for _, x in rows], pts)
            reduced = max_abs_fields([x for _, x in sp[f"hm3[{k}]"]], pts)
            assert abs(general - reduced) < 1e-10

    def test_all_zero_data(self):
        ch = chart3()
        zero = const_field(0.0, 3)
        alg = AlgebroidData(ch, 1, [[zero] * 3], {})
        data = PrenPlecticData(alg, ConnectionData.flat(alg), 2, FormField(ch, 3), {})
        sp = specialized_fields(data)
        pts = ch.sample(6, 18)
        for rows in sp.values():
            assert max_abs_fields([x for _, x in rows], pts) == 0.0

    def test_rejects_nonflat(self):
        data = plectic_rank1()
        gamma = [[[f("x", data.alg.chart)] * 3]]
        bad = PrenPlecticData(data.alg, ConnectionData(data.alg, gamma), 2, data.h, data.eta)
        with pytest.raises(ValueError):
            specialized_fields(bad)

    def test_multimomentum_mode(self):
        # with eta^(k) = 0 below the top the reduced tower keeps only the
        # flux condition and the anchor-flow identity
        data = plectic_rank1()
        pts = data.alg.chart.sample(8, 19)
        sp = specialized_fields(data)
        assert max_abs_fields([x for _, x in sp["hm3[0]"]], pts) == 0.0

    def test_hm2_pass_implies_hm1(self):
        data = plectic_rank1()
        pts = data.alg.chart.sample(20, 20)
        hm2 = max_abs_fields([x for _, x in hm2_fields(data)], pts)
        hm1 = max_abs_fields([x for _, x in hm1_fields(data)], pts)
        assert hm2 < 1e-10
        assert hm1 < 1e-8


class TestScaling:
    def test_residuals_scale_linearly(self):
        data = plectic_rank2(consistent=False)
        alg = data.alg
        ch = alg.chart
        scaled_eta = {
            0: BundleValuedForm(alg, 0, 2, {k: v.scaled(2.0) for k, v in data.eta_k(0).comps.items()}),
            1: BundleValuedForm(alg, 1, 1, {k: v.scaled(2.0) for k, v in data.eta_k(1).comps.items()}),
        }
        doubled = PrenPlecticData(alg, data.conn, 2, data.h.scaled(2.0), scaled_eta)
        pts = ch.sample(12, 21)
        for fn in (hm2_fields, hm1_fields):
            base = max_abs_fields([x for _, x in fn(data)], pts)
            twice = max_abs_fields([x for _, x in fn(doubled)], pts)
            assert abs(twice - 2.0 * base) < 1e-10
        base = max_abs_fields([x for _, x in descent_pairing_fields(data, 1)], pts)
        twice = max_abs_fields([x for _, x in descent_pairing_fields(doubled, 1)], pts)
        assert abs(twice - 2.0 * base) < 1e-10


class TestReduceN1:
    def test_lifted_rotation_matches_momentum_module(self):
        from momsec.momentum import MomentumData, h1_fields as mh1, h2_fields as mh2, h3_fields as mh3

        ch = Chart(("x", "y"), ((-1.5, 1.5),) * 2)
        alg = AlgebroidData(ch, 1, [[f("-y", ch), f("x", ch)]], {})
        conn = ConnectionData.flat(alg)
        eta1 = FormField(ch, 1, {(0,): f("-y/2", ch), (1,): f("x/2", ch)})
        eta0 = BundleValuedForm(alg, 0, 1, {(0,): FormField(ch, 0, {(): f("-(x^2 + y^2)/2", ch)})})
        data = PrenPlecticData(alg, conn, 1, FormField(ch, 2), {0: eta0, 1: eta1})
        pts = ch.sample(20, 22)
        ht = tilde_h(data)
        mu = [data.eta_k(0).comp((0,)).comp(())]
        mdata = MomentumData(alg, conn, ht, mu)
        pairs = (
            (hm1_fields(data), mh1(mdata)),
            (hm2_fields(data), mh2(mdata)),
            (hm3_differential_fields(data, 0)[0], mh3(mdata)),
        )
        for hm_rows, h_rows in pairs:
            hm = max_abs_fields([x for _, x in hm_rows], pts)
            h = max_abs_fields([x for _, x in h_rows], pts)
            assert abs(hm - h) < 1e-12
