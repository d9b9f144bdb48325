import json
import pathlib
import sys
from functools import partial
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import chart3, f, random_poly_source
from momsec.algebroid import AlgebroidData
from momsec.connections import ConnectionData, dual_covariant_derivative
from momsec.fields import (
    Chart,
    ExprField,
    FormField,
    const_field,
    exterior_derivative,
    field_sum_d,
    index_label,
    interior_product,
    lie_derivative,
    max_abs_fields,
    sort_signed,
    wedge,
)
from momsec.fixtures import fixture_bytes, fixture_names
from momsec.modelfile import load_model_bytes
from momsec.momentum import condition_fields
from momsec.momentum import h1_fields as mom_h1_fields
from momsec.multisym import BundleValuedForm, PrenPlecticData, TowerOperator, tilde_h
from test_sparse import SOURCES, algebroids, field, forms

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

from perfbench.models import son_model_bytes  # noqa: E402


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
        assert max_abs_fields([x for _, x in TowerOperator(data).hm2()], data.alg.chart.sample(15, 4)) < 1e-12

    def test_missing_potential_fails_by_one(self):
        ch = chart3()
        zero = const_field(0.0, 3)
        alg = AlgebroidData(ch, 1, [[zero, zero, const_field(1.0, 3)]], {})
        h = FormField(ch, 3, {(0, 1, 2): const_field(1.0, 3)})
        data = PrenPlecticData(alg, ConnectionData.flat(alg), 2, h, {})
        assert max_abs_fields([x for _, x in TowerOperator(data).hm2()], ch.sample(10, 5)) == pytest.approx(1.0)

    def test_rank2_passes(self):
        data = plectic_rank2()
        assert max_abs_fields([x for _, x in TowerOperator(data).hm2()], data.alg.chart.sample(15, 6)) < 1e-12


class TestHM1:
    def test_flux_model(self):
        data = plectic_rank1()
        assert max_abs_fields([x for _, x in TowerOperator(data).hm1()], data.alg.chart.sample(10, 7)) < 1e-13

    def test_zero_anchor(self):
        ch = chart3()
        zero = const_field(0.0, 3)
        alg = AlgebroidData(ch, 1, [[zero, zero, zero]], {})
        h = FormField(ch, 3, {(0, 1, 2): f("x*y", ch)})
        data = PrenPlecticData(alg, ConnectionData.flat(alg), 2, h, {})
        assert max_abs_fields([x for _, x in TowerOperator(data).hm1()], ch.sample(8, 8)) == 0.0

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
        rows = TowerOperator(data).hm1()
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
        assert TowerOperator(data).descent_pairing(1) == []

    def test_consistent_tower_passes(self):
        data = plectic_rank2(consistent=True)
        pts = data.alg.chart.sample(12, 10)
        assert max_abs_fields([x for _, x in TowerOperator(data).descent_pairing(1)], pts) < 1e-13
        assert max_abs_fields([x for _, x in TowerOperator(data).descent_symmetry(1)], pts) < 1e-13

    def test_inconsistent_tower_fails_by_shift(self):
        data = plectic_rank2(consistent=False)
        pts = data.alg.chart.sample(12, 11)
        rows = TowerOperator(data).descent_pairing(1)
        assert max_abs_fields([x for _, x in rows], pts) == pytest.approx(1.0, abs=1e-13)

    def test_zero_anchor_leaves_lower_form(self):
        # with rho = 0 the pairing residual is the lower form itself
        ch = chart3()
        zero = const_field(0.0, 3)
        alg = AlgebroidData(ch, 2, [[zero] * 3, [zero] * 3], {})
        h = FormField(ch, 3)
        eta0 = BundleValuedForm(alg, 0, 2, {(0, 1): FormField(ch, 0, {(): f("x + 2", ch)})})
        data = PrenPlecticData(alg, ConnectionData.flat(alg), 2, h, {0: eta0})
        rows = TowerOperator(data).descent_pairing(1)
        p = np.array([0.5, 0.0, 0.0])
        assert rows[0][1].value(p) == pytest.approx(2.5, abs=1e-14)

    def test_signed_cyclic_sum_brute_force(self):
        # independent evaluation of the signed two-term contraction
        data = plectic_rank2(consistent=True)
        alg = data.alg
        eta1 = data.eta_k(1)
        eta0 = data.eta_k(0)
        pts = alg.chart.sample(10, 12)
        rows = TowerOperator(data).descent_pairing(1)
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
            rows, _ = TowerOperator(data).hm3(k)
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
        rows, _ = TowerOperator(data).hm3(0)
        assert max_abs_fields([x for _, x in rows], ch.sample(8, 14)) == 0.0
        eta0v = BundleValuedForm(alg, 0, 2, {(0, 1): FormField(ch, 0, {(): f("z", ch)})})
        datav = PrenPlecticData(alg, conn, 2, FormField(ch, 3), {0: eta0v})
        rows, _ = TowerOperator(datav).hm3(0)
        # rho_1 = d/dz flows the component: residual |d_z z| = 1
        assert max_abs_fields([x for _, x in rows], ch.sample(8, 15)) == pytest.approx(1.0)

    def test_flux_model_passes(self):
        data = plectic_rank1()
        pts = data.alg.chart.sample(10, 16)
        for k in (0, 1):
            rows, _ = TowerOperator(data).hm3(k)
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
            assert max_abs_fields([x for _, x in TowerOperator(data).descent_pairing(1)], pts) < 1e-12
            literal, _ = TowerOperator(data).hm3(1)
            rewrite = TowerOperator(data).rewrite()
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
        sp = TowerOperator(data).specialized()
        for k in (0, 1):
            rows, _ = TowerOperator(data).hm3(k)
            general = max_abs_fields([x for _, x in rows], pts)
            reduced = max_abs_fields([x for _, x in sp[f"hm3[{k}]"]], pts)
            assert abs(general - reduced) < 1e-10

    def test_all_zero_data(self):
        ch = chart3()
        zero = const_field(0.0, 3)
        alg = AlgebroidData(ch, 1, [[zero] * 3], {})
        data = PrenPlecticData(alg, ConnectionData.flat(alg), 2, FormField(ch, 3), {})
        sp = TowerOperator(data).specialized()
        pts = ch.sample(6, 18)
        for rows in sp.values():
            assert max_abs_fields([x for _, x in rows], pts) == 0.0

    def test_rejects_nonflat(self):
        data = plectic_rank1()
        gamma = [[[f("x", data.alg.chart)] * 3]]
        bad = PrenPlecticData(data.alg, ConnectionData(data.alg, gamma), 2, data.h, data.eta)
        with pytest.raises(ValueError):
            TowerOperator(bad).specialized()

    def test_multimomentum_mode(self):
        # with eta^(k) = 0 below the top the reduced tower keeps only the
        # flux condition and the anchor-flow identity
        data = plectic_rank1()
        pts = data.alg.chart.sample(8, 19)
        sp = TowerOperator(data).specialized()
        assert max_abs_fields([x for _, x in sp["hm3[0]"]], pts) == 0.0

    def test_hm2_pass_implies_hm1(self):
        data = plectic_rank1()
        pts = data.alg.chart.sample(20, 20)
        hm2 = max_abs_fields([x for _, x in TowerOperator(data).hm2()], pts)
        hm1 = max_abs_fields([x for _, x in TowerOperator(data).hm1()], pts)
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
        for reading in (TowerOperator.hm2, TowerOperator.hm1):
            base = max_abs_fields([x for _, x in reading(TowerOperator(data))], pts)
            twice = max_abs_fields([x for _, x in reading(TowerOperator(doubled))], pts)
            assert abs(twice - 2.0 * base) < 1e-10
        base = max_abs_fields([x for _, x in TowerOperator(data).descent_pairing(1)], pts)
        twice = max_abs_fields([x for _, x in TowerOperator(doubled).descent_pairing(1)], pts)
        assert abs(twice - 2.0 * base) < 1e-10


class TestReduceN1:
    def test_lifted_rotation_matches_momentum_module(self):
        ch = Chart(("x", "y"), ((-1.5, 1.5),) * 2)
        alg = AlgebroidData(ch, 1, [[f("-y", ch), f("x", ch)]], {})
        conn = ConnectionData.flat(alg)
        eta1 = FormField(ch, 1, {(0,): f("-y/2", ch), (1,): f("x/2", ch)})
        eta0 = BundleValuedForm(alg, 0, 1, {(0,): FormField(ch, 0, {(): f("-(x^2 + y^2)/2", ch)})})
        data = PrenPlecticData(alg, conn, 1, FormField(ch, 2), {0: eta0, 1: eta1})
        pts = ch.sample(20, 22)
        ht = tilde_h(data)
        mu = [data.eta_k(0).comp((0,)).comp(())]
        tower = TowerOperator(data)
        pairs = zip((tower.hm1(), tower.hm2(), tower.hm3(0)[0]), condition_fields(alg, conn, ht, mu))
        for hm_rows, h_rows in pairs:
            hm = max_abs_fields([x for _, x in hm_rows], pts)
            h = max_abs_fields([x for _, x in h_rows], pts)
            assert abs(hm - h) < 1e-12


# ---------------------------------------------------------------------------
# Reference: the separate builders the tower operator replaced.  Each builds
# its own Lie derivatives, contractions and exterior derivatives, loops over
# index ranges and multiplies by the trace of Gamma even when it is zero.
# Nodes are shared, so the operator's rows must be these rows node for node.


def ref_hm1_fields(data):
    ht = tilde_h(data)
    return mom_h1_fields(data.conn, [interior_product(data.alg.anchor_vector(a), ht) for a in range(data.alg.rank)])


def ref_hm2_fields(data):
    ht = tilde_h(data)
    eta = data.eta_k(data.n - 1)
    deriv = dual_covariant_derivative(data.conn, [eta.comp((a,)) for a in range(data.alg.rank)])
    out = []
    for a in range(data.alg.rank):
        out += (deriv[a] - interior_product(data.alg.anchor_vector(a), ht)).rows(index_label(a=a))
    return out


def signed_piece(op, bv, b):
    """``op`` of ``bv`` at ``b`` as the operator builds it: ``op`` of the
    stored component, times the permutation sign."""
    canon, sign = sort_signed(b)
    return op(bv.comp(canon or b)).scaled(float(sign))


def _cyclic_sign(shift, length):
    return 1 if (shift * (length - 1)) % 2 == 0 else -1


def ref_descent_pairing_fields(data, k):
    alg = data.alg
    m = data.n - k + 1
    lower, upper = data.eta_k(k - 1), data.eta_k(k)
    out = []
    for btuple in combinations(range(alg.rank), m):
        lhs = lower.comp(btuple)
        parts = []
        for shift in range(m):
            rotated = btuple[shift:] + btuple[:shift]
            term = signed_piece(partial(interior_product, alg.anchor_vector(rotated[0])), upper, rotated[1:])
            parts.append(term if _cyclic_sign(shift, m) > 0 else term.scaled(-1.0))
        rhs = FormField(alg.chart, k - 1).plus(parts).scaled(-1.0 if k % 2 == 1 else 1.0)
        out += (lhs - rhs).rows(index_label(b=btuple))
    return out


def ref_descent_symmetry_fields(data, k):
    alg = data.alg
    mslots = data.n - k
    upper = data.eta_k(k)
    out = []
    for btuple in combinations(range(alg.rank), mslots):
        for s in range(alg.rank):
            for m in range(mslots):
                swapped = btuple[:m] + (s,) + btuple[m + 1 :]
                first = interior_product(alg.anchor_vector(s), upper.comp(btuple))
                second = signed_piece(partial(interior_product, alg.anchor_vector(btuple[m])), upper, swapped)
                out += (first + second).rows(index_label(s=s, m=m, b=btuple))
    return out


def pair_into_checked_slot(bv, btuple, position, coefficients):
    slots = [(btuple[:position] + (e,) + btuple[position + 1 :], c) for e, c in enumerate(coefficients)]
    parts = [bv.comp(s).mul_field(c) for s, c in slots if not c.is_zero]
    return FormField(bv.alg.chart, bv.form_degree).plus(parts)


def _contract(forms, v, keys):
    terms = [f * v[i] for key in keys if key in forms for (i,), f in forms[key].comps.items() if not v[i].is_zero]
    return field_sum_d(terms, len(v))


def _bracket_parts(data, eta_k, a, btuple):
    parts = []
    for pos, bi in enumerate(btuple):
        sign = -1.0 if (pos + 1) % 2 == 1 else 1.0
        rest = btuple[:pos] + btuple[pos + 1 :]
        for c, C in data.alg.brackets(a, bi).items():
            parts.append(eta_k.comp((c,) + rest).mul_field(C).scaled(sign))
    return parts


def ref_hm3_differential_fields(data, k):
    alg, conn = data.alg, data.conn
    m = data.n - k
    eta_k = data.eta_k(k)
    zero = FormField(alg.chart, k)
    residuals = []
    term_fields = {"lie": [], "bracket": [], "ambiguous": [], "wedge": [], "pairing": []}
    for a in range(alg.rank):
        rho_a = alg.anchor_vector(a)
        gammas = [(c, gamma) for (c, lower), gamma in conn.forms.items() if lower == a and k >= 1]
        for btuple in combinations(range(alg.rank), m):
            base = eta_k.comp(btuple)
            t_lie = lie_derivative(rho_a, base)
            t_bracket = zero.plus(_bracket_parts(data, eta_k, a, btuple))
            t_wedge = zero
            pairing = []
            for pos, bi in enumerate(btuple):
                sign = -1.0 if (pos + 1) % 2 == 1 else 1.0
                for c, gamma in gammas:
                    slot = btuple[:pos] + (c,) + btuple[pos + 1 :]
                    iota = signed_piece(partial(interior_product, alg.anchor_vector(bi)), eta_k, slot)
                    t_wedge = t_wedge - wedge(gamma, iota).scaled(sign)
                coeffs = [_contract(conn.forms, alg.anchor[bi], [(c, a)]) for c in range(alg.rank)]
                pairing.append(pair_into_checked_slot(eta_k, btuple, pos, coeffs).scaled(sign))
            t_pairing = zero.plus(pairing)
            t_ambiguous = zero
            collapse = sum(((-1) ** i) for i in range(1, m + 1))
            if k >= 1 and collapse != 0:
                trace = _contract(conn.forms, alg.anchor[a], [(b, b) for b in range(alg.rank)])
                t_ambiguous = base.mul_field(trace).scaled(float(collapse))
            total = zero.plus([t_lie, t_bracket, t_ambiguous, t_wedge, t_pairing])
            label = index_label(a=a, b=btuple)
            residuals += total.rows(label)
            for key, form in zip(term_fields, (t_lie, t_bracket, t_ambiguous, t_wedge, t_pairing)):
                term_fields[key] += form.rows(label)
    return residuals, term_fields


def ref_hm3_rewrite_fields(data):
    alg, conn = data.alg, data.conn
    if data.n < 2:
        return []
    eta1, eta2 = data.eta_k(data.n - 1), data.eta_k(data.n - 2)
    out = []
    for a in range(alg.rank):
        for b in range(a + 1, alg.rank):
            ed = lie_derivative(alg.anchor_vector(a), eta1.comp((b,))) - lie_derivative(
                alg.anchor_vector(b), eta1.comp((a,))
            )
            for c, C in alg.brackets(a, b).items():
                ed = ed - eta1.comp((c,)).mul_field(C)
            dlower = exterior_derivative(eta2.comp((a, b)))
            for c in range(alg.rank):
                for lower, idx in ((a, (c, b)), (b, (a, c))):
                    gamma = conn.forms.get((c, lower))
                    if gamma is not None:
                        dlower = dlower - wedge(gamma, eta2.comp(idx))
            out += (ed - dlower).rows(index_label(a=a, b=b))
    return out


def ref_specialized_fields(data):
    alg = data.alg
    if not data.conn.is_flat:
        raise ValueError("the specialization requires a flat connection")
    out = {}
    for k in range(data.n - 1, -1, -1):
        m = data.n - k
        eta_k = data.eta_k(k)
        rows = []
        for a in range(alg.rank):
            for btuple in combinations(range(alg.rank), m):
                acc = lie_derivative(alg.anchor_vector(a), eta_k.comp(btuple))
                acc = acc.plus(_bracket_parts(data, eta_k, a, btuple))
                if k >= 1:
                    acc = acc - signed_piece(exterior_derivative, data.eta_k(k - 1), (a,) + btuple)
                rows += acc.rows(index_label(a=a, b=btuple))
        out[f"hm3[{k}]"] = rows
    return out


def assert_same_rows(rows, reference):
    assert [label for label, _ in rows] == [label for label, _ in reference]
    assert all(f is g for (_, f), (_, g) in zip(rows, reference))


def assert_matches_reference(data):
    """Every reading of the operator is the reference builders' rows, node for node."""
    tower = TowerOperator(data)
    assert_same_rows(tower.hm1(), ref_hm1_fields(data))
    assert_same_rows(tower.hm2(), ref_hm2_fields(data))
    for k in range(1, data.n):
        assert_same_rows(tower.descent_pairing(k), ref_descent_pairing_fields(data, k))
        assert_same_rows(tower.descent_symmetry(k), ref_descent_symmetry_fields(data, k))
    for k in range(data.n):
        rows, terms = tower.hm3(k)
        ref_rows, ref_terms = ref_hm3_differential_fields(data, k)
        assert_same_rows(rows, ref_rows)
        assert list(terms) == list(ref_terms)
        for name in terms:
            assert_same_rows(terms[name], ref_terms[name])
    assert_same_rows(tower.rewrite(), ref_hm3_rewrite_fields(data))
    if data.conn.is_flat:
        sp, ref_sp = tower.specialized(), ref_specialized_fields(data)
        assert list(sp) == list(ref_sp)
        for key in sp:
            assert_same_rows(sp[key], ref_sp[key])
        # at Gamma = 0 the reduced k = 0 identity is the identity itself
        assert_same_rows(sp["hm3[0]"], tower.hm3(0)[0])
    else:
        with pytest.raises(ValueError):
            tower.specialized()


@st.composite
def towers(draw):
    """A tower of degree n in {1, 2, 3} on a random algebroid whose chart
    has room for it (n + 1 coordinates, as a model file requires), its
    connection flat or with Gamma components drawn from the same sources."""
    alg = draw(algebroids())
    chart, rank = alg.chart, alg.rank
    assume(chart.dim >= 2)
    n = draw(st.integers(1, min(3, chart.dim - 1)))

    def source():
        return field(chart, draw(st.sampled_from(SOURCES)))

    conn = ConnectionData.flat(alg)
    if draw(st.booleans()):
        conn = ConnectionData(alg, [[[source() for _ in range(chart.dim)] for _ in range(rank)] for _ in range(rank)])
    eta = {
        k: BundleValuedForm(alg, k, n - k, {b: draw(forms(chart, k)) for b in combinations(range(rank), n - k)})
        for k in range(n)
    }
    eta[n] = draw(forms(chart, n))
    return PrenPlecticData(alg, conn, n, draw(forms(chart, n + 1)), eta)


@settings(max_examples=60, deadline=None)
@given(towers())
def test_operator_rows_are_the_reference_rows(data):
    assert_matches_reference(data)


MODELS = {name: lambda name=name: fixture_bytes(name) for name in fixture_names()}
MODELS.update({"son(3, 1)": lambda: son_model_bytes(3, 1), "son(4, 1)": lambda: son_model_bytes(4, 1)})


@pytest.mark.parametrize("name", [name for name in MODELS if "multisym" in json.loads(MODELS[name]())])
def test_operator_rows_are_the_reference_rows_on_models(name):
    assert_matches_reference(load_model_bytes(MODELS[name]()).multisym)



@pytest.mark.parametrize("name", ["son(3, 1)", "son(4, 1)"])
def test_a_piece_at_a_permuted_tuple_is_the_stored_piece_negated(name):
    model = load_model_bytes(MODELS[name]())
    tower = TowerOperator(model.multisym)
    n, rank = tower.data.n, tower.data.alg.rank
    for k in range(n - 1):
        for b in combinations(range(rank), n - k):
            swapped = (b[1], b[0]) + b[2:]
            assert tower.d(k, swapped).comps == tower.d(k, b).scaled(-1.0).comps
            assert tower.lie(k, 0, swapped).comps == tower.lie(k, 0, b).scaled(-1.0).comps
