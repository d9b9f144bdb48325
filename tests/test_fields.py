import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chart2, chart3, f, gradient, lie_bracket, random_poly_source, structure
from momsec import fields
from momsec.algebroid import AlgebroidData, EForm
from momsec.fields import (
    _MatrixInverse,
    Chart,
    ConstField,
    CoordField,
    ExprField,
    FormField,
    MetricField,
    Program,
    ScalarField,
    SingularMatrixError,
    VectorField,
    const_field,
    diagonal_cond_max,
    exterior_derivative,
    field_sum_d,
    finite_only,
    interior_product,
    lie_derivative,
    lie_derivative_metric,
    matrix_inverse_fields,
    max_abs_fields,
    sort_signed,
    wedge,
)
from momsec.hamiltonian import PhasePolynomial
from momsec.modelfile import load_model_bytes
from momsec.multisym import BundleValuedForm


def random_form(chart: Chart, degree: int, rng) -> FormField:
    comps = {}
    for idx in itertools.combinations(range(chart.dim), degree):
        comps[idx] = ExprField.parse(random_poly_source(rng, chart.coordinates, max_degree=3), chart)
    return FormField(chart, degree, comps)


def random_vector(chart: Chart, rng) -> VectorField:
    return VectorField(
        chart,
        [ExprField.parse(random_poly_source(rng, chart.coordinates, max_degree=2), chart) for _ in range(chart.dim)],
    )


class TestChart:
    def test_validation(self):
        with pytest.raises(ValueError):
            Chart(("x",), ((1.0, 1.0),))
        with pytest.raises(ValueError):
            Chart(("x", "y"), ((0.0, 1.0),))
        with pytest.raises(ValueError):
            Chart(("x",), ((-1e308, 1e308),))

    def test_sampling_deterministic(self):
        ch = chart2()
        a = ch.sample(8, 42)
        b = ch.sample(8, 42)
        assert np.array_equal(a, b)
        lo = np.array([-1.5, -1.5])
        hi = np.array([1.5, 1.5])
        assert np.all(a >= lo) and np.all(a <= hi)


class TestZeroFolding:
    """The algebra folds structural zeros itself: an operation with a zero
    operand gives a structural zero or the other operand and builds no node."""

    @pytest.fixture(autouse=True)
    def _count_builds(self, monkeypatch):
        # every field class defines __init__, which can be wrapped and restored
        # (an overridden __new__ cannot be removed again in CPython)
        self.built = []
        for cls in ScalarField.__subclasses__():
            def counting_init(node, *args, _init=cls.__init__, **kwargs):
                self.built.append(type(node).__name__)
                _init(node, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting_init)

    def _no_nodes_built(self, op):
        self.built.clear()
        result = op()
        assert self.built == []
        return result

    def test_scalar_operations(self):
        ch = chart2()
        z, g = const_field(0.0, 2), f("x*y", ch)
        assert z.is_zero and not g.is_zero and not const_field(2.0, 2).is_zero
        assert ConstField(0.0, 2).is_zero and not ScalarField.is_zero
        self.built.clear()
        g * g
        assert self.built == ["ProdField"]
        for op, expected in (
            (lambda: g * z, z),
            (lambda: z * g, z),
            (lambda: -z, z),
            (lambda: z.scaled(3.0), z),
            (lambda: g + z, g),
            (lambda: z + g, g),
            (lambda: g - z, g),
            (lambda: field_sum_d([z, g], 2), g),
        ):
            assert self._no_nodes_built(op) is expected
        assert self._no_nodes_built(lambda: z.partial(0)).is_zero
        assert self._no_nodes_built(lambda: field_sum_d([z, z], 2)).is_zero

    def test_form_operations(self):
        ch = chart2()
        g = f("x*y", ch)
        empty, w = FormField(ch, 1), FormField(ch, 1, {(0,): g})
        v = VectorField(ch, [g, g])
        for op, expected in (
            (lambda: w + empty, w),
            (lambda: empty + w, w),
            (lambda: w - empty, w),
            (lambda: empty.scaled(2.0), empty),
            (lambda: empty.mul_field(g), empty),
        ):
            assert self._no_nodes_built(op) is expected
        for op in (
            lambda: w.mul_field(const_field(0.0, 2)),
            lambda: wedge(empty, w),
            lambda: wedge(w, empty),
            lambda: interior_product(v, empty),
            lambda: exterior_derivative(empty),
        ):
            assert self._no_nodes_built(op).is_zero

    def test_apply_anchor_and_phase_polynomial(self):
        ch = chart2()
        z, g = const_field(0.0, 2), f("x*y", ch)
        alg = AlgebroidData(ch, 1, [[g, z]], {})
        assert self._no_nodes_built(lambda: alg.apply_anchor(0, z)) is z
        poly = self._no_nodes_built(lambda: PhasePolynomial(2, {(0,): z, (): g}))
        assert poly.comps == {(): g}


class TestSharing:
    """The algebra looks every node up before it builds it, so an
    operation asked for twice gives one node."""

    def test_each_operation_built_twice_is_one_node(self):
        ch = chart2()
        a, b = f("x*y", ch), f("x + y", ch)
        for op in (
            lambda: a + b,
            lambda: a - b,
            lambda: a * b,
            lambda: -a,
            lambda: a.scaled(2.5),
            lambda: a.partial(1),
            lambda: field_sum_d([a, b, a], 2),
            lambda: const_field(3.0, 2),
        ):
            assert op() is op()
        # a sum is keyed by its flattened terms, in order; nothing commutes
        assert (a + b) + a is field_sum_d([a, b, a], 2) is a + (b + a)
        assert a * b is not b * a and a + b is not b + a
        assert -a is a.scaled(-1.0)

    def test_inverse_entries_are_shared(self):
        ch = chart2()
        g = MetricField(ch, {(0, 0): f("2 + x^2", ch), (0, 1): f("x*y/2", ch), (1, 1): f("2 + y^2", ch)})
        first, second = g.inverse(), g.inverse()
        assert all(x is y for r, s in zip(first, second) for x, y in zip(r, s))
        assert matrix_inverse_fields(g.g)[1][0] is first[1][0]


class TestExteriorDerivative:
    def test_curl_example(self):
        # A = (-y, x): dA = 2 dx^dy
        ch = chart2()
        A = FormField(ch, 1, {(0,): f("-y", ch), (1,): f("x", ch)})
        dA = exterior_derivative(A)
        for p in ch.sample(10, 1):
            assert dA.comp((0, 1)).value(p) == pytest.approx(2.0, abs=1e-14)

    def test_d_of_constant(self):
        ch = chart2()
        df = exterior_derivative(FormField(ch, 0, {(): const_field(3.0, 2)}))
        assert df.is_zero

    def test_d_squared_zero_random(self):
        rng = np.random.default_rng(7)
        for d in (2, 3, 4):
            ch = Chart(tuple("abcd"[:d]), ((-2.0, 2.0),) * d)
            pts = ch.sample(20, 3)
            for k in range(d - 1):
                for _ in range(3):
                    omega = random_form(ch, k, rng)
                    dd = exterior_derivative(exterior_derivative(omega))
                    assert dd.degree == k + 2
                    assert max_abs_fields(dd.comps.values(), pts) < 1e-10


class TestWedge:
    def test_basis_case(self):
        ch = chart2()
        dx = FormField(ch, 1, {(0,): const_field(1.0, 2)})
        dy = FormField(ch, 1, {(1,): const_field(1.0, 2)})
        w = wedge(dx, dy)
        assert w.comp((0, 1)).value(np.zeros(2)) == 1.0

    def test_function_coefficients(self):
        # (x dx) ^ (y dy) = xy dx^dy
        ch = chart2()
        a = FormField(ch, 1, {(0,): f("x", ch)})
        b = FormField(ch, 1, {(1,): f("y", ch)})
        w = wedge(a, b)
        for p in ch.sample(10, 2):
            assert w.comp((0, 1)).value(p) == pytest.approx(p[0] * p[1], abs=1e-14)

    def test_graded_symmetry(self):
        rng = np.random.default_rng(12)
        ch = chart3()
        pts = ch.sample(12, 4)
        for k, l in ((1, 1), (1, 2)):
            a = random_form(ch, k, rng)
            b = random_form(ch, l, rng)
            lhs = wedge(a, b)
            rhs = wedge(b, a).scaled((-1.0) ** (k * l))
            assert max_abs_fields((lhs - rhs).comps.values(), pts) < 1e-12

    def test_degree_overflow(self):
        ch = chart2()
        a = FormField(ch, 1, {(0,): f("x", ch)})
        b = FormField(ch, 2, {(0, 1): f("y", ch)})
        with pytest.raises(ValueError):
            wedge(a, b)


class TestInteriorProduct:
    def test_rotation_area_form(self):
        # v = x d_y - y d_x into dx^dy gives -x dx - y dy
        ch = chart2()
        v = VectorField(ch, [f("-y", ch), f("x", ch)])
        B = FormField(ch, 2, {(0, 1): const_field(1.0, 2)})
        ivB = interior_product(v, B)
        for p in ch.sample(10, 5):
            assert ivB.comp((0,)).value(p) == pytest.approx(-p[0], abs=1e-14)
            assert ivB.comp((1,)).value(p) == pytest.approx(-p[1], abs=1e-14)

    def test_double_contraction_vanishes(self):
        rng = np.random.default_rng(3)
        ch = chart3()
        pts = ch.sample(10, 6)
        v = random_vector(ch, rng)
        omega = random_form(ch, 2, rng)
        assert max_abs_fields(interior_product(v, interior_product(v, omega)).comps.values(), pts) < 1e-12

    def test_basis_pairing(self):
        ch = chart2()
        v = VectorField(ch, [const_field(1.0, 2), const_field(0.0, 2)])
        dx = FormField(ch, 1, {(0,): const_field(1.0, 2)})
        assert interior_product(v, dx).comp(()).value(np.zeros(2)) == 1.0

    def test_graded_derivation(self):
        # i_v(a ^ b) = (i_v a) ^ b + (-1)^k a ^ (i_v b)
        rng = np.random.default_rng(9)
        ch = chart3()
        pts = ch.sample(10, 7)
        v = random_vector(ch, rng)
        a = random_form(ch, 1, rng)
        b = random_form(ch, 2, rng)
        lhs = interior_product(v, wedge(a, b))
        rhs = wedge(interior_product(v, a), b) - wedge(a, interior_product(v, b))
        assert max_abs_fields((lhs - rhs).comps.values(), pts) < 1e-10


class TestLieDerivative:
    def test_dilation_of_area_form(self):
        ch = chart2()
        v = VectorField(ch, [f("x", ch), const_field(0.0, 2)])
        B = FormField(ch, 2, {(0, 1): const_field(1.0, 2)})
        L = lie_derivative(v, B)
        for p in ch.sample(8, 8):
            assert L.comp((0, 1)).value(p) == pytest.approx(1.0, abs=1e-14)

    def test_zero_vector(self):
        ch = chart2()
        B = FormField(ch, 2, {(0, 1): f("x*y", ch)})
        assert max_abs_fields(lie_derivative(VectorField.zero(ch), B).comps.values(), ch.sample(5, 1)) == 0.0

    def test_cartan_equals_component_formula(self):
        # L_v w (2-form): v^k d_k w_ij + d_i v^k w_kj + d_j v^k w_ik
        rng = np.random.default_rng(21)
        ch = chart3()
        pts = ch.sample(15, 9)
        for _ in range(4):
            v = random_vector(ch, rng)
            omega = random_form(ch, 2, rng)
            cartan = lie_derivative(v, omega)
            worst = 0.0
            for p in pts:
                w = np.zeros((3, 3))
                dw = np.zeros((3, 3, 3))
                for i in range(3):
                    for j in range(3):
                        comp = omega.comp((i, j))
                        w[i, j] = comp.value(p)
                        dw[:, i, j] = gradient(comp, p)
                vv = np.array([v.comps[k].value(p) for k in range(3)])
                dv = np.array([gradient(v.comps[k], p) for k in range(3)])
                for i in range(3):
                    for j in range(i + 1, 3):
                        direct = (
                            sum(vv[k] * dw[k, i, j] for k in range(3))
                            + sum(dv[k][i] * w[k, j] for k in range(3))
                            + sum(dv[k][j] * w[i, k] for k in range(3))
                        )
                        worst = max(worst, abs(cartan.comp((i, j)).value(p) - direct))
            assert worst < 1e-10


class TestLieDerivativeMetric:
    def test_rotation_is_killing(self):
        ch = chart2()
        v = VectorField(ch, [f("-y", ch), f("x", ch)])
        g = MetricField.identity(ch)
        rows = lie_derivative_metric(v, g)
        assert max_abs_fields([rows[i][j] for i in range(2) for j in range(2)], ch.sample(10, 3)) == 0.0

    def test_zero_vector(self):
        ch = chart2()
        g = MetricField(ch, {(0, 0): f("1 + x^2", ch), (1, 1): const_field(1.0, 2)})
        rows = lie_derivative_metric(VectorField.zero(ch), g)
        assert max_abs_fields([rows[i][j] for i in range(2) for j in range(2)], ch.sample(10, 3)) == 0.0

    def test_dilation(self):
        ch = chart2()
        v = VectorField(ch, [f("x", ch), const_field(0.0, 2)])
        g = MetricField.identity(ch)
        rows = lie_derivative_metric(v, g)
        p = np.array([0.4, -0.9])
        assert rows[0][0].value(p) == pytest.approx(2.0)
        assert rows[0][1].value(p) == 0.0
        assert rows[1][1].value(p) == 0.0


PAIR_KINDS = ["FormField", "EForm", "BundleValuedForm", "structure"]


def swapped_b_field(source: str) -> FormField:
    """The b_field a model file on chart2's coordinates loads from its one
    entry, ``source`` at the swapped index pair (2, 1)."""
    doc = {
        "schema": 1,
        "chart": {"coordinates": ["x", "y"], "box": [[-1.5, 1.5]] * 2},
        "algebroid": {"rank": 1},
        "b_field": [{"idx": [2, 1], "expr": source}],
    }
    return load_model_bytes(json.dumps(doc).encode()).b_field


def pair_container(kind: str, ch: Chart, g: ScalarField):
    """A container of ``kind`` holding g at the index pair (0, 1), and the
    lookup of its scalar component at any index pair."""
    if kind == "FormField":
        form = FormField(ch, 2, {(0, 1): g})
        return form, form.comp
    alg = AlgebroidData(ch, 2, [[const_field(0.0, ch.dim)] * ch.dim] * 2, {(0, 0, 1): g})
    if kind == "structure":
        return alg.C[0], lambda idx: structure(alg, 0, *idx)
    if kind == "EForm":
        eform = EForm(alg, 2, {(0, 1): g})
        return eform, eform.comp
    bvf = BundleValuedForm(alg, 0, 2, {(0, 1): FormField(ch, 0, {(): g})})
    return bvf, lambda idx: bvf.comp(idx).comp(())


class TestAntisymmetricStorage:
    @pytest.mark.parametrize("kind", PAIR_KINDS)
    def test_container_contract(self, kind):
        ch = chart2()
        field = f("x*y + 1", ch)
        _, comp = pair_container(kind, ch, field)
        pts = ch.sample(6, 4)
        assert comp((0, 1)) is field
        assert np.array_equal(comp((1, 0)).eval(pts), -field.eval(pts))
        assert comp((0, 0)).is_zero and comp((1, 1)).is_zero
        empty, _ = pair_container(kind, ch, const_field(0.0, 2))
        assert empty.comps == {} and empty.is_zero

    @pytest.mark.parametrize("kind", PAIR_KINDS)
    def test_odd_permutation_is_negated_once(self, kind):
        # one negation node per stored component, however often it is read
        ch = chart2()
        _, comp = pair_container(kind, ch, f("x*y + 1", ch))
        assert comp((1, 0)) is comp((1, 0))

    def test_symmetric_lookup(self):
        ch = chart3()
        g = f("x + z", ch)
        poly = PhasePolynomial(3, {(0, 1, 2): g, (1,): const_field(0.0, 3)})
        assert list(poly.comps) == [(0, 1, 2)]
        for perm in itertools.permutations((0, 1, 2)):
            assert poly.comp(perm) is g
        assert poly.comp((1,)).is_zero and poly.comp((2, 2)).is_zero

    def test_swapped_entry_is_negated_exactly(self):
        field = f("x*y + 1", chart2())
        form = swapped_b_field("x*y + 1")
        p = np.array([0.7, -0.3])
        assert form.comp((0, 1)).value(p) == -field.value(p)
        assert form.comp((1, 0)).value(p) == field.value(p)

    def test_sort_signed(self):
        assert sort_signed((2, 0, 1)) == ((0, 1, 2), 1)
        assert sort_signed((1, 0)) == ((0, 1), -1)
        assert sort_signed((1, 1)) == (None, 0)


class TestMatrixInverse:
    def test_identity(self):
        ch = chart2()
        g = MetricField.identity(ch)
        inv = g.inverse()
        p = np.array([0.2, 0.4])
        assert inv[0][0].value(p) == 1.0
        assert inv[0][1].value(p) == 0.0

    def test_inverse_jets_match_fd(self):
        # the partials of the entries of the pointwise inverse are exact;
        # compare against finite differences of the inverse
        ch = chart2()
        entries = [
            [f("2 + x^2", ch), f("x*y/2", ch)],
            [f("x*y/2", ch), f("2 + y^2", ch)],
        ]
        inv = matrix_inverse_fields(entries)
        rng = np.random.default_rng(17)
        h = 1e-3

        def inv_entry(point, i, j):
            m = np.array([[entries[a][b].value(point) for b in range(2)] for a in range(2)])
            return np.linalg.inv(m)[i, j]

        for _ in range(5):
            p = rng.uniform(-1, 1, size=2)
            for i in range(2):
                for j in range(2):
                    entry = inv[i][j]
                    assert entry.value(p) == pytest.approx(inv_entry(p, i, j), abs=1e-12)
                    for k in range(2):
                        e = np.zeros(2)
                        e[k] = h
                        fd = (inv_entry(p + e, i, j) - inv_entry(p - e, i, j)) / (2 * h)
                        fd = (4 * fd - (inv_entry(p + 2 * e, i, j) - inv_entry(p - 2 * e, i, j)) / (4 * h)) / 3
                        assert entry.partial(k).value(p) == pytest.approx(fd, abs=1e-8)
                    mixed = (entry.partial(0).partial(1).value(p), entry.partial(1).partial(0).value(p))
                    assert mixed[0] == pytest.approx(mixed[1], rel=1e-12, abs=1e-12)

    def test_product_is_identity(self):
        ch = chart2()
        g = MetricField(ch, {(0, 0): f("2 + x^2", ch), (0, 1): f("x*y/2", ch), (1, 1): f("2 + y^2", ch)})
        inv = g.inverse()
        for p in ch.sample(10, 19):
            gm = np.array([[g.g[i][j].value(p) for j in range(2)] for i in range(2)])
            im = np.array([[inv[i][j].value(p) for j in range(2)] for i in range(2)])
            assert np.allclose(gm @ im, np.eye(2), atol=1e-12)


def _signed_magnitudes(rng, shape) -> np.ndarray:
    return rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-3, 3, shape)


def _diagonal_matrix(n: int, d: int, diagonal) -> tuple:
    """The row-major entries of an n x n field matrix whose entries off
    the diagonal are structural zeros."""
    return tuple(diagonal[k // (n + 1)] if k % (n + 1) == 0 else const_field(0.0, d) for k in range(n * n))


def _inverse_jet(entries, n: int, points: np.ndarray, dense: bool) -> np.ndarray:
    """The values ``(3, n, P)`` of each diagonal entry of the inverse and of
    its first and second partials along coordinate 0, from a program
    compiled with the diagonal fast path or without it (a core of its own
    whose entries off the diagonal are nodes)."""
    if dense:
        core = fields._MatrixInverse(tuple(entries))
        core.diagonal = None
        diagonal = [fields._shared(fields.MatrixInverseField, core, i, i) for i in range(n)]
    else:
        inv = matrix_inverse_fields([entries[i * n : (i + 1) * n] for i in range(n)])
        assert inv[0][0].core.diagonal is not None
        diagonal = [inv[i][i] for i in range(n)]
    roots = [diagonal, [g.partial(0) for g in diagonal], [g.partial(0).partial(0) for g in diagonal]]
    with np.errstate(all="ignore"):
        return np.stack(list(Program(roots, points.shape[1]).run(points)))


class TestDiagonalInverse:
    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("d", range(1, 5))
    def test_jets_equal_the_dense_path_bit_for_bit(self, n, d):
        # the diagonal's values, entrywise, are the dense inverse's, and its
        # zeros off the diagonal are the dense path's up to sign
        rng = np.random.default_rng(100 * n + d)
        core = _MatrixInverse(_diagonal_matrix(n, d, [CoordField(0, d)] * n))
        for _ in range(3):
            count = 9
            value = _signed_magnitudes(rng, (n, count))
            fast = core.diagonal_values(value)
            full = np.zeros((n * n, count))
            full[:: n + 1] = value
            dense = core.values(full)
            assert fast.tobytes() == np.stack([dense[:, i, i] for i in range(n)]).tobytes()
            # the dense path's zeros off the diagonal may be -0.0
            assert not np.any([dense[:, i, j] for i in range(n) for j in range(n) if i != j])

    @pytest.mark.parametrize("n, d", [(1, 1), (2, 2), (3, 3), (4, 2)])
    def test_program_reads_the_dense_path_entries(self, n, d):
        rng = np.random.default_rng(n + 10 * d)
        ch = Chart(("x", "y", "z")[:d], ((-1.0, 1.0),) * d)
        s = " + ".join(ch.coordinates)
        diagonal = [
            f(f"{c!r}*(2 + sin({a!r}*({s})))", ch)
            for c, a in zip(_signed_magnitudes(rng, n).tolist(), rng.uniform(0.5, 2.0, n).tolist())
        ]
        entries = _diagonal_matrix(n, d, diagonal)
        points = ch.sample(17, 5)
        fast = _inverse_jet(entries, n, points, dense=False)
        dense = _inverse_jet(entries, n, points, dense=True)
        assert fast.tobytes() == dense.tobytes()

    def test_a_zero_diagonal_value_names_the_dense_paths_point(self):
        ch = chart2()
        entries = _diagonal_matrix(2, 2, [f("x", ch), f("2 + y", ch)])
        points = ch.sample(9, 3).copy()
        points[4, 0] = 0.0
        points[6, 0] = 0.0
        for dense in (False, True):
            with pytest.raises(SingularMatrixError) as err:
                _inverse_jet(entries, 2, points, dense)
            assert err.value.point == 4

    # In the three cases below the fast path's values are the dense path's,
    # and so are the partials of entry 0, which depends on x.  The partial
    # along x of entry 1 is a structural zero on the fast path, where the
    # dense path multiplies its zeros off the diagonal by a derivative of
    # entry 0, which may not be finite

    def test_a_nonfinite_derivative_gives_the_dense_paths_output(self):
        # at x = 1 the value is finite (about 8.2e7) and the derivative
        # overflows to inf
        ch = chart2()
        entries = _diagonal_matrix(2, 2, [f("1 + exp(709*x)/1e300", ch), f("2 + y", ch)])
        points = ch.sample(9, 3).copy()
        points[5, 0] = 1.0
        fast = _inverse_jet(entries, 2, points, dense=False)
        dense = _inverse_jet(entries, 2, points, dense=True)
        assert np.isfinite(fast[0]).all() and not np.isfinite(dense[1, 0]).all()
        assert np.array_equal(fast[0], dense[0]) and np.array_equal(fast[:, 0], dense[:, 0], equal_nan=True)
        assert not fast[1:, 1].any()

    def test_an_infinite_diagonal_value_gives_the_dense_paths_nan(self):
        # 1e308*(2 + y) overflows to inf for y > -1, with a finite gradient,
        # where 1/inf would be a finite 0
        ch = chart2()
        entries = _diagonal_matrix(2, 2, [f("2 + x", ch), f("1e308*(2 + y)", ch)])
        points = ch.sample(9, 3)
        fast = _inverse_jet(entries, 2, points, dense=False)
        dense = _inverse_jet(entries, 2, points, dense=True)
        assert np.isnan(dense[0]).any() and np.isfinite(dense[0]).any()
        assert np.array_equal(fast[0], dense[0], equal_nan=True)
        assert np.array_equal(fast[:, 0], dense[:, 0], equal_nan=True)

    def test_an_overflowing_inverse_gives_the_dense_paths_output(self):
        # 1/1e-310 overflows
        ch = chart2()
        entries = _diagonal_matrix(2, 2, [f("1e-310 + 0*x", ch), f("2 + y", ch)])
        points = ch.sample(5, 3)
        fast = _inverse_jet(entries, 2, points, dense=False)
        dense = _inverse_jet(entries, 2, points, dense=True)
        assert not np.isfinite(dense[0]).all()
        assert np.array_equal(fast[0], dense[0], equal_nan=True)
        assert np.array_equal(fast[:, 0], dense[:, 0], equal_nan=True)

    def test_an_entry_off_the_diagonal_keeps_the_dense_path(self):
        ch = chart2()
        g = MetricField(ch, {(0, 0): f("2", ch), (0, 1): f("x/2", ch), (1, 1): f("1", ch)})
        assert g.inverse()[0][0].core.diagonal is None
        identity = MetricField.identity(ch).inverse()
        assert identity[0][0].core.diagonal is not None and identity[0][1].is_zero


class TestDiagonalCond:
    # the conditioning probe's reduction of a stack of diagonal matrices,
    # straight to its largest condition number, is the maximum of the
    # per-matrix SVD condition numbers, byte for byte, and so is each
    # matrix's own

    @pytest.mark.parametrize("n", [1, 3, 4, 6])
    def test_equals_the_svd_condition_number_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        diagonals = _signed_magnitudes(rng, (n, 500))
        matrices = np.zeros((500, n, n))
        for i in range(n):
            matrices[:, i, i] = diagonals[i]
        expected = finite_only(np.linalg.cond, matrices)
        assert diagonal_cond_max(diagonals).tobytes() == np.max(expected, keepdims=True).tobytes()
        each = np.concatenate([diagonal_cond_max(diagonals[:, p : p + 1]) for p in range(500)])
        assert each.tobytes() == expected.tobytes()

    def test_nonfinite_and_singular_points_read_as_finite_only_gives_them(self):
        inf, nan = np.inf, np.nan
        diagonals = np.array([[0.0, 0.0, nan, inf, -3.0, 0.0, -inf, 2.0], [0.0, 2.0, 1.0, 1.0, 1.5, inf, 0.0, -2.0]])
        matrices = np.zeros((8, 2, 2))
        matrices[:, 0, 0], matrices[:, 1, 1] = diagonals
        with np.errstate(all="ignore"):
            expected = finite_only(np.linalg.cond, matrices)
            each = np.concatenate([diagonal_cond_max(diagonals[:, p : p + 1]) for p in range(8)])
            # every stack of these points: finite, singular, inf and NaN ones mixed
            stacks = [list(s) for k in range(1, 9) for s in itertools.combinations(range(8), k)]
            got = [diagonal_cond_max(diagonals[:, s]).tobytes() for s in stacks]
        assert np.array_equal(each, [inf, inf, nan, nan, 2.0, nan, nan, 1.0], equal_nan=True)
        assert each.tobytes() == expected.tobytes()
        assert got == [np.max(expected[s], keepdims=True).tobytes() for s in stacks]


_coeff = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


@given(_coeff, _coeff, st.floats(min_value=-1.4, max_value=1.4), st.floats(min_value=-1.4, max_value=1.4))
@settings(max_examples=60, deadline=None)
def test_field_algebra_product_rule(a, b, px, py):
    # (a x + b y^2) * (x y) and its partials match the hand-expanded product
    ch = chart2()
    left = FormField(ch, 0, {(): f(f"{a!r}*x + {b!r}*y^2", ch)}).comp(())
    right = f("x*y", ch)
    prod = left * right
    p = np.array([px, py])
    value = (a * px + b * py * py) * (px * py)
    assert prod.value(p) == pytest.approx(value, rel=1e-12, abs=1e-12)
    dx = a * px * py + (a * px + b * py * py) * py
    dy = 2 * b * py * px * py + (a * px + b * py * py) * px
    assert prod.partial(0).value(p) == pytest.approx(dx, rel=1e-12, abs=1e-12)
    assert prod.partial(1).value(p) == pytest.approx(dy, rel=1e-12, abs=1e-12)


@given(_coeff, _coeff, st.sampled_from(PAIR_KINDS))
@settings(max_examples=40, deadline=None)
def test_antisymmetric_entry_signs(c1, c2, kind):
    ch = chart2()
    field = f(f"{c1!r} + {c2!r}*x", ch)
    if kind == "FormField":
        comp = swapped_b_field(f"{c1!r} + {c2!r}*x").comp
    else:
        # an entry at (1, 0) is stored negated at (0, 1), as the loader stores it
        _, comp = pair_container(kind, ch, -field)
    p = np.array([0.3, -0.8])
    assert comp((0, 1)).value(p) == -(c1 + c2 * 0.3)
    assert comp((1, 0)).value(p) == (c1 + c2 * 0.3)


class TestLieBracket:
    def test_coordinate_fields_commute(self):
        ch = chart2()
        u = VectorField(ch, [const_field(1.0, 2), const_field(0.0, 2)])
        v = VectorField(ch, [const_field(0.0, 2), const_field(1.0, 2)])
        w = lie_bracket(u, v)
        assert all(c.is_zero for c in w.comps)

    def test_scaling_example(self):
        # [d_x, x d_x] = d_x
        ch = Chart(("x",), ((-1.0, 1.0),))
        u = VectorField(ch, [const_field(1.0, 1)])
        v = VectorField(ch, [f("x", ch)])
        w = lie_bracket(u, v)
        assert w.comps[0].value(np.array([0.3])) == pytest.approx(1.0)
