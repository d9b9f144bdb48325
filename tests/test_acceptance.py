"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints one line on success; a failure is reported by pytest
with the offending quantity.
"""

from itertools import combinations

import numpy as np
import pytest

from conftest import (
    CHECK_REGISTRY,
    fd_gradient,
    fd_hessian,
    gradient,
    hessian,
    node,
    pairing_B,
    random_poly_source,
    random_smooth_source,
    structure,
)
from momsec.algebroid import (
    AlgebroidData,
    anchor_morphism_fields,
    jacobi_sigma_fields,
    q_squared_fields,
)
from momsec.fields import (
    Chart,
    ExprField,
    FormField,
    VectorField,
    const_field,
    exterior_derivative,
    interior_product,
    lie_derivative,
    max_abs_fields,
)
from momsec.fixtures import fixture_bytes, fixture_names
from momsec.hamiltonian import PhasePolynomial, poisson_bracket
from momsec.modelfile import load_model_bytes
from momsec.momentum import condition_fields, h3_fields
from momsec.suites import run


def _random_form(chart, degree, rng):
    comps = {}
    for idx in combinations(range(chart.dim), degree):
        comps[idx] = ExprField.parse(random_poly_source(rng, chart.coordinates, max_degree=3), chart)
    return FormField(chart, degree, comps)


def test_acceptance_1_calculus_kernel():
    rng = np.random.default_rng(1001)
    worst_rel = 0.0
    for _ in range(200):
        d = int(rng.integers(1, 5))
        coords = tuple("abcd"[:d])
        source = random_smooth_source(rng, coords) if rng.random() < 0.4 else random_poly_source(rng, coords)
        expr = node(source, coords)
        pt = rng.uniform(-2.0, 2.0, size=d)
        g_ref = fd_gradient(expr, pt)
        h_ref = fd_hessian(expr, pt)
        num = max(float(np.max(np.abs(gradient(expr, pt) - g_ref))), float(np.max(np.abs(hessian(expr, pt) - h_ref))))
        den = max(1.0, float(np.max(np.abs(g_ref))), float(np.max(np.abs(h_ref))))
        worst_rel = max(worst_rel, num / den)
    assert worst_rel < 1e-6

    worst_dd = 0.0
    worst_cartan = 0.0
    count = 0
    while count < 100:
        d = int(rng.integers(2, 5))
        ch = Chart(tuple("abcd"[:d]), ((-2.0, 2.0),) * d)
        pts = ch.sample(8, int(rng.integers(0, 10_000)))
        k = int(rng.integers(0, d - 1))
        omega = _random_form(ch, k, rng)
        worst_dd = max(worst_dd, max_abs_fields(exterior_derivative(exterior_derivative(omega)).comps.values(), pts))
        if k >= 1:
            v = VectorField(
                ch,
                [ExprField.parse(random_poly_source(rng, ch.coordinates, max_degree=2), ch) for _ in range(d)],
            )
            cartan = lie_derivative(v, omega)
            # each field once over the sample; entry p of every array is point p
            for idx in combinations(range(d), k):
                direct = np.zeros(len(pts))
                for m in range(d):
                    direct += v.comps[m].eval(pts) * omega.comp(idx).partial(m).eval(pts)
                    for s in range(k):
                        swapped = idx[:s] + (m,) + idx[s + 1 :]
                        direct += v.comps[m].partial(idx[s]).eval(pts) * omega.comp(swapped).eval(pts)
                residual = np.abs(cartan.comp(idx).eval(pts) - direct)
                for row in residual:
                    worst_cartan = max(worst_cartan, row)
        count += 1
    assert worst_dd < 1e-10
    assert worst_cartan < 1e-10
    print(f"ACCEPTANCE 1 PASS: derivatives vs finite differences {worst_rel:.2e} (rel), "
          f"dd {worst_dd:.2e}, Cartan {worst_cartan:.2e}")


def _perturbed_models(count=20):
    rng = np.random.default_rng(777)
    models = []
    for trial in range(count):
        d = int(rng.integers(1, 4))
        names = tuple("xyz"[:d])
        ch = Chart(names, ((-1.5, 1.5),) * d)
        r = int(rng.integers(1, 4))
        anchor = []
        for a in range(r):
            row = []
            for i in range(d):
                roll = rng.random()
                if roll < 0.4:
                    row.append(const_field(0.0, d))
                elif roll < 0.7:
                    row.append(const_field(float(rng.integers(-2, 3)), d))
                else:
                    row.append(ExprField.parse(random_poly_source(rng, names, max_degree=1), ch))
            anchor.append(row)
        structure = {}
        for c in range(r):
            for a in range(r):
                for b in range(a + 1, r):
                    roll = rng.random()
                    if roll < 0.5:
                        continue
                    if roll < 0.8:
                        structure[(c, a, b)] = const_field(float(rng.integers(-2, 3)), d)
                    else:
                        structure[(c, a, b)] = ExprField.parse(
                            random_poly_source(rng, names, max_degree=1), ch
                        )
        models.append(AlgebroidData(ch, r, anchor, structure))
    return models


def test_acceptance_2_axiom_equivalence(fixture_models):
    tol = 1e-9
    cases = [(name, model.alg, model.chart) for name, model in fixture_models.items()]
    for alg in _perturbed_models(20):
        cases.append(("perturbed", alg, alg.chart))
    assert len(cases) == len(fixture_models) + 20
    for name, alg, chart in cases:
        pts = chart.sample(24, 4242)
        q2 = max_abs_fields([g for _, g in q_squared_fields(alg)], pts)
        anchor = max_abs_fields([g for _, g in anchor_morphism_fields(alg)], pts)
        sigma_rows, _ = jacobi_sigma_fields(alg)
        sigma = max_abs_fields([g for _, g in sigma_rows], pts)
        assert (q2 < tol) == (anchor < tol and sigma < tol), (name, q2, anchor, sigma)
    print(f"ACCEPTANCE 2 PASS: squared-differential verdict matches axiom verdicts on {len(cases)} models")


def test_acceptance_3_momentum_map_reduction(fixture_models):
    rotation = fixture_models["rotation_momentum_map"]
    pts = rotation.chart.sample(100, 42)
    B = rotation.b_field + exterior_derivative(rotation.eta_boundary)
    rows = condition_fields(rotation.alg, rotation.conn, B, rotation.mu)
    h1, h2, h3 = (max_abs_fields([g for _, g in r], pts) for r in rows)
    assert h1 < 1e-10 and h2 < 1e-10 and h3 < 1e-10

    translation = fixture_models["translation_nonequivariant"]
    pts = translation.chart.sample(100, 42)
    Bt = translation.b_field + exterior_derivative(translation.eta_boundary)
    rows = h3_fields(translation.alg, Bt, translation.mu)
    reported = max_abs_fields([g for _, g in rows], pts)
    assert reported > 1e-3  # the obstruction is detected

    # brute-force two-sided oracle: raw jets on one side, the pairing on
    # the other, no shared residual code
    alg = translation.alg
    worst = 0.0
    for p in pts:
        for a in range(2):
            for b in range(a + 1, 2):
                lhs = 0.0
                for i in range(2):
                    lhs += alg.anchor[a][i].value(p) * translation.mu[b].partial(i).value(p)
                    lhs -= alg.anchor[b][i].value(p) * translation.mu[a].partial(i).value(p)
                for c in range(2):
                    lhs -= structure(alg, c, a, b).value(p) * translation.mu[c].value(p)
                rhs = -pairing_B(alg, Bt, a, b).value(p)
                worst = max(worst, abs(lhs - rhs))
    assert abs(reported - worst) < 1e-10
    print(f"ACCEPTANCE 3 PASS: rotation residuals < 1e-10; translation obstruction {reported:.3f} matches oracle")


def test_acceptance_4_mechanics_theorem(fixture_models):
    from momsec.fields import VectorField
    from momsec.hamiltonian import ConstraintSystem, absorb_beta, first_class_fields, flow_fields

    model = fixture_models["magnetic_twist_mechanics"]
    pts = model.chart.sample(model.sampling.points, model.sampling.seed)
    system = ConstraintSystem(
        model.alg, model.conn, model.metric, model.alpha, model.beta, model.V, model.tau
    )
    absorbed = absorb_beta(system)
    tau_prime = max_abs_fields(
        [absorbed.tau[a][b] for a in range(1) for b in range(1)], pts
    )
    assert tau_prime < 1e-12

    deg1 = max_abs_fields([g for _, g in flow_fields(absorbed)[1]], pts)
    _, h2_rows, h3_rows = condition_fields(model.alg, model.conn, absorbed.twist, absorbed.alpha)
    h2 = max_abs_fields([g for _, g in h2_rows], pts)
    assert abs(deg1 - h2) < 1e-9

    deg0 = max_abs_fields([g for _, g in first_class_fields(absorbed).get(0, [])], pts)
    h3 = max_abs_fields([g for _, g in h3_rows], pts)
    assert abs(deg0 - h3) < 1e-9
    print(f"ACCEPTANCE 4 PASS: flow deg-1 vs momentum condition {abs(deg1 - h2):.1e}, "
          f"first-class deg-0 vs bracket compatibility {abs(deg0 - h3):.1e}")


def test_acceptance_5_poisson_algebra():
    ch = Chart(("x", "y"), ((-1.5, 1.5),) * 2)
    rng = np.random.default_rng(55)
    pts = ch.sample(8, 5)

    def random_poly(max_degree=2):
        mono = {(): ExprField.parse(random_poly_source(rng, ch.coordinates, max_degree=2), ch)}
        for i in range(2):
            mono[(i,)] = ExprField.parse(random_poly_source(rng, ch.coordinates, max_degree=2), ch)
        for i in range(2):
            for j in range(i, 2):
                mono[(i, j)] = ExprField.parse(random_poly_source(rng, ch.coordinates, max_degree=1), ch)
        return PhasePolynomial(2, mono)

    def poly_max(poly):
        return max_abs_fields(poly.comps.values(), pts)

    A = FormField(
        ch,
        1,
        {(0,): ExprField.parse(random_poly_source(rng, ch.coordinates), ch),
         (1,): ExprField.parse(random_poly_source(rng, ch.coordinates), ch)},
    )
    twist = exterior_derivative(A)
    worst_jacobi = 0.0
    for trial in range(4):
        F, G, K = random_poly(), random_poly(), random_poly()
        anti = poisson_bracket(F, G) + poisson_bracket(G, F)
        assert poly_max(anti) == 0.0
        anti_tw = poisson_bracket(F, G, twist) + poisson_bracket(G, F, twist)
        assert poly_max(anti_tw) == 0.0
        for tw in (None, twist):
            s = (
                poisson_bracket(poisson_bracket(F, G, tw), K, tw)
                + poisson_bracket(poisson_bracket(G, K, tw), F, tw)
                + poisson_bracket(poisson_bracket(K, F, tw), G, tw)
            )
            worst_jacobi = max(worst_jacobi, poly_max(s))
    assert worst_jacobi < 1e-9
    print(f"ACCEPTANCE 5 PASS: antisymmetry exact, cyclic identity {worst_jacobi:.2e} (plain and twisted)")


def test_acceptance_6_sigma2d_theorem(fixture_models):
    from momsec.sigma2d import boundary_eta_fields, boundary_mu_fields, induced_momentum_inputs

    names = sorted(fixture_models)
    nontrivial = [n for n, m in fixture_models.items() if not m.eta_boundary.is_zero or not m.b_field.is_zero]
    assert sorted(nontrivial) == ["rotation_momentum_map", "translation_nonequivariant"]
    worst2 = worst3 = 0.0
    for name in names:
        model = fixture_models[name]
        pts = model.chart.sample(model.sampling.points, model.sampling.seed)
        mu_star, B_star = induced_momentum_inputs(model.alg, model.b_field, model.eta_boundary)
        _, h2_rows, h3_rows = condition_fields(model.alg, model.conn, B_star, mu_star)
        p2 = max_abs_fields(
            [g for _, g in boundary_eta_fields(model.alg, model.conn, model.b_field, model.eta_boundary, mu_star)],
            pts,
        )
        h2 = max_abs_fields([g for _, g in h2_rows], pts)
        p3 = max_abs_fields([g for _, g in boundary_mu_fields(model.alg, model.conn, mu_star)], pts)
        h3 = max_abs_fields([g for _, g in h3_rows], pts)
        assert abs(p2 - h2) < 1e-9, name
        assert abs(p3 - h3) < 1e-9, name
        worst2 = max(worst2, abs(p2 - h2))
        worst3 = max(worst3, abs(p3 - h3))
    print(f"ACCEPTANCE 6 PASS: boundary blocks match momentum conditions on all {len(names)} fixtures "
          f"({worst2:.1e}, {worst3:.1e})")


def test_acceptance_7_multisym_reduction(fixture_models):
    lifted = [n for n, m in fixture_models.items() if m.multisym is not None and m.multisym.n == 1]
    assert sorted(lifted) == ["rotation_momentum_map", "translation_nonequivariant"]
    for name in lifted:
        model = fixture_models[name]
        rep = run(model, "multisym")
        row = rep.find("multisym/n1-reduction-agreement")
        assert row.max_residual < 1e-12, (name, row.max_residual)

    plectic = fixture_models["plectic2_flux_model"]
    rep = run(plectic, "multisym")
    specialize = rep.find("multisym/lie-specialize-agreement")
    assert specialize.max_residual < 1e-10
    hm2 = rep.find("multisym/hm2-momentum-section")
    hm1 = rep.find("multisym/hm1-anchoring")
    assert hm2.passed
    assert hm1.max_residual < 1e-8
    print("ACCEPTANCE 7 PASS: degree-1 tower reduces exactly; constant-bracket "
          "specialization agrees; flux condition implies anchoring on the flux model")


def test_acceptance_8_determinism_and_coverage(fixture_models):
    model = load_model_bytes(fixture_bytes("translation_nonequivariant"))
    first = run(model, "all").to_json()
    second = run(load_model_bytes(fixture_bytes("translation_nonequivariant")), "all").to_json()
    assert first == second

    seen = set()
    for name in fixture_names():
        rep = run(fixture_models[name], "all")
        for check in rep.checks:
            base = check.name.split("[")[0]
            assert base in CHECK_REGISTRY
            seen.add(base)
    missing = set(CHECK_REGISTRY) - seen
    assert not missing, sorted(missing)
    print(f"ACCEPTANCE 8 PASS: byte-identical reports; all {len(CHECK_REGISTRY)} registered checks exercised")
