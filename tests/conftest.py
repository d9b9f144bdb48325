"""Shared helpers: fixture loading, independent finite-difference oracles,
random model generators."""

from __future__ import annotations

import numpy as np
import pytest

from momsec.fields import Chart, ExprField, ScalarField, VectorField, const_field, field_sum_d, lie_bracket_terms
from momsec.fixtures import fixture_bytes, fixture_names
from momsec.modelfile import load_model_bytes
from momsec.momentum import pairing_terms
from momsec.suites import _run_plan, resolve_suites


@pytest.fixture(scope="session")
def fixture_models():
    return {name: load_model_bytes(fixture_bytes(name)) for name in fixture_names()}


def run_plan_of(model, selection: str = "all"):
    """The model's run plan of ``selection`` and its program: those its
    runs of ``selection`` use, made here if no run made them yet."""
    plan = _run_plan(model, resolve_suites(model, selection))
    return plan, plan.program


def chart2(box=1.5) -> Chart:
    return Chart(("x", "y"), ((-box, box), (-box, box)))


def chart3(box=1.5) -> Chart:
    return Chart(("x", "y", "z"), ((-box, box),) * 3)


def f(source: str, chart: Chart) -> ScalarField:
    return ExprField.parse(source, chart)


def node(source: str, coords) -> ScalarField:
    """The field node of ``source`` on a unit-box chart with the
    coordinate names ``coords``."""
    return ExprField.parse(source, Chart(tuple(coords), ((-1.0, 1.0),) * len(coords)))


def expr_values(field: ScalarField, points) -> np.ndarray:
    """The values of a node over a ``(P, d)`` sample, evaluated by a
    program of its own."""
    return field.eval(np.asarray(points, dtype=float))


def gradient(field: ScalarField, point) -> np.ndarray:
    """The gradient of a node at one point, from its partial nodes."""
    return np.array([field.partial(i).value(point) for i in range(field.dim)])


def hessian(field: ScalarField, point) -> np.ndarray:
    """The Hessian of a node at one point, from its second partial nodes."""
    return np.array([[field.partial(i).partial(j).value(point) for j in range(field.dim)] for i in range(field.dim)])


def zero(chart: Chart):
    return const_field(0.0, chart.dim)


def structure(alg, c: int, a: int, b: int) -> ScalarField:
    """C^c_{ab} of an algebroid, extended antisymmetrically in (a, b)."""
    return alg.C[c].comp((a, b))


def pairing_B(alg, B, a: int, b: int) -> ScalarField:
    """B(rho_a, rho_b) as one field."""
    return field_sum_d(pairing_terms(alg, B, a, b), alg.dim)


def lie_bracket(u: VectorField, v: VectorField) -> VectorField:
    """[u, v] as a vector field."""
    return VectorField(u.chart, [field_sum_d(terms, u.chart.dim) for terms in lie_bracket_terms(u, v)])


# ---------------------------------------------------------------------------
# Names of every check the suites can emit, without a "[k=...]" suffix;
# the coverage tests keep the fixture set honest against this list.
CHECK_REGISTRY: tuple[str, ...] = (
    "axioms/anchor-morphism",
    "axioms/jacobi-cyclic",
    "axioms/jacobi-anchored",
    "axioms/q-squared",
    "axioms/q-verdict-agreement",
    "momentum/pre-symplectic-closed",
    "momentum/h1-anchoring",
    "momentum/h2-momentum-section",
    "momentum/h3-bracket-compat",
    "momentum/tangent-two-form-compat",
    "momentum/h1-tangent-agreement",
    "momentum/map-symplectic-vectorfield",
    "momentum/map-hamiltonian-pairing",
    "momentum/map-equivariance",
    "momentum/map-reduction-agreement",
    "mechanics/metric-conditioning",
    "mechanics/constraint-irreducibility",
    "mechanics/first-class",
    "mechanics/flow",
    "mechanics/twist-closed",
    "mechanics/tau-prime",
    "mechanics/first-class-twisted",
    "mechanics/flow-twisted",
    "mechanics/flow-deg1-vs-h2",
    "mechanics/firstclass-deg0-vs-h3",
    "mechanics/theorem-h1",
    "mechanics/theorem-h2",
    "mechanics/theorem-h3",
    "sigma2d/rigid-killing-metric",
    "sigma2d/rigid-b-invariance",
    "sigma2d/rigid-anchor-morphism",
    "sigma2d/gauged-metric-compat",
    "sigma2d/gauged-anchor-morphism",
    "sigma2d/bdry-pairing",
    "sigma2d/bdry-eta-compat",
    "sigma2d/bdry-mu-equivariance",
    "sigma2d/theorem-h2-agreement",
    "sigma2d/theorem-h3-agreement",
    "sigma2d/theorem-consistency",
    "sigma2d/theorem-h1",
    "multisym/pre-nplectic-closed",
    "multisym/descent-pairing",
    "multisym/descent-symmetry",
    "multisym/hm2-momentum-section",
    "multisym/hm1-anchoring",
    "multisym/hm3-diff",
    "multisym/hm3-rewrite",
    "multisym/lie-specialize-agreement",
    "multisym/n1-reduction-agreement",
)


# ---------------------------------------------------------------------------
# Independent finite-difference oracle (values only, Richardson-extrapolated)


def _value(expr, point):
    return expr.value(point)


def fd_gradient(expr, point, h=1e-3):
    point = np.asarray(point, dtype=float)
    d = point.shape[0]
    out = np.empty(d)
    for i in range(d):
        e = np.zeros(d)
        e[i] = 1.0

        def central(step):
            return (_value(expr, point + step * e) - _value(expr, point - step * e)) / (2 * step)

        out[i] = (4.0 * central(h) - central(2 * h)) / 3.0
    return out


def fd_hessian(expr, point, h=1e-3):
    point = np.asarray(point, dtype=float)
    d = point.shape[0]
    out = np.empty((d, d))
    f0 = _value(expr, point)
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = 1.0

        def second(step):
            return (
                _value(expr, point + step * ei) - 2.0 * f0 + _value(expr, point - step * ei)
            ) / (step * step)

        out[i, i] = (4.0 * second(h) - second(2 * h)) / 3.0
        for j in range(i + 1, d):
            ej = np.zeros(d)
            ej[j] = 1.0

            def cross(step):
                return (
                    _value(expr, point + step * (ei + ej))
                    - _value(expr, point + step * (ei - ej))
                    - _value(expr, point - step * (ei - ej))
                    + _value(expr, point - step * (ei + ej))
                ) / (4.0 * step * step)

            val = (4.0 * cross(h) - cross(2 * h)) / 3.0
            out[i, j] = val
            out[j, i] = val
    return out


# ---------------------------------------------------------------------------
# Random polynomial expressions


def random_poly_source(rng: np.random.Generator, coords, max_terms=6, max_degree=4) -> str:
    terms = []
    n_terms = int(rng.integers(1, max_terms + 1))
    for _ in range(n_terms):
        coeff = float(rng.uniform(-1.0, 1.0))
        powers = []
        budget = max_degree
        for name in coords:
            k = int(rng.integers(0, budget + 1))
            budget -= k
            if k == 1:
                powers.append(name)
            elif k > 1:
                powers.append(f"{name}^{k}")
        term = repr(coeff)
        if powers:
            term += "*" + "*".join(powers)
        terms.append(term)
    return " + ".join(terms)


def random_smooth_source(rng: np.random.Generator, coords) -> str:
    base = random_poly_source(rng, coords, max_terms=3, max_degree=2)
    wrap = rng.integers(0, 4)
    if wrap == 0:
        return base
    inner = random_poly_source(rng, coords, max_terms=2, max_degree=2)
    fn = ("sin", "cos", "tanh")[int(rng.integers(0, 3))]
    return f"{base} + {fn}({inner})"
