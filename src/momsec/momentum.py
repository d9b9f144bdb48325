"""Momentum-section conditions against a closed 2-form.

The induced dual-valued 1-form is fixed as gamma_{a,i} = -B_{ik} rho^k_a,
equivalently gamma(e_a) = iota_{rho(e_a)} B, so that the flat-connection
case of the second condition reads d mu(e) = iota_{rho(e)} B.

Conditions, per basis index:

  H1  (anchoring, informational):   D gamma = 0
  H2  (momentum section):           D mu = gamma
  H3  (bracket compatibility):      d_E mu (e_a, e_b) = - B(rho_a, rho_b)

The sign of the pairing term in H3 is the one that makes the zeroth
momentum order of the first-class condition, the boundary coupling
equations of the two-dimensional model, and the constant-bracket
equivariance reduction all reproduce H3 exactly.  ``h3_sign=-1`` selects
the opposite literature convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebroid import AlgebroidData
from .connections import ConnectionData, dual_covariant_derivative
from .fields import (
    FormField,
    ScalarField,
    exterior_derivative,
    field_sum_d,
    interior_product,
    lie_derivative,
)


@dataclass
class MomentumData:
    alg: AlgebroidData
    conn: ConnectionData
    B: FormField
    mu: list  # ScalarField per basis index


def gamma_from_B(alg: AlgebroidData, B: FormField):
    """gamma_a = iota_{rho_a} B as a list of 1-forms."""
    return [interior_product(alg.anchor_vector(a), B) for a in range(alg.rank)]


def condition_fields(alg: AlgebroidData, conn: ConnectionData, B: FormField, mu, h3_sign: float = 1.0):
    """Labeled H1, H2 and H3 rows for the 2-form B and the section mu.

    gamma = iota_rho B is built once and shared by H1 and H2.
    """
    data = MomentumData(alg, conn, B, mu)
    gamma = gamma_from_B(alg, B)
    return h1_fields(data, gamma), h2_fields(data, gamma), h3_fields(data, h3_sign)


def closedness_fields(B: FormField):
    if B.degree >= B.chart.dim:
        return []
    dB = exterior_derivative(B)
    return [("i" + "".join(str(q + 1) for q in idx), f) for idx, f in dB.comps.items()]


def h1_fields(data: MomentumData, gamma=None):
    """Components of D gamma per basis index, as labeled fields."""
    if gamma is None:
        gamma = gamma_from_B(data.alg, data.B)
    dgamma = dual_covariant_derivative(data.conn, gamma)
    out = []
    for a, form in enumerate(dgamma):
        for idx, f in form.comps.items():
            out.append((f"a{a + 1} i{idx[0] + 1} j{idx[1] + 1}", f))
    return out


def h2_fields(data: MomentumData, gamma=None):
    """d_i mu_a - Gamma^b_{a i} mu_b - gamma_{a,i}."""
    if gamma is None:
        gamma = gamma_from_B(data.alg, data.B)
    alg, conn = data.alg, data.conn
    d = alg.dim
    dmu = dual_covariant_derivative(conn, data.mu)
    out = []
    for a in range(alg.rank):
        for i in range(d):
            f = dmu[a].comp((i,)) - gamma[a].comp((i,))
            out.append((f"a{a + 1} i{i + 1}", f))
    return out


def h3_fields(data: MomentumData, h3_sign: float = 1.0):
    """rho_a(mu_b) - rho_b(mu_a) - C^c_ab mu_c + s B(rho_a, rho_b), a < b."""
    alg = data.alg
    d = alg.dim
    out = []
    for a in range(alg.rank):
        for b in range(a + 1, alg.rank):
            terms = [alg.apply_anchor(a, data.mu[b]), -alg.apply_anchor(b, data.mu[a])]
            for c in range(alg.rank):
                C = alg.structure(c, a, b)
                if C.is_zero or data.mu[c].is_zero:
                    continue
                terms.append(-(C * data.mu[c]))
            pairing = pairing_B(alg, data.B, a, b)
            if not pairing.is_zero:
                terms.append(pairing.scaled(h3_sign))
            out.append((f"a{a + 1} b{b + 1}", field_sum_d(terms, d)))
    return out


def pairing_B(alg: AlgebroidData, B: FormField, a: int, b: int) -> ScalarField:
    """B(rho_a, rho_b) = B_ij rho^i_a rho^j_b."""
    d = alg.dim
    terms = []
    for i in range(d):
        for j in range(d):
            f = B.comp((i, j))
            if f.is_zero or alg.anchor[a][i].is_zero or alg.anchor[b][j].is_zero:
                continue
            terms.append(alg.anchor[a][i] * alg.anchor[b][j] * f)
    return field_sum_d(terms, d)


CLASS_HAMILTONIAN = "Hamiltonian"
CLASS_WEAK = "weakly Hamiltonian"
CLASS_BRACKET = "bracket-compatible D-momentum section"
CLASS_MOMENTUM = "D-momentum section"
CLASS_NONE = "none"


def classify(h1_max: float, h2_max: float, h3_max: float, tol: float) -> str:
    h1 = h1_max < tol
    h2 = h2_max < tol
    h3 = h3_max < tol
    if h1 and h2 and h3:
        return CLASS_HAMILTONIAN
    if h1 and h2:
        return CLASS_WEAK
    if h2 and h3:
        return CLASS_BRACKET
    if h2:
        return CLASS_MOMENTUM
    return CLASS_NONE


def is_constant_structure(alg: AlgebroidData, points: np.ndarray, tol: float = 1e-12) -> bool:
    """True when every structure function is constant over the sample."""
    for f in alg.structure_entries.values():
        jet = f.eval(points)
        if np.ptp(jet.value) > tol or np.max(np.abs(jet.grad)) > tol:
            return False
    return True


def map_reduction_fields(alg: AlgebroidData, conn: ConnectionData, B: FormField, mu):
    """:func:`momentum_map_fields` for the inputs of :func:`condition_fields`."""
    return momentum_map_fields(MomentumData(alg, conn, B, mu))


def momentum_map_fields(data: MomentumData):
    """Constant-bracket, flat-connection reductions of the three conditions.

    Returns a dict with labeled fields for:
      'symplectic'   L_{rho_a} B = 0
      'hamiltonian'  d mu_a - iota_{rho_a} B = 0
      'equivariance' rho_a(mu_b) - C^c_ab mu_c = 0
    Rejects models with a non-flat connection.
    """
    alg, conn = data.alg, data.conn
    if not conn.is_flat:
        raise ValueError("the reduction requires a flat connection")
    d = alg.dim
    out = {"symplectic": [], "hamiltonian": [], "equivariance": []}
    for a in range(alg.rank):
        lie = lie_derivative(alg.anchor_vector(a), data.B)
        for idx, f in lie.comps.items():
            out["symplectic"].append((f"a{a + 1} i{idx[0] + 1} j{idx[1] + 1}", f))
        pull = interior_product(alg.anchor_vector(a), data.B)
        for i in range(d):
            f = data.mu[a].partial(i) - pull.comp((i,))
            out["hamiltonian"].append((f"a{a + 1} i{i + 1}", f))
    for a in range(alg.rank):
        for b in range(alg.rank):
            if a == b:
                continue
            terms = [alg.apply_anchor(a, data.mu[b])]
            for c in range(alg.rank):
                C = alg.structure(c, a, b)
                if C.is_zero or data.mu[c].is_zero:
                    continue
                terms.append(-(C * data.mu[c]))
            out["equivariance"].append((f"a{a + 1} b{b + 1}", field_sum_d(terms, d)))
    return out
