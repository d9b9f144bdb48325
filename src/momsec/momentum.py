"""Momentum-section conditions against a closed 2-form.

The induced dual-valued 1-form is fixed as gamma_{a,i} = -B_{ik} rho^k_a,
equivalently gamma(e_a) = iota_{rho(e_a)} B, so that the flat-connection
case of the second condition reads d mu(e) = iota_{rho(e)} B.
:func:`gamma_fields` builds gamma, which :func:`condition_fields` hands
to H1 and H2; H3 reads B itself.  :func:`momentum_map_fields` takes the
gamma its caller built for H1 and H2, and its Lie derivatives read it.

Conditions, per basis index:

  H1  (anchoring, informational):   D gamma = 0
  H2  (momentum section):           D mu = gamma
  H3  (bracket compatibility):      d_E mu (e_a, e_b) = - B(rho_a, rho_b)

The pairing term in H3 has this one sign because it is the sign under
which three other blocks reproduce H3 exactly: the zeroth momentum order
of the first-class condition, the boundary mu-equivariance block of the
two-dimensional model, and the constant-bracket equivariance reduction.
"""

from __future__ import annotations

from .algebroid import AlgebroidData
from .connections import ConnectionData, dual_covariant_derivative
from .fields import (
    FormField,
    exterior_derivative,
    field_sum_d,
    index_label,
    interior_product,
    lie_derivative,
)


def gamma_fields(alg: AlgebroidData, B: FormField) -> list:
    """gamma(e_a) = iota_{rho_a} B, one 1-form per basis index."""
    return [interior_product(alg.anchor_vector(a), B) for a in range(alg.rank)]


def condition_fields(alg: AlgebroidData, conn: ConnectionData, B: FormField, mu):
    """Labeled H1, H2 and H3 rows for the 2-form B and the section mu."""
    gamma = gamma_fields(alg, B)
    return h1_fields(conn, gamma), h2_fields(conn, gamma, mu), h3_fields(alg, B, mu)


def closedness_fields(B: FormField):
    if B.degree >= B.chart.dim:
        return []
    return list(exterior_derivative(B).rows())


def h1_fields(conn: ConnectionData, gamma):
    """Components of D gamma per basis index, as labeled fields."""
    out = []
    for a, form in enumerate(dual_covariant_derivative(conn, gamma)):
        out += form.rows(index_label(a=a))
    return out


def h2_fields(conn: ConnectionData, gamma, mu):
    """d_i mu_a - Gamma^b_{a i} mu_b - gamma_{a,i}."""
    alg = conn.alg
    dmu = dual_covariant_derivative(conn, [FormField(alg.chart, 0, {(): m}) for m in mu])
    out = []
    for a in range(alg.rank):
        for i in range(alg.dim):
            f = dmu[a].comp((i,)) - gamma[a].comp((i,))
            out.append((index_label(a=a, i=i), f))
    return out


def h3_fields(alg: AlgebroidData, B: FormField, mu):
    """rho_a(mu_b) - rho_b(mu_a) - C^c_ab mu_c + B(rho_a, rho_b), a < b."""
    out = []
    for a in range(alg.rank):
        for b in range(a + 1, alg.rank):
            terms = [*alg.anchor_terms(a, mu[b]), -alg.apply_anchor(b, mu[a])]
            terms += [-(C * mu[c]) for c, C in alg.brackets(a, b).items() if not mu[c].is_zero]
            terms += pairing_terms(alg, B, a, b)
            out.append((index_label(a=a, b=b), field_sum_d(terms, alg.dim)))
    return out


def pairing_terms(alg: AlgebroidData, B: FormField, a: int, b: int) -> list:
    """The terms of B(rho_a, rho_b) = B_ij rho^i_a rho^j_b with no zero factor."""
    rows = B.incidence
    return [ra * rb * B.comp((i, j)) for i, ra in alg.rho[a] for j, rb in alg.rho[b] if j in rows[i]]


CLASS_HAMILTONIAN = "Hamiltonian"
CLASS_WEAK = "weakly Hamiltonian"
CLASS_BRACKET = "bracket-compatible D-momentum section"
CLASS_MOMENTUM = "D-momentum section"
CLASS_NONE = "none"


def classify(h1: bool, h2: bool, h3: bool) -> str:
    """The class named by which of H1, H2 and H3 passed."""
    if h1 and h2 and h3:
        return CLASS_HAMILTONIAN
    if h1 and h2:
        return CLASS_WEAK
    if h2 and h3:
        return CLASS_BRACKET
    if h2:
        return CLASS_MOMENTUM
    return CLASS_NONE


def momentum_map_fields(alg: AlgebroidData, conn: ConnectionData, B: FormField, mu, gamma):
    """Constant-bracket, flat-connection reductions of the three conditions,
    for the inputs of :func:`condition_fields` and its ``gamma``.

    Returns a dict with labeled fields for:
      'symplectic'   L_{rho_a} B = 0
      'hamiltonian'  d mu_a - iota_{rho_a} B = 0
      'equivariance' rho_a(mu_b) - C^c_ab mu_c = 0
    Rejects models with a non-flat connection.
    """
    if not conn.is_flat:
        raise ValueError("the reduction requires a flat connection")
    d = alg.dim
    out = {"symplectic": [], "hamiltonian": [], "equivariance": []}
    for a in range(alg.rank):
        out["symplectic"] += lie_derivative(alg.anchor_vector(a), B, gamma[a]).rows(index_label(a=a))
        for i in range(d):
            f = mu[a].partial(i) - gamma[a].comp((i,))
            out["hamiltonian"].append((index_label(a=a, i=i), f))
    for a in range(alg.rank):
        for b in range(alg.rank):
            if a != b:
                terms = alg.anchor_terms(a, mu[b])
                terms += [-(C * mu[c]) for c, C in alg.brackets(a, b).items() if not mu[c].is_zero]
                out["equivariance"].append((index_label(a=a, b=b), field_sum_d(terms, d)))
    return out
