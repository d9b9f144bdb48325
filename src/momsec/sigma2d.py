"""Target-space conditions for the gauged two-dimensional model with boundary.

The worldsheet itself is never discretized: gauge invariance is verified
through the induced conditions on the target data (g, b, eta, mu, rho,
C, Gamma).  The boundary block couples mu and eta through

    (P1)  mu_a + eta_i rho^i_a = 0
    (P2)  rho^j_a b_ji + rho^j_a d_j eta_i + eta_j d_i rho^j_a
            + Gamma^b_{a i} mu_b = 0
    (P3)  rho^i_a d_i mu_b - C^c_ab mu_c - rho^i_b Gamma^c_{a i} mu_c = 0

Under mu = -iota_rho eta and B = b + d eta, (P2) is the momentum-section
residual with the opposite overall sign, and (P3) differs from the
bracket-compatibility residual exactly by the rho-contraction of (P2):

    H3_ab = P3_ab + rho^i_b P2_{a,i}

so the two blocks reproduce H2 and H3 whenever (P2) holds.
"""

from __future__ import annotations

from functools import cache

from .algebroid import AlgebroidData
from .connections import ConnectionData
from .fields import (
    Deferred,
    FormField,
    MetricField,
    by_place,
    exterior_derivative,
    field_sum_d,
    index_label,
    interior_product,
    lie_derivative,
    lie_derivative_metric,
)


def rigid_killing_fields(alg: AlgebroidData, g: MetricField):
    """(L_{rho_a} g)_ij per basis index."""
    out = []
    for a in range(alg.rank):
        lie = lie_derivative_metric(alg.anchor_vector(a), g)
        for i in range(alg.dim):
            for j in range(i, alg.dim):
                out.append((index_label(a=a, i=(i, j)), lie[i][j]))
    return out


def rigid_b_fields(alg: AlgebroidData, b: FormField, beta_rigid=None):
    """L_{rho_a} b - d beta_a, with beta_a defaulting to iota_{rho_a} b.

    With closed b the default candidate satisfies the condition
    identically (Cartan), so the residual then measures iota_{rho} db.
    Returns (labeled fields, used_default).
    """
    out = []
    for a in range(alg.rank):
        # the Lie derivative reads the default candidate's contraction
        contracted = interior_product(alg.anchor_vector(a), b)
        lie = lie_derivative(alg.anchor_vector(a), b, contracted)
        candidate = contracted if beta_rigid is None else beta_rigid[a]
        out += (lie - exterior_derivative(candidate)).rows(index_label(a=a))
    return out, beta_rigid is None


def rigid_b_closure_fields(alg: AlgebroidData, b: FormField):
    """d(L_{rho_a} b) per basis index: what is left of rigid invariance to
    check when b is not closed and no exactness candidate is supplied."""
    out = []
    for a in range(alg.rank):
        out += exterior_derivative(lie_derivative(alg.anchor_vector(a), b)).rows(index_label(a=a))
    return out


def boundary_pairing_fields(alg: AlgebroidData, eta: FormField, mu):
    """(P1): mu_a + eta_i rho^i_a."""
    d = alg.dim
    out = []
    for a in range(alg.rank):
        terms = [mu[a]] + [eta.comps[(i,)] * rho for i, rho in alg.rho[a] if (i,) in eta.comps]
        out.append((index_label(a=a), field_sum_d(terms, d)))
    return out


def boundary_eta_fields(alg: AlgebroidData, conn: ConnectionData, b: FormField, eta: FormField, mu):
    """(P2), evaluated verbatim in components."""
    return [
        (index_label(a=a, i=i), _p2(alg, conn, b, eta, mu, a, i)) for a in range(alg.rank) for i in range(alg.dim)
    ]


def _p2(alg: AlgebroidData, conn: ConnectionData, b: FormField, eta: FormField, mu, a: int, i: int):
    """Row (a, i) of (P2)."""
    rows = b.incidence
    rho = alg.anchor[a]
    # placed as in the dense loop over j, then the three terms
    terms = [((j, 0), rj * b.comp((j, i))) for j, rj in alg.rho[a] if i in rows[j]]
    terms += [((j, 1), rj * de) for j, rj in alg.rho[a] if not (de := eta.comp((i,)).partial(j)).is_zero]
    terms += [((j, 2), ej * dr) for (j,), ej in eta.comps.items() if not (dr := rho[j].partial(i)).is_zero]
    terms = by_place(terms)
    terms += [gamma * mu[bb] for bb, gamma in conn.column(a, i) if not mu[bb].is_zero]
    return field_sum_d(terms, alg.dim)


def boundary_mu_fields(alg: AlgebroidData, conn: ConnectionData, mu):
    """(P3), evaluated verbatim in components over ordered pairs."""
    return [(index_label(a=a, b=b), _p3(alg, conn, mu, a, b)) for a in range(alg.rank) for b in range(alg.rank)]


def _p3(alg: AlgebroidData, conn: ConnectionData, mu, a: int, b: int):
    """Row (a, b) of (P3)."""
    # placed as in the dense loop over c, then the bracket term and i
    terms = [((c, -1), -(C * mu[c])) for c, C in alg.brackets(a, b).items() if not mu[c].is_zero]
    for i, rho in alg.rho[b]:
        terms += [((c, i), -(rho * gamma * mu[c])) for c, gamma in conn.column(a, i) if not mu[c].is_zero]
    return field_sum_d([*alg.anchor_terms(a, mu[b]), *by_place(terms)], alg.dim)


def theorem_consistency_fields(alg: AlgebroidData, conn: ConnectionData, b: FormField, eta: FormField, mu, h3_rows):
    """H3_ab - P3_ab - rho^i_b P2_{a,i} for a < b, with (P2) and (P3) at
    ``mu`` and rows matched by label; identically zero when ``h3_rows``
    are the H3 rows of the induced inputs and ``mu`` the induced section.
    Only the (P2) and (P3) rows it reads are built."""
    h3 = dict(h3_rows)
    p2 = cache(lambda a, i: _p2(alg, conn, b, eta, mu, a, i))
    out = []
    for a in range(alg.rank):
        for bb in range(a + 1, alg.rank):
            label = index_label(a=a, b=bb)
            terms = [h3[label], -_p3(alg, conn, mu, a, bb)]
            terms += [-(rho * p) for i, rho in alg.rho[bb] if not (p := p2(a, i)).is_zero]
            out.append((label, field_sum_d(terms, alg.dim)))
    return out


def induced_momentum_inputs(alg: AlgebroidData, b: FormField, eta: FormField):
    """mu := -iota_rho eta and B := b + d eta."""
    d = alg.dim
    # each mu_a is built only where its value is read, not only its partials
    mu = [Deferred([(-1.0, rho, eta.comps[(i,)]) for i, rho in alg.rho[a] if (i,) in eta.comps], d) for a in range(alg.rank)]
    B = exterior_derivative(eta, b)
    return mu, B
