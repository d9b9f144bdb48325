"""Linear connection on the bundle and the derived derivative operators.

Conventions, locked by the duality identity d<mu,e> = <D mu,e> + <mu,D e>:

    (D e)^a   = d f^a + Gamma^a_b f^b          on sections,
    (D mu)_a  = d mu_a - Gamma^b_a mu_b        on dual sections,

with Gamma^a_b = Gamma^a_{b i} dx^i, extended to dual-valued k-forms by
(D mu)_a = d mu_a - Gamma^b_a ^ mu_b.  The tangent action combines the
anchor flow with the connection:  nabla_e v = L_{rho(e)} v + rho(D_v e).
"""

from __future__ import annotations

from .algebroid import AlgebroidData
from .fields import (
    FormField,
    MetricField,
    const_field,
    exterior_derivative,
    field_sum_d,
    index_label,
    lie_derivative_metric,
    wedge,
)


class ConnectionData:
    def __init__(self, alg: AlgebroidData, gamma):
        """gamma: nested list [a][b][i] of ScalarField for Gamma^a_{b i}."""
        self.alg = alg
        self.gamma = gamma

    @staticmethod
    def flat(alg: AlgebroidData) -> "ConnectionData":
        zero = const_field(0.0, alg.dim)
        r, d = alg.rank, alg.dim
        return ConnectionData(alg, [[[zero] * d for _ in range(r)] for _ in range(r)])

    @property
    def is_flat(self) -> bool:
        return all(
            self.gamma[a][b][i].is_zero
            for a in range(self.alg.rank)
            for b in range(self.alg.rank)
            for i in range(self.alg.dim)
        )

    def one_form(self, a: int, b: int) -> FormField:
        """Gamma^a_b as a 1-form."""
        chart = self.alg.chart
        return FormField(chart, 1, {(i,): self.gamma[a][b][i] for i in range(chart.dim)})


def dual_covariant_derivative(conn: ConnectionData, mu):
    """Exterior covariant derivative on dual-bundle-valued forms.

    ``mu`` is a list over the bundle index of FormFields of one degree; a
    dual section is a list of 0-forms.  Returns a list of FormFields one
    degree higher.
    """
    r = conn.alg.rank
    out = []
    for a in range(r):
        form = exterior_derivative(mu[a])
        for b in range(r):
            form = form - wedge(conn.one_form(b, a), mu[b])
        out.append(form)
    return out


def e_nabla_metric_fields(conn: ConnectionData, g: MetricField):
    """Residuals of the tangent-action compatibility of the metric.

    (L_{rho_a} g)_ij - Gamma^b_{a i} rho^k_b g_kj - Gamma^b_{a j} rho^k_b g_ki,
    per basis index a and i <= j.
    """
    alg = conn.alg
    d = alg.dim
    out = []
    for a in range(alg.rank):
        lie = lie_derivative_metric(alg.anchor_vector(a), g)
        for i in range(d):
            for j in range(i, d):
                terms = [lie[i][j]]
                for b in range(alg.rank):
                    for k in range(d):
                        terms.append(-(conn.gamma[b][a][i] * alg.anchor[b][k] * g.g[k][j]))
                        terms.append(-(conn.gamma[b][a][j] * alg.anchor[b][k] * g.g[k][i]))
                out.append((index_label(a=a, i=(i, j)), field_sum_d(terms, d)))
    return out


def e_nabla_two_form_fields(conn: ConnectionData, B: FormField):
    """Residuals of the tangent-action derivative of a 2-form.

    rho^k_a d_k B_ij + d_i rho^k_a B_kj + d_j rho^k_a B_ik
      - Gamma^b_{a i} rho^k_b B_kj - Gamma^b_{a j} rho^k_b B_ik,
    per a and i < j.  Vanishes together with the anchoring condition on
    the induced dual-valued 1-form whenever B is closed.
    """
    alg = conn.alg
    d = alg.dim
    out = []
    for a in range(alg.rank):
        rho = alg.anchor[a]
        for i in range(d):
            for j in range(i + 1, d):
                terms = []
                Bij = B.comp((i, j))
                for k in range(d):
                    Bkj = B.comp((k, j))
                    Bik = B.comp((i, k))
                    terms.append(rho[k] * Bij.partial(k))
                    terms.append(rho[k].partial(i) * Bkj)
                    terms.append(rho[k].partial(j) * Bik)
                    for b in range(alg.rank):
                        terms.append(-(conn.gamma[b][a][i] * alg.anchor[b][k] * Bkj))
                        terms.append(-(conn.gamma[b][a][j] * alg.anchor[b][k] * Bik))
                out.append((index_label(a=a, i=(i, j)), field_sum_d(terms, d)))
    return out
