"""Linear connection on the bundle and the derived derivative operators.

Conventions, locked by the duality identity d<mu,e> = <D mu,e> + <mu,D e>:

    (D e)^a   = d f^a + Gamma^a_b f^b          on sections,
    (D mu)_a  = d mu_a - Gamma^b_a mu_b        on dual sections,

with Gamma^a_b = Gamma^a_{b i} dx^i, extended to dual-valued k-forms by
(D mu)_a = d mu_a - Gamma^b_a ^ mu_b.  The tangent action combines the
anchor flow with the connection:  nabla_e v = L_{rho(e)} v + rho(D_v e).
"""

from __future__ import annotations

from functools import cached_property

from .algebroid import AlgebroidData
from .fields import (
    ZERO,
    FormField,
    MetricField,
    exterior_derivative,
    by_place,
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
        zero = ZERO[alg.dim]
        r, d = alg.rank, alg.dim
        return ConnectionData(alg, [[[zero] * d for _ in range(r)] for _ in range(r)])

    @cached_property
    def forms(self) -> dict:
        """{(a, b): Gamma^a_b as a 1-form} over the non-zero ones, built on first use."""
        chart = self.alg.chart
        forms = {}
        for a, rows in enumerate(self.gamma):
            for b, row in enumerate(rows):
                if any(not f.is_zero for f in row):
                    forms[(a, b)] = FormField(chart, 1, {(i,): f for i, f in enumerate(row)})
        return forms

    @cached_property
    def is_flat(self) -> bool:
        return not self.forms

    def one_form(self, a: int, b: int) -> FormField:
        """Gamma^a_b as a 1-form."""
        form = self.forms.get((a, b))
        return FormField(self.alg.chart, 1) if form is None else form

    def column(self, b: int, i: int) -> list:
        """[(a, Gamma^a_{b i})] over the non-zero components, by increasing a."""
        return [(a, form.comps[(i,)]) for (a, lower), form in self.forms.items() if lower == b and (i,) in form.comps]


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
        for (b, lower), gamma in conn.forms.items():
            if lower == a:
                form = form - wedge(gamma, mu[b])
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
                # placed as in the dense loop over b, then k, then the pair
                terms = []
                for t, (p, q) in enumerate(((i, j), (j, i))):
                    for b, gamma in conn.column(a, p):
                        terms += [((b, k, t), -(gamma * r * g.g[k][q])) for k, r in alg.rho[b] if not g.g[k][q].is_zero]
                out.append((index_label(a=a, i=(i, j)), field_sum_d([lie[i][j], *by_place(terms)], d)))
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
    zero = ZERO[d]
    if B.is_zero:
        # every term has a factor of B
        return [(index_label(a=a, i=(i, j)), zero) for a in range(alg.rank) for i in range(d) for j in range(i + 1, d)]
    rows = B.incidence
    out = []
    for a in range(alg.rank):
        rho = alg.anchor[a]
        for i in range(d):
            for j in range(i + 1, d):
                # placed as in the dense loop over k, then the five terms (over b)
                Bij = B.comps.get((i, j), zero)
                terms = [((k, 0), r * dB) for k, r in alg.rho[a] if not (dB := Bij.partial(k)).is_zero]
                terms += [((k, 1), dr * B.comp((k, j))) for k in rows[j] if not (dr := rho[k].partial(i)).is_zero]
                terms += [((k, 2), dr * B.comp((i, k))) for k in rows[i] if not (dr := rho[k].partial(j)).is_zero]
                for t, (p, q) in enumerate(((i, j), (j, i))):
                    for b, gamma in conn.column(a, p):
                        # B_kj, then B_ik
                        for k, rb in alg.rho[b]:
                            if k in rows[q]:
                                terms.append(((k, 3, b, t), -(gamma * rb * B.comp((k, j) if t == 0 else (i, k)))))
                out.append((index_label(a=a, i=(i, j)), field_sum_d(by_place(terms), d)))
    return out
