"""Constrained mechanics on the cotangent bundle of the chart.

Phase-space functions polynomial in the momenta are stored by monomial:
``comps[(i1 <= ... <= ik)]`` is the scalar-field coefficient of
``p_{i1} ... p_{ik}``.  The canonical bracket follows the convention
``{p_i, x^j} = delta_i^j``; with a twist 2-form installed it acquires
``{p_i, p_j} = B_ij``:

    {F, G} = dF/dp_i dG/dx^i - dF/dx^i dG/dp_i + B_ij dF/dp_i dG/dp_j.

Brackets are assembled as T(F,G) - T(G,F) with coefficient-wise exact
differences, so antisymmetry holds exactly in floating point.

The constraint system carries affine constraints rho^i_a p_i + alpha_a,
a Hamiltonian (1/2) g^{ij} p_i p_j + beta^i p_i + V built from the
inverse metric, and multipliers lambda_a^b = g^{ij} Gamma^b_{aj} p_i +
tau_a^b.  ``absorb_beta`` trades the linear momentum term for a twist
B = d(g_flat beta) while shifting alpha, V and tau, and returns the
twisted system itself: its ``twist``, ``alpha``, ``V`` and ``tau`` are
B, alpha', V' and tau'.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .algebroid import AlgebroidData
from .connections import ConnectionData
from .fields import (
    Components,
    Deferred,
    FormField,
    MetricField,
    ScalarField,
    VectorField,
    const_field,
    exterior_derivative,
    field_sum_d,
    index_label,
)


class PhasePolynomial(Components):
    """Coefficient fields of the momentum monomials, keyed by non-decreasing
    momentum-index tuples; ``comp`` looks up any ordering of a key."""

    symmetric = True
    letter = "p"

    def __init__(self, dim: int, comps=None):
        self.dim = dim
        super().__init__(comps)

    def _zero(self) -> ScalarField:
        return const_field(0.0, self.dim)

    def _like(self, comps) -> "PhasePolynomial":
        return PhasePolynomial(self.dim, comps)

    def degrees_present(self):
        return sorted({len(k) for k in self.comps})

    def degree_part(self, k: int) -> "PhasePolynomial":
        return PhasePolynomial(self.dim, {key: f for key, f in self.comps.items() if len(key) == k})

    def dp(self, i: int) -> "PhasePolynomial":
        # removing one p_i maps distinct monomials to distinct monomials
        out = {}
        for key, f in self.comps.items():
            m = key.count(i)
            if m:
                reduced = list(key)
                reduced.remove(i)
                out[tuple(reduced)] = f.scaled(float(m))
        return PhasePolynomial(self.dim, out)

    def dx(self, i: int) -> "PhasePolynomial":
        return PhasePolynomial(self.dim, {k: f.partial(i) for k, f in self.comps.items()})

    def mul(self, other: "PhasePolynomial") -> "PhasePolynomial":
        return PhasePolynomial(self.dim, {k: field_sum_d(v, self.dim) for k, v in self.products(other, {}).items()})

    def products(self, other: "PhasePolynomial", out: dict) -> dict:
        """``out`` with the products of ``self.mul(other)`` appended by monomial, in its order."""
        for k1, f1 in self.comps.items():
            for k2, f2 in other.comps.items():
                out.setdefault(tuple(sorted(k1 + k2)), []).append(f1 * f2)
        return out


class _Operand(dict):
    """A polynomial in brackets, with its p-derivatives by index, each
    taken when first read: an operand of several brackets takes each once."""

    def __init__(self, P: PhasePolynomial):
        super().__init__()
        self.P = P

    def __missing__(self, i: int) -> PhasePolynomial:
        self[i] = dp = self.P.dp(i)
        return dp


def _half_bracket(F: _Operand, G: _Operand, twist: FormField | None) -> PhasePolynomial:
    """T(F,G) = dF/dp_i dG/dx^i + (1/2) B_ij dF/dp_i dG/dp_j."""
    dim = F.P.dim
    # each monomial's terms in the order of the sums above, with no derivative whose partner is zero
    terms: dict = {}
    pF, pG = ({i for key in P.comps for i in key} for P in (F.P, G.P))
    for i in sorted(pF):
        if not (dG := G.P.dx(i)).is_zero:
            F[i].products(dG, terms)
    if twist is not None:
        for i, row in enumerate(twist.incidence):
            for j in row:
                if i in pF and j in pG:
                    part = F[i].mul(G[j]).mul_field(twist.comp((i, j))).scaled(0.5)
                    for key, f in part.comps.items():
                        terms.setdefault(key, []).append(f)
    return PhasePolynomial(dim, {key: field_sum_d(v, dim) for key, v in terms.items()})


def _bracket(F: _Operand, G: _Operand, twist: FormField | None) -> PhasePolynomial:
    return _half_bracket(F, G, twist) - _half_bracket(G, F, twist)


def poisson_bracket(F: PhasePolynomial, G: PhasePolynomial, twist: FormField | None = None) -> PhasePolynomial:
    """{F, G}, exactly antisymmetric coefficient by coefficient."""
    return _bracket(_Operand(F), _Operand(G), twist)


# ---------------------------------------------------------------------------
# Constraint systems


@dataclass
class ConstraintSystem:
    alg: AlgebroidData
    conn: ConnectionData
    metric: MetricField
    alpha: list  # ScalarField per constraint index
    beta: VectorField
    V: ScalarField
    tau: list  # tau[a][b] = tau_a^b, ScalarField
    twist: FormField | None = None

    @property
    def dim(self) -> int:
        return self.alg.dim

    @property
    def rank(self) -> int:
        return self.alg.rank

    def constraint(self, a: int) -> PhasePolynomial:
        mono = {(i,): self.alg.anchor[a][i] for i in range(self.dim)}
        mono[()] = self.alpha[a]
        return PhasePolynomial(self.dim, mono)

    def hamiltonian(self) -> PhasePolynomial:
        d = self.dim
        ginv = self.metric.inverse()
        mono: dict[tuple[int, ...], ScalarField] = {}
        for i in range(d):
            # built where a bracket reads its value, not only its partials
            mono[(i, i)] = Deferred([(0.5, ginv[i][i], None)], d)
            for j in range(i + 1, d):
                mono[(i, j)] = ginv[i][j]
        for i in range(d):
            mono[(i,)] = self.beta.comps[i]
        mono[()] = self.V
        return PhasePolynomial(d, mono)

    def multiplier(self, a: int, b: int) -> PhasePolynomial:
        """lambda_a^b = g^{ij} Gamma^b_{aj} p_i + tau_a^b."""
        d = self.dim
        mono: dict[tuple[int, ...], ScalarField] = {}
        ginv = self.metric.inverse()
        gamma = self.conn.one_form(b, a).comps
        for i in range(d):
            mono[(i,)] = field_sum_d([ginv[i][j] * f for (j,), f in gamma.items()], d)
        mono[()] = self.tau[a][b]
        return PhasePolynomial(d, mono)


def first_class_fields(sys: ConstraintSystem):
    """Residual monomials of {Phi_a, Phi_b} - C^c_ab Phi_c, grouped by degree.

    Returns {degree: [(label, field)]}.
    """
    out: dict[int, list] = {}
    r = sys.rank
    phis = [_Operand(sys.constraint(a)) for a in range(r)]
    for a in range(r):
        for b in range(a + 1, r):
            res = _bracket(phis[a], phis[b], sys.twist)
            for c, C in sys.alg.brackets(a, b).items():
                res = res - phis[c].P.mul_field(C)
            for k in res.degrees_present():
                out.setdefault(k, []).extend(res.degree_part(k).rows(index_label(a=a, b=b)))
    return out


def flow_fields(sys: ConstraintSystem):
    """Residuals of {H, Phi_a} - lambda_a^b Phi_b, reported per degree.

    The quadratic and linear blocks are returned with indices lowered by
    the metric: the quadratic block as 2 g W g (which matches the
    tangent-compatibility residual of the metric), the linear block as
    g_ij c^j (which matches the momentum-section residual once the
    multiplier's zeroth-order part is absorbed).
    """
    d = sys.dim
    r = sys.rank
    # H's p-derivatives are taken once, for every constraint
    H = _Operand(sys.hamiltonian())
    phis = [_Operand(sys.constraint(a)) for a in range(r)]
    out: dict[int, list] = {0: [], 1: [], 2: []}
    for a in range(r):
        res = _bracket(H, phis[a], sys.twist)
        for b in range(r):
            res = res - sys.multiplier(a, b).mul(phis[b].P)
        # H is quadratic in p and Phi_a and lambda_a^b Phi_b are affine in
        # p, so res has degree at most 2.  Degree 2, lowered twice:
        # S_ij = 2 g_ip W^pq g_qj, over the non-zero W^pq
        W = {}
        for (i, j), f in res.degree_part(2).comps.items():
            W[(i, j)] = W[(j, i)] = f if i == j else f.scaled(0.5)
        g = sys.metric.stored
        for i in range(d):
            for j in range(i, d):
                terms = [(gip * W[(p, q)] * gjq).scaled(2.0) for p, gip in g[i] for q, gjq in g[j] if (p, q) in W]
                out[2].append((index_label(a=a, i=(i, j)), field_sum_d(terms, d)))
        # degree 1, lowered once
        for j in range(d):
            terms = [gjk * res.comps[(k,)] for k, gjk in g[j] if (k,) in res.comps]
            out[1].append((index_label(a=a, i=j), field_sum_d(terms, d)))
        out[0].append((index_label(a=a), res.comp(())))
    return out


def absorb_beta(sys: ConstraintSystem) -> ConstraintSystem:
    """The system with the linear momentum term removed from its Hamiltonian.

    A = g_flat beta, B = dA (closed by construction), and

        alpha'_a = alpha_a - rho^i_a A_i
        V'       = V - (1/2) g(beta, beta)
        tau'_a^b = tau_a^b - Gamma^b_{ai} beta^i

    The returned system carries alpha', beta = 0, V', tau' and the twist B.
    """
    alg, conn = sys.alg, sys.conn
    d, r = sys.dim, sys.rank
    A = sys.metric.lower(sys.beta)
    # alpha' and V' are built only where their values are read, not only their partials
    alpha = []
    for a in range(r):
        terms = [(1.0, sys.alpha[a], None)] + [(-1.0, rho, A.comps[(i,)]) for i, rho in alg.rho[a] if (i,) in A.comps]
        alpha.append(Deferred(terms, d))
    vterms = [(1.0, sys.V, None)] + [(-0.5, bi, A.comps[(i,)]) for i, bi in sys.beta.stored() if (i,) in A.comps]
    tau = []
    for a in range(r):
        row = []
        for b in range(r):
            gamma = conn.one_form(b, a).comps.items()
            terms = [sys.tau[a][b]] + [-(f * sys.beta.comps[i]) for (i,), f in gamma if not sys.beta.comps[i].is_zero]
            row.append(field_sum_d(terms, d))
        tau.append(row)
    return replace(
        sys,
        alpha=alpha,
        beta=VectorField.zero(alg.chart),
        V=Deferred(vterms, d),
        tau=tau,
        twist=exterior_derivative(A),
    )


def tau_prime_fields(absorbed: ConstraintSystem):
    """tau'_a^b per ordered pair (a, b) of the system that :func:`absorb_beta`
    returned; the theorem assumes it vanishes."""
    return [(index_label(a=a, b=b), f) for a, row in enumerate(absorbed.tau) for b, f in enumerate(row)]
