"""Constrained mechanics on the cotangent bundle of the chart.

Phase-space functions polynomial in the momenta are stored by monomial:
``monomials[(i1 <= ... <= ik)]`` is the scalar-field coefficient of
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
B = d(g_flat beta) while shifting alpha, V and tau.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .algebroid import AlgebroidData
from .connections import ConnectionData
from .fields import (
    FormField,
    MetricField,
    ScalarField,
    VectorField,
    const_field,
    exterior_derivative,
    field_sum_d,
)


class PhasePolynomial:
    def __init__(self, dim: int, monomials=None):
        self.dim = dim
        self.monomials: dict[tuple[int, ...], ScalarField] = {}
        if monomials:
            for key, f in monomials.items():
                if not f.is_zero:
                    self.monomials[tuple(key)] = f

    @staticmethod
    def zero(dim: int) -> "PhasePolynomial":
        return PhasePolynomial(dim)

    @property
    def max_degree(self) -> int:
        return max((len(k) for k in self.monomials), default=0)

    def coeff(self, key) -> ScalarField:
        f = self.monomials.get(tuple(sorted(key)))
        return f if f is not None else const_field(0.0, self.dim)

    def degrees_present(self):
        return sorted({len(k) for k in self.monomials})

    def degree_part(self, k: int) -> dict[tuple[int, ...], ScalarField]:
        return {key: f for key, f in self.monomials.items() if len(key) == k}

    def dp(self, i: int) -> "PhasePolynomial":
        out: dict[tuple[int, ...], list[ScalarField]] = {}
        for key, f in self.monomials.items():
            m = key.count(i)
            if m == 0:
                continue
            reduced = list(key)
            reduced.remove(i)
            out.setdefault(tuple(reduced), []).append(f.scaled(float(m)))
        return PhasePolynomial(self.dim, {k: field_sum_d(v, self.dim) for k, v in out.items()})

    def dx(self, i: int) -> "PhasePolynomial":
        return PhasePolynomial(self.dim, {k: f.partial(i) for k, f in self.monomials.items()})

    def mul(self, other: "PhasePolynomial") -> "PhasePolynomial":
        out: dict[tuple[int, ...], list[ScalarField]] = {}
        for k1, f1 in self.monomials.items():
            for k2, f2 in other.monomials.items():
                out.setdefault(tuple(sorted(k1 + k2)), []).append(f1 * f2)
        return PhasePolynomial(self.dim, {k: field_sum_d(v, self.dim) for k, v in out.items()})

    def mul_field(self, g: ScalarField) -> "PhasePolynomial":
        return PhasePolynomial(self.dim, {k: f * g for k, f in self.monomials.items()})

    def scaled(self, c: float) -> "PhasePolynomial":
        return PhasePolynomial(self.dim, {k: f.scaled(c) for k, f in self.monomials.items()})

    def __add__(self, other: "PhasePolynomial") -> "PhasePolynomial":
        out = {}
        for key in set(self.monomials) | set(other.monomials):
            out[key] = self.coeff(key) + other.coeff(key)
        return PhasePolynomial(self.dim, out)

    def __sub__(self, other: "PhasePolynomial") -> "PhasePolynomial":
        out = {}
        for key in set(self.monomials) | set(other.monomials):
            out[key] = self.coeff(key) - other.coeff(key)
        return PhasePolynomial(self.dim, out)


def _half_bracket(F: PhasePolynomial, G: PhasePolynomial, twist: FormField | None) -> PhasePolynomial:
    """T(F,G) = dF/dp_i dG/dx^i + (1/2) B_ij dF/dp_i dG/dp_j."""
    dim = F.dim
    total = PhasePolynomial.zero(dim)
    dpF = [F.dp(i) for i in range(dim)]
    for i in range(dim):
        total = total + dpF[i].mul(G.dx(i))
    if twist is not None and not twist.is_zero:
        dpG = [G.dp(j) for j in range(dim)]
        for i in range(dim):
            for j in range(dim):
                b = twist.comp((i, j))
                if b.is_zero:
                    continue
                total = total + dpF[i].mul(dpG[j]).mul_field(b).scaled(0.5)
    return total


def poisson_bracket(F: PhasePolynomial, G: PhasePolynomial, twist: FormField | None = None) -> PhasePolynomial:
    """{F, G}, exactly antisymmetric coefficient by coefficient."""
    return _half_bracket(F, G, twist) - _half_bracket(G, F, twist)


def monomial_label(key: tuple[int, ...]) -> str:
    if not key:
        return "1"
    return "p" + "p".join(str(i + 1) for i in key)


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
        mono = {}
        for i in range(self.dim):
            f = self.alg.anchor[a][i]
            if not f.is_zero:
                mono[(i,)] = f
        if not self.alpha[a].is_zero:
            mono[()] = self.alpha[a]
        return PhasePolynomial(self.dim, mono)

    def hamiltonian(self) -> PhasePolynomial:
        d = self.dim
        ginv = self.metric.inverse()
        mono: dict[tuple[int, ...], ScalarField] = {}
        for i in range(d):
            mono[(i, i)] = ginv[i][i].scaled(0.5)
            for j in range(i + 1, d):
                mono[(i, j)] = ginv[i][j]
        for i in range(d):
            if not self.beta.comps[i].is_zero:
                mono[(i,)] = self.beta.comps[i]
        if not self.V.is_zero:
            mono[()] = self.V
        return PhasePolynomial(d, mono)

    def multiplier(self, a: int, b: int) -> PhasePolynomial:
        """lambda_a^b = g^{ij} Gamma^b_{aj} p_i + tau_a^b."""
        d = self.dim
        ginv = self.metric.inverse()
        mono: dict[tuple[int, ...], ScalarField] = {}
        for i in range(d):
            terms = []
            for j in range(d):
                gam = self.conn.gamma[b][a][j]
                if gam.is_zero:
                    continue
                terms.append(ginv[i][j] * gam)
            f = field_sum_d(terms, d)
            if not f.is_zero:
                mono[(i,)] = f
        if not self.tau[a][b].is_zero:
            mono[()] = self.tau[a][b]
        return PhasePolynomial(d, mono)


def first_class_fields(sys: ConstraintSystem):
    """Residual monomials of {Phi_a, Phi_b} - C^c_ab Phi_c, grouped by degree.

    Returns {degree: [(label, field)]}.
    """
    out: dict[int, list] = {}
    r = sys.rank
    phis = [sys.constraint(a) for a in range(r)]
    for a in range(r):
        for b in range(a + 1, r):
            res = poisson_bracket(phis[a], phis[b], sys.twist)
            for c in range(r):
                C = sys.alg.structure(c, a, b)
                if C.is_zero:
                    continue
                res = res - phis[c].mul_field(C)
            for key, f in res.monomials.items():
                out.setdefault(len(key), []).append((f"a{a + 1} b{b + 1} {monomial_label(key)}", f))
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
    H = sys.hamiltonian()
    phis = [sys.constraint(a) for a in range(r)]
    out: dict[int, list] = {0: [], 1: [], 2: []}
    for a in range(r):
        res = poisson_bracket(H, phis[a], sys.twist)
        for b in range(r):
            lam = sys.multiplier(a, b)
            if lam.monomials:
                res = res - lam.mul(phis[b])
        if res.max_degree > 2:
            for key, f in res.monomials.items():
                if len(key) > 2:
                    out.setdefault(len(key), []).append(
                        (f"a{a + 1} {monomial_label(key)}", f)
                    )
        # degree 2, lowered twice: S_ij = 2 g_ip W^pq g_qj
        W = [[const_field(0.0, d) for _ in range(d)] for _ in range(d)]
        for key, f in res.degree_part(2).items():
            i, j = key
            if i == j:
                W[i][i] = f
            else:
                W[i][j] = f.scaled(0.5)
                W[j][i] = f.scaled(0.5)
        g = sys.metric.g
        for i in range(d):
            for j in range(i, d):
                terms = []
                for p in range(d):
                    for q in range(d):
                        if W[p][q].is_zero or g[i][p].is_zero or g[q][j].is_zero:
                            continue
                        terms.append((g[i][p] * W[p][q] * g[q][j]).scaled(2.0))
                out[2].append((f"a{a + 1} i{i + 1} j{j + 1}", field_sum_d(terms, d)))
        # degree 1, lowered once
        for j in range(d):
            terms = []
            for k in range(d):
                ck = res.coeff((k,))
                if ck.is_zero or g[j][k].is_zero:
                    continue
                terms.append(g[j][k] * ck)
            out[1].append((f"a{a + 1} i{j + 1}", field_sum_d(terms, d)))
        out[0].append((f"a{a + 1} 1", res.coeff(())))
    return out


@dataclass
class AbsorbedSystem:
    system: ConstraintSystem
    A: FormField  # g_flat beta
    B: FormField  # dA, the installed twist
    alpha_prime: list
    V_prime: ScalarField
    tau_prime: list


def absorb_beta(sys: ConstraintSystem) -> AbsorbedSystem:
    """Remove the linear momentum term from the Hamiltonian.

    A = g_flat beta, B = dA (closed by construction), and

        alpha'_a = alpha_a - rho^i_a A_i
        V'       = V - (1/2) g(beta, beta)
        tau'_a^b = tau_a^b - Gamma^b_{ai} beta^i

    The returned system carries beta = 0 and the twist B.
    """
    alg, conn = sys.alg, sys.conn
    d, r = sys.dim, sys.rank
    A = sys.metric.lower(sys.beta)
    B = exterior_derivative(A)
    alpha_prime = []
    for a in range(r):
        terms = [sys.alpha[a]]
        for i in range(d):
            Ai = A.comp((i,))
            if Ai.is_zero or alg.anchor[a][i].is_zero:
                continue
            terms.append(-(alg.anchor[a][i] * Ai))
        alpha_prime.append(field_sum_d(terms, d))
    vterms = [sys.V]
    for i in range(d):
        Ai = A.comp((i,))
        if Ai.is_zero or sys.beta.comps[i].is_zero:
            continue
        vterms.append((sys.beta.comps[i] * Ai).scaled(-0.5))
    V_prime = field_sum_d(vterms, d)
    tau_prime = []
    for a in range(r):
        row = []
        for b in range(r):
            terms = [sys.tau[a][b]]
            for i in range(d):
                gam = conn.gamma[b][a][i]
                if gam.is_zero or sys.beta.comps[i].is_zero:
                    continue
                terms.append(-(gam * sys.beta.comps[i]))
            row.append(field_sum_d(terms, d))
        tau_prime.append(row)
    twisted = replace(
        sys,
        alpha=alpha_prime,
        beta=VectorField.zero(alg.chart),
        V=V_prime,
        tau=tau_prime,
        twist=B,
    )
    return AbsorbedSystem(twisted, A, B, alpha_prime, V_prime, tau_prime)
