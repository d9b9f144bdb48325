"""Anchored bracket structure on a trivialized vector bundle.

Holds the anchor components rho^i_a and structure functions C^c_ab (kept
antisymmetric in the lower pair by storing each C^c as a bundle 2-form),
sections, the axiom residuals, and the differential on bundle forms.
"""

from __future__ import annotations

import weakref
from itertools import combinations

from .fields import (
    Chart,
    Components,
    ScalarField,
    VectorField,
    const_field,
    field_sum_d,
    index_label,
    lie_bracket,
)


class AlgebroidData:
    def __init__(self, chart: Chart, rank: int, anchor, structure):
        """anchor: list [a][i] of ScalarField; structure: {(c, a, b) a<b: field}."""
        if rank < 1:
            raise ValueError("rank must be at least 1")
        self.chart = chart
        self.rank = rank
        self.anchor = anchor
        lower: list[dict] = [{} for _ in range(rank)]
        for (c, a, b), f in structure.items():
            if not a < b:
                raise ValueError("structure functions are keyed with a < b")
            lower[c][(a, b)] = f
        # C[c] is the bundle 2-form (a, b) -> C^c_ab; it refers to this
        # algebroid weakly, since a cycle would keep a dropped model's
        # fields alive until the cyclic collector ran
        self.C = [EForm(weakref.proxy(self), 2, comps) for comps in lower]

    @property
    def dim(self) -> int:
        return self.chart.dim

    def structure(self, c: int, a: int, b: int) -> ScalarField:
        """C^c_{ab}, extended antisymmetrically in (a, b)."""
        return self.C[c].comp((a, b))

    def anchor_vector(self, a: int) -> VectorField:
        return VectorField(self.chart, list(self.anchor[a]))

    def apply_anchor(self, a: int, f: ScalarField) -> ScalarField:
        """rho(e_a) f = rho^i_a d_i f."""
        if f.is_zero:
            return f
        return field_sum_d(
            [self.anchor[a][i] * f.partial(i) for i in range(self.dim) if not self.anchor[a][i].is_zero],
            self.dim,
        )


def anchor_morphism_fields(alg: AlgebroidData):
    """[(label, field)] for [rho_a, rho_b]^i - C^c_ab rho^i_c over a<b, i."""
    out = []
    for a in range(alg.rank):
        for b in range(a + 1, alg.rank):
            lb = lie_bracket(alg.anchor_vector(a), alg.anchor_vector(b))
            for i in range(alg.dim):
                terms = [lb.comps[i]]
                for c in range(alg.rank):
                    terms.append(-(alg.structure(c, a, b) * alg.anchor[c][i]))
                out.append((index_label(a=a, b=b, i=i), field_sum_d(terms, alg.dim)))
    return out


def jacobi_sigma_fields(alg: AlgebroidData):
    """Cyclic Jacobi tensor sigma^d_abc on a<b<c, plus its anchor contraction.

    Returns (sigma_fields, contracted_fields).  With repeated lower
    indices the cyclic sum vanishes identically, so only strictly
    increasing triples are evaluated.
    """
    r, d = alg.rank, alg.dim
    sigma = []
    contracted = []
    for abc in combinations(range(r), 3):
        for dd in range(r):
            terms = []
            for a, b, c in ((abc[0], abc[1], abc[2]), (abc[1], abc[2], abc[0]), (abc[2], abc[0], abc[1])):
                for e in range(r):
                    terms.append(alg.structure(e, a, b) * alg.structure(dd, c, e))
                terms.append(alg.apply_anchor(a, alg.structure(dd, b, c)))
            f = field_sum_d(terms, d)
            sigma.append((index_label(d=dd, a=abc), f))
            for i in range(alg.dim):
                if alg.anchor[dd][i].is_zero or f.is_zero:
                    continue
                contracted.append((index_label(d=dd, a=abc, i=i), f * alg.anchor[dd][i]))
    return sigma, contracted


class EForm(Components):
    """Degree-m element of the exterior algebra on the dual bundle."""

    letter = "e"

    def __init__(self, alg: AlgebroidData, degree: int, comps=None):
        if degree < 0:
            raise ValueError("bundle form degree must be non-negative")
        # degree > rank is allowed and denotes the zero form
        self.alg = alg
        self.degree = degree
        super().__init__(comps)

    def _zero(self) -> ScalarField:
        return const_field(0.0, self.alg.dim)

    def _like(self, comps) -> "EForm":
        return EForm(self.alg, self.degree, comps)


def e_differential(alpha: EForm) -> EForm:
    """Bundle differential on basis evaluations.

    (d_E a)(e_1..e_{m+1}) = sum_i (-1)^{i-1} rho(e_i) a(..no e_i..)
                          + sum_{i<j} (-1)^{i+j} a([e_i,e_j], ..no e_i, e_j..)
    """
    alg = alpha.alg
    m = alpha.degree
    if m >= alg.rank:
        # every bundle form above the top exterior degree is zero
        return EForm(alg, m + 1)
    comps = {}
    for idx in combinations(range(alg.rank), m + 1):
        terms = []
        for pos, a in enumerate(idx):
            t = alg.apply_anchor(a, alpha.comp(idx[:pos] + idx[pos + 1 :]))
            terms.append(t if pos % 2 == 0 else -t)
        for pi in range(m + 1):
            for pj in range(pi + 1, m + 1):
                rest = tuple(x for q, x in enumerate(idx) if q not in (pi, pj))
                for c in range(alg.rank):
                    # positions are 0-based; (-1)^{i+j} with 1-based i, j
                    t = alg.structure(c, idx[pi], idx[pj]) * alpha.comp((c,) + rest)
                    terms.append(t if (pi + pj) % 2 == 0 else -t)
        comps[idx] = field_sum_d(terms, alg.dim)
    return EForm(alg, m + 1, comps)


def q_squared_fields(alg: AlgebroidData):
    """Residual fields of the squared differential.

    Applies the bundle differential twice to the coordinate functions and
    to the constant basis one-forms; both vanish exactly when the anchor
    morphism and Jacobi residuals vanish.
    """
    out = []
    d = alg.dim
    if alg.rank >= 2:
        for i in range(d):
            # d_E of the i-th coordinate is the bundle 1-form a |-> rho^i_a
            one = EForm(alg, 1, {(a,): alg.anchor[a][i] for a in range(alg.rank)})
            out += e_differential(one).rows(index_label(x=i))
    if alg.rank >= 3:
        for c in range(alg.rank):
            basis = EForm(alg, 1, {(c,): const_field(1.0, d)})
            out += e_differential(e_differential(basis)).rows(index_label(c=c))
    return out
