"""Anchored bracket structure on a trivialized vector bundle.

Holds the anchor components rho^i_a and structure functions C^c_ab (kept
antisymmetric in the lower pair by storing each C^c as a bundle 2-form),
sections, the axiom residuals, and the differential on bundle forms.

Builders loop over non-zero tables, not index ranges: the (i, rho^i_a)
of each a, the (c, C^c_ab) of each pair a != b (negated nodes for a > b)
and whether all C^c_ab are finite constants.  Each is built on its first
use by a planner, not at load, a pair a > b on its own, and then kept.
"""

from __future__ import annotations

import math
import weakref
from bisect import bisect_left
from functools import cached_property
from itertools import combinations

from .fields import (
    ZERO,
    Chart,
    Components,
    ConstField,
    ScalarField,
    VectorField,
    field_sum_d,
    index_label,
    lie_bracket_terms,
    ordered_sums,
    signed,
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
        self._brackets: dict = {}

    @property
    def dim(self) -> int:
        return self.chart.dim

    @cached_property
    def rho(self) -> list:
        """[a] -> [(i, rho^i_a)] over the non-zero anchor components."""
        return [[(i, f) for i, f in enumerate(row) if not f.is_zero] for row in self.anchor]

    def brackets(self, a: int, b: int) -> dict:
        """{c: C^c_ab} over the non-zero C^c_ab, by increasing c."""
        table = self._brackets.get((a, b))
        if table is None:
            ab = (min(a, b), max(a, b))
            table = {c: signed(C.comps[ab], b - a) for c, C in enumerate(self.C) if ab in C.comps}
            self._brackets[(a, b)] = table
        return table

    @cached_property
    def constant_structure(self) -> bool:
        """Whether every C^c_ab is a finite constant of the model: the
        hypothesis of the constant-bracket reductions."""
        return all(isinstance(f, ConstField) and math.isfinite(f.c) for C in self.C for f in C.comps.values())

    @cached_property
    def _anchor_vectors(self) -> list:
        return [VectorField(self.chart, list(row)) for row in self.anchor]

    def anchor_vector(self, a: int) -> VectorField:
        """rho_a as a vector field, made on first use."""
        return self._anchor_vectors[a]

    def apply_anchor(self, a: int, f: ScalarField) -> ScalarField:
        """rho(e_a) f = rho^i_a d_i f."""
        return field_sum_d(self.anchor_terms(a, f), self.dim)

    def anchor_terms(self, a: int, f: ScalarField) -> list:
        """The terms of ``apply_anchor(a, f)``, for a larger sum."""
        return [rho * df for i, rho in self.rho[a] if not (df := f.partial(i)).is_zero]


def anchor_morphism_fields(alg: AlgebroidData):
    """[(label, field)] for [rho_a, rho_b]^i - C^c_ab rho^i_c over a<b, i."""
    out = []
    for a in range(alg.rank):
        for b in range(a + 1, alg.rank):
            lb = lie_bracket_terms(alg.anchor_vector(a), alg.anchor_vector(b))
            brackets = alg.brackets(a, b)
            for i in range(alg.dim):
                terms = lb[i] + [-(f * alg.anchor[c][i]) for c, f in brackets.items() if not alg.anchor[c][i].is_zero]
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
    for x, y, z in combinations(range(r), 3):
        for dd in range(r):
            terms = []
            for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
                for e, f in alg.brackets(a, b).items():
                    g = alg.brackets(c, e).get(dd)
                    if g is not None:
                        terms.append(f * g)
                h = alg.brackets(b, c).get(dd)
                if h is not None:
                    terms += alg.anchor_terms(a, h)
            f = field_sum_d(terms, d)
            sigma.append((index_label(d=dd, a=(x, y, z)), f))
            if not f.is_zero:
                contracted += [(index_label(d=dd, a=(x, y, z), i=i), f * rho) for i, rho in alg.rho[dd]]
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
        return ZERO[self.alg.dim]

    def _like(self, comps) -> "EForm":
        return EForm(self.alg, self.degree, comps)


def e_differential(alpha: EForm) -> EForm:
    """Bundle differential on basis evaluations.

    (d_E a)(e_1..e_{m+1}) = sum_i (-1)^{i-1} rho(e_i) a(..no e_i..)
                          + sum_{i<j} (-1)^{i+j} a([e_i,e_j], ..no e_i, e_j..)

    Each stored component's terms are scattered to their place in the sums
    above: anchor terms by i, then bracket terms by (i, j, c).
    """
    alg = alpha.alg
    m = alpha.degree
    if m >= alg.rank:
        # every bundle form above the top exterior degree is zero
        return EForm(alg, m + 1)
    terms: dict = {}
    for key, f in alpha.comps.items():
        for a, rho in enumerate(alg.rho):
            if rho and a not in key:
                pos = bisect_left(key, a)
                # the terms of an added rho(e_a) a(..) join the sum, a subtracted one is negated whole
                ts = alg.anchor_terms(a, f) if pos % 2 == 0 else [-alg.apply_anchor(a, f)]
                terms.setdefault(key[:pos] + (a,) + key[pos:], []).extend(((0, pos), t) for t in ts)
        for q, c in enumerate(key):
            # the component at (c, rest) is f with the sign of moving c to q
            rest = key[:q] + key[q + 1 :]
            for (x, y), C in alg.C[c].comps.items():
                if x not in rest and y not in rest:
                    idx = tuple(sorted(rest + (x, y)))
                    # positions are 0-based; (-1)^{i+j} with 1-based i, j
                    pi, pj = idx.index(x), idx.index(y)
                    t = signed(C * signed(f, (-1) ** q), (-1) ** (pi + pj))
                    terms.setdefault(idx, []).append(((1, pi, pj, c), t))
    return EForm(alg, m + 1, ordered_sums(terms, alg.dim))


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
            # d_E of the basis 1-form e^c is -C^c: its anchor terms vanish,
            # and its bracket terms are C^c times its component 1
            first = EForm(alg, 2, {key: -C for key, C in alg.C[c].comps.items()})
            out += e_differential(first).rows(index_label(c=c))
    return out
