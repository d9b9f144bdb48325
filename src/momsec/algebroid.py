"""Anchored bracket structure on a trivialized vector bundle.

Holds the anchor components rho^i_a and structure functions C^c_ab (kept
antisymmetric in the lower pair by construction), the Leibniz bracket on
sections, the axiom residuals, and the differential on bundle forms.
"""

from __future__ import annotations

from .fields import (
    Chart,
    ScalarField,
    VectorField,
    const_field,
    field_sum_d,
    increasing_tuples,
    lie_bracket,
    sort_signed,
)


class AlgebroidData:
    def __init__(self, chart: Chart, rank: int, anchor, structure):
        """anchor: list [a][i] of ScalarField; structure: {(c, a, b) a<b: field}."""
        if rank < 1:
            raise ValueError("rank must be at least 1")
        self.chart = chart
        self.rank = rank
        self.anchor = anchor
        self._structure: dict[tuple[int, int, int], ScalarField] = {}
        for (c, a, b), f in structure.items():
            if not a < b:
                raise ValueError("structure functions are keyed with a < b")
            if not f.is_zero:
                self._structure[(c, a, b)] = f
        self._anchor_morphism = None

    @property
    def dim(self) -> int:
        return self.chart.dim

    @property
    def structure_entries(self):
        """The stored (c, a, b) -> field map, keys with a < b."""
        return self._structure

    def structure(self, c: int, a: int, b: int) -> ScalarField:
        """C^c_{ab}, extended antisymmetrically in (a, b)."""
        if a == b:
            return const_field(0.0, self.dim)
        if a < b:
            f = self._structure.get((c, a, b))
            return f if f is not None else const_field(0.0, self.dim)
        f = self._structure.get((c, b, a))
        return -f if f is not None else const_field(0.0, self.dim)

    def anchor_morphism(self):
        """The rows of :func:`anchor_morphism_fields`, built once per model so
        that every check on them shares one evaluated graph."""
        if self._anchor_morphism is None:
            self._anchor_morphism = anchor_morphism_fields(self)
        return self._anchor_morphism

    def anchor_vector(self, a: int) -> VectorField:
        return VectorField(self.chart, list(self.anchor[a]))

    def anchor_of(self, section: "Section") -> VectorField:
        comps = []
        for i in range(self.dim):
            comps.append(
                field_sum_d(
                    [section.comps[a] * self.anchor[a][i] for a in range(self.rank)],
                    self.dim,
                )
            )
        return VectorField(self.chart, comps)

    def apply_anchor(self, a: int, f: ScalarField) -> ScalarField:
        """rho(e_a) f = rho^i_a d_i f."""
        return field_sum_d(
            [self.anchor[a][i] * f.partial(i) for i in range(self.dim) if not self.anchor[a][i].is_zero],
            self.dim,
        )


class Section:
    """A section f^a e_a with ScalarField coefficients."""

    def __init__(self, algebroid: AlgebroidData, comps):
        comps = list(comps)
        if len(comps) != algebroid.rank:
            raise ValueError("section needs one component per basis element")
        self.algebroid = algebroid
        self.comps = comps

    @staticmethod
    def basis(algebroid: AlgebroidData, a: int) -> "Section":
        d = algebroid.dim
        return Section(
            algebroid,
            [const_field(1.0 if b == a else 0.0, d) for b in range(algebroid.rank)],
        )


def bracket(e1: Section, e2: Section) -> Section:
    """Leibniz extension of [e_a, e_b] = C^c_ab e_c to weighted sections."""
    alg = e1.algebroid
    if e2.algebroid is not alg:
        raise ValueError("sections live over different models")
    r, d = alg.rank, alg.dim
    out = []
    for c in range(r):
        terms = []
        for a in range(r):
            for b in range(r):
                C = alg.structure(c, a, b)
                if C.is_zero or e1.comps[a].is_zero or e2.comps[b].is_zero:
                    continue
                terms.append(e1.comps[a] * e2.comps[b] * C)
        # rho(e1) g^c  and  - rho(e2) f^c
        for a in range(r):
            if e1.comps[a].is_zero or e2.comps[c].is_zero:
                continue
            for i in range(d):
                if alg.anchor[a][i].is_zero:
                    continue
                terms.append(e1.comps[a] * alg.anchor[a][i] * e2.comps[c].partial(i))
        for b in range(r):
            if e2.comps[b].is_zero or e1.comps[c].is_zero:
                continue
            for i in range(d):
                if alg.anchor[b][i].is_zero:
                    continue
                terms.append(-(e2.comps[b] * alg.anchor[b][i] * e1.comps[c].partial(i)))
        out.append(field_sum_d(terms, d))
    return Section(alg, out)


def anchor_morphism_fields(alg: AlgebroidData):
    """[(label, field)] for [rho_a, rho_b]^i - C^c_ab rho^i_c over a<b, i."""
    out = []
    for a in range(alg.rank):
        for b in range(a + 1, alg.rank):
            lb = lie_bracket(alg.anchor_vector(a), alg.anchor_vector(b))
            for i in range(alg.dim):
                terms = [lb.comps[i]]
                for c in range(alg.rank):
                    C = alg.structure(c, a, b)
                    if C.is_zero or alg.anchor[c][i].is_zero:
                        continue
                    terms.append(-(C * alg.anchor[c][i]))
                out.append((f"a{a + 1} b{b + 1} i{i + 1}", field_sum_d(terms, alg.dim)))
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
    for abc in increasing_tuples(r, 3):
        for dd in range(r):
            terms = []
            for a, b, c in ((abc[0], abc[1], abc[2]), (abc[1], abc[2], abc[0]), (abc[2], abc[0], abc[1])):
                for e in range(r):
                    Cab = alg.structure(e, a, b)
                    Ccd = alg.structure(dd, c, e)
                    if Cab.is_zero or Ccd.is_zero:
                        continue
                    terms.append(Cab * Ccd)
                Cbc = alg.structure(dd, b, c)
                if not Cbc.is_zero:
                    terms.append(alg.apply_anchor(a, Cbc))
            f = field_sum_d(terms, d)
            label = f"d{dd + 1} abc{abc[0] + 1}{abc[1] + 1}{abc[2] + 1}"
            sigma.append((label, f))
            for i in range(alg.dim):
                if alg.anchor[dd][i].is_zero or f.is_zero:
                    continue
                contracted.append((label + f" i{i + 1}", f * alg.anchor[dd][i]))
    return sigma, contracted


class EForm:
    """Degree-m element of the exterior algebra on the dual bundle."""

    def __init__(self, alg: AlgebroidData, degree: int, comps=None):
        if degree < 0:
            raise ValueError("bundle form degree must be non-negative")
        # degree > rank is allowed and denotes the zero form
        self.alg = alg
        self.degree = degree
        self.comps: dict[tuple[int, ...], ScalarField] = {}
        if comps:
            for idx, f in comps.items():
                if not f.is_zero:
                    self.comps[tuple(idx)] = f

    def comp(self, idx) -> ScalarField:
        canon, sign = sort_signed(tuple(idx))
        if canon is None:
            return const_field(0.0, self.alg.dim)
        f = self.comps.get(canon)
        if f is None:
            return const_field(0.0, self.alg.dim)
        return f if sign > 0 else -f


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
    out = EForm(alg, m + 1)
    for idx in increasing_tuples(alg.rank, m + 1):
        terms = []
        for pos, a in enumerate(idx):
            rest = idx[:pos] + idx[pos + 1 :]
            f = alpha.comp(rest)
            if not f.is_zero:
                t = alg.apply_anchor(a, f)
                terms.append(t if pos % 2 == 0 else -t)
        for pi in range(m + 1):
            for pj in range(pi + 1, m + 1):
                rest = tuple(x for q, x in enumerate(idx) if q not in (pi, pj))
                for c in range(alg.rank):
                    C = alg.structure(c, idx[pi], idx[pj])
                    f = alpha.comp((c,) + rest)
                    if C.is_zero or f.is_zero:
                        continue
                    # positions are 0-based; (-1)^{i+j} with 1-based i, j
                    t = C * f
                    terms.append(t if (pi + pj) % 2 == 0 else -t)
        total = field_sum_d(terms, alg.dim)
        if not total.is_zero:
            out.comps[idx] = total
    return out


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
            two = e_differential(one)
            for idx, f in two.comps.items():
                label = "x%d e%s" % (i + 1, "".join(str(q + 1) for q in idx))
                out.append((label, f))
    if alg.rank >= 3:
        for c in range(alg.rank):
            basis = EForm(alg, 1, {(c,): const_field(1.0, d)})
            dd = e_differential(e_differential(basis))
            for idx, f in dd.comps.items():
                label = "e^%d e%s" % (c + 1, "".join(str(q + 1) for q in idx))
                out.append((label, f))
    return out
