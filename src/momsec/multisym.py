"""Descent data and momentum conditions against a closed (n+1)-form.

The data is a tower eta^(k), k = 0..n: for k < n a k-form with values in
the (n-k)-th exterior power of the dual bundle, and eta^(n) a plain
n-form entering only through the shifted flux  h~ = h + d eta^(n).

Conditions (per basis section / basis tuple):

  HM1   D iota_rho h~ = 0                       (informational)
  HM2   D eta^(n-1)(e) = iota_{rho(e)} h~
  HM3   the algebraic descent identities plus the k-indexed
        differential identities below.

The two k-indexed differential identities are implemented term by term
exactly as stated, with each term reported separately:

  k >= 1:  L_{rho(e)} eta^(k)(args)
           + sum_i (-1)^i eta^(k)([e, e_i], args minus e_i)
           + sum_i (-1)^i <Gamma, rho(e)> ^ eta^(k)(args)      [ambiguous]
           - sum_i (-1)^i Gamma(e) ^ iota_{rho(e_i)} eta^(k)(args minus e_i)
           + sum_i (-1)^i <iota_{rho(e_i)} Gamma(e), eta^(k)(args minus e_i)>

  k == 0:  L_{rho(e)} eta^(0)(args)
           + sum_i (-1)^i eta^(0)([e, e_i], args minus e_i)
           + sum_i (-1)^i <iota_{rho(e_i)} Gamma(e), eta^(0)(args minus e_i)>

Two conventions the source equations leave open are pinned here and
isolated: the term marked [ambiguous] has a summand independent of the
summation index (the sum collapses to a sign-weighted multiple) and no
type-consistent contraction, so it is read as the trace pairing
tr(iota_{rho(e)} Gamma) and flagged in reports; and wherever an
E-valued object is paired into a partially filled exterior slot, it is
inserted at the vacated position (``checked slot``), see
:func:`pair_into_checked_slot`.

The algebraic descent sum over cyclic permutations is taken with
permutation signs; the unsigned reading would force the left side to be
both symmetric and antisymmetric.  At n = 1 the whole system reduces to
the momentum-section conditions with mu = eta^(0), B = h~.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .algebroid import AlgebroidData
from .connections import ConnectionData, dual_covariant_derivative
from .fields import (
    Components,
    FormField,
    ScalarField,
    exterior_derivative,
    field_sum_d,
    index_label,
    interior_product,
    lie_derivative,
    wedge,
)
from .momentum import MomentumData, h1_fields


class BundleValuedForm(Components):
    """A k-form with values in the m-th exterior power of the dual bundle.

    Components are FormFields keyed by strictly increasing bundle
    tuples; lookups antisymmetrize over the bundle indices.
    """

    def __init__(self, alg: AlgebroidData, form_degree: int, bundle_degree: int, comps=None):
        self.alg = alg
        self.form_degree = form_degree
        self.bundle_degree = bundle_degree
        super().__init__(comps)

    def _zero(self) -> FormField:
        return FormField(self.alg.chart, self.form_degree)

    def _like(self, comps) -> "BundleValuedForm":
        return BundleValuedForm(self.alg, self.form_degree, self.bundle_degree, comps)

    def as_dual_list(self):
        if self.bundle_degree != 1:
            raise ValueError("only bundle degree 1 converts to a per-index list")
        return [self.comp((a,)) for a in range(self.alg.rank)]


@dataclass
class PrenPlecticData:
    alg: AlgebroidData
    conn: ConnectionData
    n: int
    h: FormField  # degree n+1
    eta: dict  # k -> BundleValuedForm for k < n; eta[n] -> FormField(n)

    def eta_k(self, k: int) -> BundleValuedForm:
        e = self.eta.get(k)
        if e is None:
            return BundleValuedForm(self.alg, k, self.n - k)
        return e

    def eta_top(self) -> FormField:
        e = self.eta.get(self.n)
        if e is None:
            return FormField(self.alg.chart, self.n)
        return e


def tilde_h(data: PrenPlecticData) -> FormField:
    """h + d eta^(n); closed whenever h is."""
    return exterior_derivative(data.eta_top(), data.h)


def hm1_fields(data: PrenPlecticData):
    """H1 of the shifted flux h~: D iota_rho h~ per basis index."""
    return h1_fields(MomentumData(data.alg, data.conn, tilde_h(data), []))


def hm2_fields(data: PrenPlecticData):
    ht = tilde_h(data)
    eta_top_minus = data.eta_k(data.n - 1).as_dual_list()
    deriv = dual_covariant_derivative(data.conn, eta_top_minus)
    out = []
    for a in range(data.alg.rank):
        out += (deriv[a] - interior_product(data.alg.anchor_vector(a), ht)).rows(index_label(a=a))
    return out


def _cyclic_sign(shift: int, length: int) -> int:
    """Sign of the cyclic rotation by ``shift`` on ``length`` elements."""
    return 1 if (shift * (length - 1)) % 2 == 0 else -1


def descent_pairing_fields(data: PrenPlecticData, k: int):
    """eta^(k-1)(args) = (-1)^k sum over signed cyclic rotations of
    iota_{rho(first)} eta^(k)(rest)."""
    alg = data.alg
    m = data.n - k + 1  # sections consumed on the left side
    lower = data.eta_k(k - 1)
    upper = data.eta_k(k)
    out = []
    for btuple in combinations(range(alg.rank), m):
        lhs = lower.comp(btuple)
        parts = []
        for shift in range(m):
            rotated = btuple[shift:] + btuple[:shift]
            term = interior_product(alg.anchor_vector(rotated[0]), upper.comp(rotated[1:]))
            parts.append(term if _cyclic_sign(shift, m) > 0 else term.scaled(-1.0))
        rhs = FormField(alg.chart, k - 1).plus(parts).scaled(-1.0 if k % 2 == 1 else 1.0)
        out += (lhs - rhs).rows(index_label(b=btuple))
    return out


def descent_symmetry_fields(data: PrenPlecticData, k: int):
    """iota_{rho(s)} eta^(k)(args) + the same with s swapped into slot m."""
    alg = data.alg
    mslots = data.n - k
    upper = data.eta_k(k)
    out = []
    for btuple in combinations(range(alg.rank), mslots):
        for s in range(alg.rank):
            for m in range(mslots):
                swapped = btuple[:m] + (s,) + btuple[m + 1 :]
                first = interior_product(alg.anchor_vector(s), upper.comp(btuple))
                second = interior_product(alg.anchor_vector(btuple[m]), upper.comp(swapped))
                out += (first + second).rows(index_label(s=s, m=m, b=btuple))
    return out


def pair_into_checked_slot(bv: BundleValuedForm, btuple: tuple, position: int, coefficients) -> FormField:
    """Insert an E-valued coefficient vector into the vacated slot.

    ``btuple`` is the argument tuple with the element at ``position``
    removed conceptually; the coefficient c^e is paired back in at that
    position:  sum_e c^e * eta(..., e at position, ...).
    """
    slots = [(btuple[:position] + (e,) + btuple[position + 1 :], c) for e, c in enumerate(coefficients)]
    parts = [bv.comp(s).mul_field(c) for s, c in slots if not c.is_zero]
    return FormField(bv.alg.chart, bv.form_degree).plus(parts)


def _gamma_trace_pairing(data: PrenPlecticData, a: int) -> ScalarField:
    """tr(iota_{rho(e_a)} Gamma) = Gamma^b_{b i} rho^i_a (flagged reading)."""
    alg, conn = data.alg, data.conn
    return _contract(conn.forms, alg.anchor[a], [(b, b) for b in range(alg.rank)])


def _contract(forms: dict, v, keys) -> ScalarField:
    """Gamma^c_{a i} v^i summed over ``keys`` (c, a), then i, for the non-zero factors."""
    terms = [f * v[i] for key in keys if key in forms for (i,), f in forms[key].comps.items() if not v[i].is_zero]
    return field_sum_d(terms, len(v))


def _bracket_parts(data: PrenPlecticData, eta_k: BundleValuedForm, a: int, btuple) -> list:
    """eta([e_a, e_i], args minus e_i) with the sign of slot i, over slots i
    and the non-zero C^c_{a b_i}."""
    parts = []
    for pos, bi in enumerate(btuple):
        sign = -1.0 if (pos + 1) % 2 == 1 else 1.0
        rest = btuple[:pos] + btuple[pos + 1 :]
        for c, C in data.alg.brackets(a, bi).items():
            parts.append(eta_k.comp((c,) + rest).mul_field(C).scaled(sign))
    return parts


def hm3_differential_fields(data: PrenPlecticData, k: int):
    """The k-indexed differential identity, term by term as printed.

    Returns (residual fields, term maxima labels) where the residual is
    the sum of all terms; per-term fields are returned under keys
    'lie', 'bracket', 'ambiguous', 'wedge', 'pairing'.
    """
    alg, conn = data.alg, data.conn
    chart = alg.chart
    m = data.n - k
    eta_k = data.eta_k(k)
    zero = FormField(chart, k)
    residuals = []
    term_fields = {"lie": [], "bracket": [], "ambiguous": [], "wedge": [], "pairing": []}
    for a in range(alg.rank):
        rho_a = alg.anchor_vector(a)
        # Gamma^c_a for each c, in increasing c, which the wedge term reads for k >= 1
        gammas = [(c, gamma) for (c, lower), gamma in conn.forms.items() if lower == a and k >= 1]
        for btuple in combinations(range(alg.rank), m):
            base = eta_k.comp(btuple)
            t_lie = lie_derivative(rho_a, base)
            t_bracket = zero.plus(_bracket_parts(data, eta_k, a, btuple))
            t_wedge = zero
            pairing = []
            for pos, bi in enumerate(btuple):
                sign = -1.0 if (pos + 1) % 2 == 1 else 1.0
                # - Gamma(e) ^ iota_{rho(e_i)} eta(rest), paired into the slot
                # (checked-slot rule: Gamma^c_a pairs with c in slot i)
                for c, gamma in gammas:
                    iota = interior_product(alg.anchor_vector(bi), eta_k.comp(btuple[:pos] + (c,) + btuple[pos + 1 :]))
                    t_wedge = t_wedge - wedge(gamma, iota).scaled(sign)
                # <iota_{rho(e_i)} Gamma(e), eta(rest)> into the checked slot
                coeffs = [_contract(conn.forms, alg.anchor[bi], [(c, a)]) for c in range(alg.rank)]
                pairing.append(pair_into_checked_slot(eta_k, btuple, pos, coeffs).scaled(sign))
            t_pairing = zero.plus(pairing)
            t_ambiguous = zero
            collapse = sum(((-1) ** i) for i in range(1, m + 1))
            if k >= 1 and collapse != 0:
                t_ambiguous = base.mul_field(_gamma_trace_pairing(data, a)).scaled(float(collapse))
            total = zero.plus([t_lie, t_bracket, t_ambiguous, t_wedge, t_pairing])
            label = index_label(a=a, b=btuple)
            residuals += total.rows(label)
            for key, form in zip(term_fields, (t_lie, t_bracket, t_ambiguous, t_wedge, t_pairing)):
                term_fields[key] += form.rows(label)
    return residuals, term_fields


def hm3_rewrite_fields(data: PrenPlecticData):
    """Dual-pair form of the top differential identity:
    (d_E eta^(n-1))(e_a, e_b) - (D eta^(n-2))(e_a, e_b), for a < b.

    Differs from the literal k = n-1 identity by descent rearrangements;
    reported separately so convention mismatches stay visible.
    """
    alg, conn = data.alg, data.conn
    if data.n < 2:
        return []
    eta1 = data.eta_k(data.n - 1)
    eta2 = data.eta_k(data.n - 2)
    out = []
    for a in range(alg.rank):
        for b in range(a + 1, alg.rank):
            ed = lie_derivative(alg.anchor_vector(a), eta1.comp((b,))) - lie_derivative(
                alg.anchor_vector(b), eta1.comp((a,))
            )
            for c, C in alg.brackets(a, b).items():
                ed = ed - eta1.comp((c,)).mul_field(C)
            dlower = exterior_derivative(eta2.comp((a, b)))
            for c in range(alg.rank):
                for lower, idx in ((a, (c, b)), (b, (a, c))):
                    gamma = conn.forms.get((c, lower))
                    if gamma is not None:
                        dlower = dlower - wedge(gamma, eta2.comp(idx))
            out += (ed - dlower).rows(index_label(a=a, b=b))
    return out


# ---------------------------------------------------------------------------
# Constant-bracket, flat-connection specialization


def specialized_fields(data: PrenPlecticData):
    """The reduced system for a flat connection and constant structure.

    Returns {'hm3[k]': [...]} computed along an independent code path
    (plain d, no connection machinery).  HM1 and HM2 have no rows here:
    for a flat connection their general evaluators build these same
    graphs, so a comparison would read 0 by construction.  For
    k >= 1 it carries - d eta^(k-1), as the dual-pair form does, and
    :func:`hm3_differential_fields` does not; which reading is right is
    open, so the suites compare the two only while descent holds.
    """
    alg = data.alg
    if not data.conn.is_flat:
        raise ValueError("the specialization requires a flat connection")
    out: dict[str, list] = {}
    for k in range(data.n - 1, -1, -1):
        m = data.n - k
        eta_k = data.eta_k(k)
        rows = []
        for a in range(alg.rank):
            for btuple in combinations(range(alg.rank), m):
                acc = lie_derivative(alg.anchor_vector(a), eta_k.comp(btuple))
                acc = acc.plus(_bracket_parts(data, eta_k, a, btuple))
                if k >= 1:
                    acc = acc - exterior_derivative(data.eta_k(k - 1).comp((a,) + btuple))
                rows += acc.rows(index_label(a=a, b=btuple))
        out[f"hm3[{k}]"] = rows
    return out
