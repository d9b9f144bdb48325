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

from .algebroid import AlgebroidData
from .connections import ConnectionData, dual_covariant_derivative
from .fields import (
    FormField,
    ScalarField,
    exterior_derivative,
    field_sum_d,
    increasing_tuples,
    interior_product,
    lie_derivative,
    sort_signed,
    wedge,
)


class BundleValuedForm:
    """A k-form with values in the m-th exterior power of the dual bundle.

    Components are FormFields keyed by strictly increasing bundle
    tuples; lookups antisymmetrize over the bundle indices.
    """

    def __init__(self, alg: AlgebroidData, form_degree: int, bundle_degree: int, comps=None):
        self.alg = alg
        self.form_degree = form_degree
        self.bundle_degree = bundle_degree
        self.comps: dict[tuple[int, ...], FormField] = {}
        if comps:
            for key, form in comps.items():
                if not form.is_zero:
                    self.comps[tuple(key)] = form

    def comp(self, btuple) -> FormField:
        canon, sign = sort_signed(tuple(btuple))
        if canon is None:
            return FormField(self.alg.chart, self.form_degree)
        form = self.comps.get(canon)
        if form is None:
            return FormField(self.alg.chart, self.form_degree)
        return form if sign > 0 else form.scaled(-1.0)

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
    top = data.eta_top()
    if top.is_zero:
        return data.h
    return data.h + exterior_derivative(top)


def gamma_forms(data: PrenPlecticData, ht: FormField | None = None):
    """iota_{rho_a} h~ per basis index."""
    if ht is None:
        ht = tilde_h(data)
    return [interior_product(data.alg.anchor_vector(a), ht) for a in range(data.alg.rank)]


def hm1_fields(data: PrenPlecticData, ht: FormField | None = None):
    gamma = gamma_forms(data, ht)
    out = []
    for a, form in enumerate(dual_covariant_derivative(data.conn, gamma)):
        for idx, f in form.comps.items():
            out.append((f"a{a + 1} " + _form_label(idx), f))
    return out


def hm2_fields(data: PrenPlecticData, ht: FormField | None = None):
    if ht is None:
        ht = tilde_h(data)
    eta_top_minus = data.eta_k(data.n - 1).as_dual_list()
    deriv = dual_covariant_derivative(data.conn, eta_top_minus)
    out = []
    for a in range(data.alg.rank):
        res = deriv[a] - interior_product(data.alg.anchor_vector(a), ht)
        for idx in increasing_tuples(data.alg.chart.dim, data.n):
            f = res.comp(idx)
            if f.is_zero:
                continue
            out.append((f"a{a + 1} " + _form_label(idx), f))
    return out


def _form_label(idx) -> str:
    return "i" + "i".join(str(q + 1) for q in idx) if idx else "scalar"


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
    for btuple in increasing_tuples(alg.rank, m):
        lhs = lower.comp(btuple)
        rhs = FormField(alg.chart, k - 1)
        for shift in range(m):
            rotated = btuple[shift:] + btuple[:shift]
            head, rest = rotated[0], rotated[1:]
            inner = upper.comp(rest)
            if inner.is_zero or k == 0:
                continue
            term = interior_product(alg.anchor_vector(head), inner)
            sign = _cyclic_sign(shift, m)
            rhs = rhs + (term if sign > 0 else term.scaled(-1.0))
        rhs = rhs.scaled(-1.0 if k % 2 == 1 else 1.0)
        res = lhs - rhs
        for idx in increasing_tuples(alg.chart.dim, k - 1):
            f = res.comp(idx)
            if f.is_zero:
                continue
            out.append(("e" + "".join(str(q + 1) for q in btuple) + " " + _form_label(idx), f))
    return out


def descent_symmetry_fields(data: PrenPlecticData, k: int):
    """iota_{rho(s)} eta^(k)(args) + the same with s swapped into slot m."""
    alg = data.alg
    mslots = data.n - k
    upper = data.eta_k(k)
    out = []
    for btuple in increasing_tuples(alg.rank, mslots):
        for s in range(alg.rank):
            for m in range(mslots):
                swapped = btuple[:m] + (s,) + btuple[m + 1 :]
                first = interior_product(alg.anchor_vector(s), upper.comp(btuple))
                second = interior_product(alg.anchor_vector(btuple[m]), upper.comp(swapped))
                res = first + second
                for idx in increasing_tuples(alg.chart.dim, k - 1):
                    f = res.comp(idx)
                    if f.is_zero:
                        continue
                    label = f"s{s + 1} m{m + 1} e" + "".join(str(q + 1) for q in btuple)
                    out.append((label + " " + _form_label(idx), f))
    return out


def pair_into_checked_slot(bv: BundleValuedForm, btuple: tuple, position: int, coefficients) -> FormField:
    """Insert an E-valued coefficient vector into the vacated slot.

    ``btuple`` is the argument tuple with the element at ``position``
    removed conceptually; the coefficient c^e is paired back in at that
    position:  sum_e c^e * eta(..., e at position, ...).
    """
    chart = bv.alg.chart
    out = FormField(chart, bv.form_degree)
    rest = btuple[:position] + btuple[position + 1 :]
    for e_idx in range(bv.alg.rank):
        c = coefficients[e_idx]
        if c.is_zero:
            continue
        filled = rest[:position] + (e_idx,) + rest[position:]
        form = bv.comp(filled)
        if form.is_zero:
            continue
        out = out + form.mul_field(c)
    return out


def _gamma_trace_pairing(data: PrenPlecticData, a: int) -> ScalarField:
    """tr(iota_{rho(e_a)} Gamma) = Gamma^b_{b i} rho^i_a (flagged reading)."""
    alg, conn = data.alg, data.conn
    d = alg.dim
    terms = []
    for b in range(alg.rank):
        for i in range(d):
            gam = conn.gamma[b][b][i]
            if gam.is_zero or alg.anchor[a][i].is_zero:
                continue
            terms.append(gam * alg.anchor[a][i])
    return field_sum_d(terms, d)


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
    residuals = []
    term_fields = {"lie": [], "bracket": [], "ambiguous": [], "wedge": [], "pairing": []}
    for a in range(alg.rank):
        rho_a = alg.anchor_vector(a)
        for btuple in increasing_tuples(alg.rank, m):
            base = eta_k.comp(btuple)
            if k == 0:
                t_lie = FormField(chart, 0)
                if not base.is_zero:
                    t_lie = FormField(chart, 0, {(): alg.apply_anchor(a, base.comp(()))})
            else:
                t_lie = lie_derivative(rho_a, base)
            total = t_lie
            t_bracket = FormField(chart, k)
            t_wedge = FormField(chart, k)
            t_pairing = FormField(chart, k)
            for pos in range(m):
                sign = -1.0 if (pos + 1) % 2 == 1 else 1.0
                bi = btuple[pos]
                # eta([e, e_i], rest), bracket section in the leading slot
                for c in range(alg.rank):
                    C = alg.structure(c, a, bi)
                    if C.is_zero:
                        continue
                    rest = btuple[:pos] + btuple[pos + 1 :]
                    inner = eta_k.comp((c,) + rest)
                    if inner.is_zero:
                        continue
                    t_bracket = t_bracket + inner.mul_field(C).scaled(sign)
                if k >= 1:
                    # - Gamma(e) ^ iota_{rho(e_i)} eta(rest), paired into the slot
                    iota_eta = _iota_into_free_slot(data, eta_k, btuple, pos, btuple[pos])
                    for c in range(alg.rank):
                        gc = conn.one_form(c, a)
                        if gc.is_zero or iota_eta[c].is_zero:
                            continue
                        t_wedge = t_wedge - wedge(gc, iota_eta[c]).scaled(sign)
                # <iota_{rho(e_i)} Gamma(e), eta(rest)> into the checked slot
                coeffs = []
                for c in range(alg.rank):
                    terms = []
                    for i in range(chart.dim):
                        gam = conn.gamma[c][a][i]
                        if gam.is_zero or alg.anchor[bi][i].is_zero:
                            continue
                        terms.append(gam * alg.anchor[bi][i])
                    coeffs.append(field_sum_d(terms, chart.dim))
                pair = pair_into_checked_slot(eta_k, btuple, pos, coeffs)
                t_pairing = t_pairing + pair.scaled(sign)
            t_ambiguous = FormField(chart, k)
            if k >= 1:
                collapse = sum(((-1) ** i) for i in range(1, m + 1))
                if collapse != 0:
                    tr = _gamma_trace_pairing(data, a)
                    if not tr.is_zero and not base.is_zero:
                        t_ambiguous = base.mul_field(tr).scaled(float(collapse))
            total = total + t_bracket + t_ambiguous + t_wedge + t_pairing
            label = f"a{a + 1} e" + "".join(str(q + 1) for q in btuple)
            for idx in increasing_tuples(chart.dim, k):
                f = total.comp(idx)
                if not f.is_zero:
                    residuals.append((label + " " + _form_label(idx), f))
            for key, form in (
                ("lie", t_lie),
                ("bracket", t_bracket),
                ("ambiguous", t_ambiguous),
                ("wedge", t_wedge),
                ("pairing", t_pairing),
            ):
                for idx in increasing_tuples(chart.dim, k):
                    f = form.comp(idx)
                    if not f.is_zero:
                        term_fields[key].append((label + " " + _form_label(idx), f))
    return residuals, term_fields


def _iota_into_free_slot(data: PrenPlecticData, eta_k: BundleValuedForm, btuple, position, section):
    """iota_{rho(section)} eta^(k)(args minus position), one slot left free.

    Returns the E-indexed coefficient list of (k-1)-forms obtained by
    filling the free slot with each basis element (checked-slot rule).
    """
    alg = data.alg
    rest = btuple[:position] + btuple[position + 1 :]
    out = []
    for c in range(alg.rank):
        filled = rest[:position] + (c,) + rest[position:]
        form = eta_k.comp(filled)
        if form.is_zero or eta_k.form_degree == 0:
            out.append(FormField(alg.chart, max(eta_k.form_degree - 1, 0)))
            continue
        out.append(interior_product(alg.anchor_vector(section), form))
    return out


def hm3_rewrite_fields(data: PrenPlecticData):
    """Dual-pair form of the top differential identity:
    (d_E eta^(n-1))(e_a, e_b) - (D eta^(n-2))(e_a, e_b), for a < b.

    Differs from the literal k = n-1 identity by descent rearrangements;
    reported separately so convention mismatches stay visible.
    """
    alg, conn = data.alg, data.conn
    chart = alg.chart
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
            for c in range(alg.rank):
                C = alg.structure(c, a, b)
                if C.is_zero:
                    continue
                ed = ed - eta1.comp((c,)).mul_field(C)
            dlower = exterior_derivative(eta2.comp((a, b)))
            for c in range(alg.rank):
                gca = conn.one_form(c, a)
                if not (gca.is_zero or eta2.comp((c, b)).is_zero):
                    dlower = dlower - wedge(gca, eta2.comp((c, b)))
                gcb = conn.one_form(c, b)
                if not (gcb.is_zero or eta2.comp((a, c)).is_zero):
                    dlower = dlower - wedge(gcb, eta2.comp((a, c)))
            res = ed - dlower
            for idx in increasing_tuples(chart.dim, data.n - 1):
                f = res.comp(idx)
                if not f.is_zero:
                    out.append((f"a{a + 1} b{b + 1} " + _form_label(idx), f))
    return out


# ---------------------------------------------------------------------------
# Constant-bracket, flat-connection specialization


def specialized_fields(data: PrenPlecticData):
    """The reduced system for a flat connection and constant structure.

    Returns {'hm2': [...], 'hm1': [...], 'hm3[k]': [...]} computed along
    an independent code path (plain d, no connection machinery).
    """
    alg = data.alg
    if not data.conn.is_flat:
        raise ValueError("the specialization requires a flat connection")
    chart = alg.chart
    ht = tilde_h(data)
    out: dict[str, list] = {}
    rows = []
    eta_top_minus = data.eta_k(data.n - 1)
    for a in range(alg.rank):
        res = exterior_derivative(eta_top_minus.comp((a,))) - interior_product(
            alg.anchor_vector(a), ht
        )
        for idx in increasing_tuples(chart.dim, data.n):
            f = res.comp(idx)
            if not f.is_zero:
                rows.append((f"a{a + 1} " + _form_label(idx), f))
    out["hm2"] = rows
    rows = []
    for a in range(alg.rank):
        res = exterior_derivative(interior_product(alg.anchor_vector(a), ht))
        for idx in increasing_tuples(chart.dim, data.n + 1):
            f = res.comp(idx)
            if not f.is_zero:
                rows.append((f"a{a + 1} " + _form_label(idx), f))
    out["hm1"] = rows
    for k in range(data.n - 1, -1, -1):
        m = data.n - k
        eta_k = data.eta_k(k)
        rows = []
        for a in range(alg.rank):
            for btuple in increasing_tuples(alg.rank, m):
                if k == 0:
                    base = eta_k.comp(btuple)
                    lie = FormField(chart, 0, {(): alg.apply_anchor(a, base.comp(()))}) if not base.is_zero else FormField(chart, 0)
                else:
                    lie = lie_derivative(alg.anchor_vector(a), eta_k.comp(btuple))
                acc = lie
                for pos in range(m):
                    sign = -1.0 if (pos + 1) % 2 == 1 else 1.0
                    for c in range(alg.rank):
                        C = alg.structure(c, a, btuple[pos])
                        if C.is_zero:
                            continue
                        rest = btuple[:pos] + btuple[pos + 1 :]
                        inner = eta_k.comp((c,) + rest)
                        if inner.is_zero:
                            continue
                        acc = acc + inner.mul_field(C).scaled(sign)
                if k >= 1:
                    lower = data.eta_k(k - 1)
                    acc = acc - exterior_derivative(lower.comp((a,) + btuple))
                label = f"a{a + 1} e" + "".join(str(q + 1) for q in btuple)
                for idx in increasing_tuples(chart.dim, k):
                    f = acc.comp(idx)
                    if not f.is_zero:
                        rows.append((label + " " + _form_label(idx), f))
        out[f"hm3[{k}]"] = rows
    return out
