"""Descent data and momentum conditions against a closed (n+1)-form.

The data is a tower eta^(k), k = 0..n: for k < n a k-form with values in
the (n-k)-th exterior power of the dual bundle, and eta^(n) a plain
n-form entering only through the shifted flux  h~ = h + d eta^(n).

HM2 and HM3 are one equation, as for the homotopy moment maps of
Callies, Fregier, Rogers and Zambon: the covariant differential of the
tower equals iota_rho h~.  :class:`TowerOperator` builds it for a model
from pieces it builds once each, on stored components only: rho_a as a
vector field, h~ and iota_{rho_a} h~, and of each eta^(k)(b) the Lie
derivatives L_{rho_a}, contractions iota_{rho_s} and d.  Every row is a
sum of these, the brackets and the stored Gamma^c_a, in a fixed order:

  HM1   D iota_rho h~ = 0                       (informational)
  HM2   D eta^(n-1)(e) = iota_{rho(e)} h~
  HM3   the algebraic descent identities (contractions only) plus, per k,

  k >= 1:  L_{rho(e)} eta^(k)(args)
           + sum_i (-1)^i eta^(k)([e, e_i], args minus e_i)
           + sum_i (-1)^i <Gamma, rho(e)> ^ eta^(k)(args)      [ambiguous]
           - sum_i (-1)^i Gamma(e) ^ iota_{rho(e_i)} eta^(k)(args minus e_i)
           + sum_i (-1)^i <iota_{rho(e_i)} Gamma(e), eta^(k)(args minus e_i)>

  k == 0:  the first two terms and the last.

Two conventions the source equations leave open do not fall out of the
operator, so each is pinned where its terms are built.  The [ambiguous]
summand does not depend on i (the sum collapses to a sign-weighted
multiple) and has no type-consistent contraction: it is read as the
trace pairing tr(iota_{rho(e)} Gamma) and flagged in reports.  Where
Gamma^c(e) pairs into a partially filled exterior slot (the last two
terms), c goes to the vacated position (the ``checked slot``).

The constant-bracket, flat-connection specialization is the identity at
Gamma = 0 minus d eta^(k-1)(e, args) for k >= 1.  That one isolated term
is what a settled reading of HM3 for k >= 1 must decide, so the suites
compare the two only while descent holds.  The dual-pair form
(d_E eta^(n-1))(e_a, e_b) - (D eta^(n-2))(e_a, e_b) reads the same
pieces.  The descent sum over cyclic permutations is taken with
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
    sort_signed,
    wedge,
)
from .momentum import h1_fields


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


def tilde_h(data: PrenPlecticData) -> FormField:
    """h + d eta^(n); closed whenever h is."""
    return exterior_derivative(data.eta.get(data.n, FormField(data.alg.chart, data.n)), data.h)


# the terms of the k-indexed identity, in the order they are summed
TERMS = ("lie", "bracket", "ambiguous", "wedge", "pairing")


def _contract(gammas, v: list) -> ScalarField:
    """Gamma_i v^i summed over the 1-forms ``gammas``, then i, for the non-zero factors."""
    return field_sum_d([f * v[i] for gamma in gammas for (i,), f in gamma.comps.items() if not v[i].is_zero], len(v))


class TowerOperator:
    """The covariant differential of one model's tower and its readings.

    Each piece (see the module docstring) is built on first use and kept.
    Every piece is linear in eta: at a permuted tuple it is the stored
    component's piece times the permutation sign, and for a zero
    component (or a repeated index) an empty form.
    """

    def __init__(self, data: PrenPlecticData):
        self.data = data
        self.rho = [data.alg.anchor_vector(a) for a in range(data.alg.rank)]
        self.h_tilde = tilde_h(data)
        self.flux = [interior_product(rho, self.h_tilde) for rho in self.rho]
        self._pieces: dict = {}
        self._identities: dict = {}

    def _piece(self, op, k: int, b: tuple, shift: int, a=None) -> FormField:
        """``op`` of eta^(k)(b), after rho_a when ``a`` is given, of degree k + ``shift``."""
        key = (op, k, b, a)
        if key not in self._pieces:
            canon, sign = sort_signed(b)
            if canon != b:
                piece = self._piece(op, k, canon, shift, a) if sign else FormField(self.data.alg.chart, k + shift)
                self._pieces[key] = piece.scaled(-1.0) if sign < 0 else piece
            else:
                form = self.data.eta_k(k).comp(b)
                args = (form,) if a is None else (self.rho[a], form)
                self._pieces[key] = FormField(form.chart, k + shift) if form.is_zero else op(*args)
        return self._pieces[key]

    def lie(self, k: int, a: int, b: tuple) -> FormField:
        """L_{rho_a} eta^(k)(b)."""
        return self._piece(lie_derivative, k, b, 0, a)

    def iota(self, k: int, s: int, b: tuple) -> FormField:
        """iota_{rho_s} eta^(k)(b)."""
        return self._piece(interior_product, k, b, -1, s)

    def d(self, k: int, b: tuple) -> FormField:
        """d eta^(k)(b)."""
        return self._piece(exterior_derivative, k, b, 1)

    def hm1(self):
        """D iota_rho h~ per basis index: H1 of h~."""
        return h1_fields(self.data.conn, self.flux)

    def hm2(self):
        """D eta^(n-1)(e_a) - iota_{rho_a} h~ per basis index."""
        eta = self.data.eta_k(self.data.n - 1)
        deriv = dual_covariant_derivative(self.data.conn, [eta.comp((a,)) for a in range(len(self.rho))])
        return [row for a, flux in enumerate(self.flux) for row in (deriv[a] - flux).rows(index_label(a=a))]

    def descent_pairing(self, k: int):
        """eta^(k-1)(args) = (-1)^k sum over signed cyclic rotations of
        iota_{rho(first)} eta^(k)(rest)."""
        data = self.data
        m = data.n - k + 1  # sections consumed on the left side
        lower = data.eta_k(k - 1)
        out = []
        for b in combinations(range(data.alg.rank), m):
            parts = []
            for shift in range(m):
                rotated = b[shift:] + b[:shift]
                term = self.iota(k, rotated[0], rotated[1:])
                # the sign of the rotation
                parts.append(term if shift * (m - 1) % 2 == 0 else term.scaled(-1.0))
            rhs = FormField(data.alg.chart, k - 1).plus(parts).scaled(-1.0 if k % 2 == 1 else 1.0)
            out += (lower.comp(b) - rhs).rows(index_label(b=b))
        return out

    def descent_symmetry(self, k: int):
        """iota_{rho(s)} eta^(k)(args) + the same with s swapped into slot m."""
        data = self.data
        slots = data.n - k
        out = []
        for b in combinations(range(data.alg.rank), slots):
            for s in range(data.alg.rank):
                for m in range(slots):
                    swapped = b[:m] + (s,) + b[m + 1 :]
                    out += (self.iota(k, s, b) + self.iota(k, b[m], swapped)).rows(index_label(s=s, m=m, b=b))
        return out

    def identity(self, k: int) -> list:
        """The k-indexed differential identity: ``(a, b, total, terms)``
        per section a and increasing tuple b, the terms in :data:`TERMS`
        order; built on first use."""
        if k in self._identities:
            return self._identities[k]
        out = self._identities[k] = []
        data = self.data
        alg, forms = data.alg, data.conn.forms
        eta = data.eta_k(k)
        m = data.n - k
        zero = FormField(alg.chart, k)
        # sum_{i=1..m} (-1)^i: the [ambiguous] sum collapses to this multiple
        collapse = -1.0 if m % 2 else 0.0
        for a in range(alg.rank):
            # Gamma^c_a by increasing c, and tr(iota_{rho_a} Gamma)
            lowered = [(c, gamma) for (c, lower), gamma in forms.items() if lower == a]
            trace = _contract([gamma for (c, lower), gamma in forms.items() if c == lower], alg.anchor[a])
            for b in combinations(range(alg.rank), m):
                bracket, wedged, pairing = [], zero, []
                for pos, bi in enumerate(b):
                    sign = -1.0 if pos % 2 == 0 else 1.0
                    rest = b[:pos] + b[pos + 1 :]
                    for c, C in alg.brackets(a, bi).items():
                        bracket.append(eta.comp((c,) + rest).mul_field(C).scaled(sign))
                    parts = []
                    for c, gamma in lowered:
                        # checked slot: Gamma^c_a pairs with c in slot pos
                        slot = b[:pos] + (c,) + b[pos + 1 :]
                        if k >= 1:
                            wedged = wedged - wedge(gamma, self.iota(k, bi, slot)).scaled(sign)
                        comp = eta.comp(slot)
                        if not comp.is_zero and not (f := _contract([gamma], alg.anchor[bi])).is_zero:
                            parts.append(comp.mul_field(f))
                    pairing.append(zero.plus(parts).scaled(sign))
                ambiguous = zero
                if k >= 1 and collapse and not trace.is_zero:
                    ambiguous = eta.comp(b).mul_field(trace).scaled(collapse)
                terms = (self.lie(k, a, b), zero.plus(bracket), ambiguous, wedged, zero.plus(pairing))
                out.append((a, b, zero.plus(terms), terms))
        return out

    def hm3(self, k: int):
        """Rows of the k-indexed identity, and of each of its terms by name."""
        rows, terms = [], {name: [] for name in TERMS}
        for a, b, total, parts in self.identity(k):
            label = index_label(a=a, b=b)
            rows += total.rows(label)
            for name, part in zip(TERMS, parts):
                terms[name] += part.rows(label)
        return rows, terms

    def specialized(self) -> dict:
        """{'hm3[k]': rows} of the reduced system for a flat connection and
        constant structure: the identity, whose Gamma terms are empty, minus
        the isolated d eta^(k-1)(e_a, args) for k >= 1."""
        if not self.data.conn.is_flat:
            raise ValueError("the specialization requires a flat connection")
        out = {}
        for k in range(self.data.n - 1, -1, -1):
            rows = []
            for a, b, total, _ in self.identity(k):
                rows += (total - self.d(k - 1, (a,) + b) if k else total).rows(index_label(a=a, b=b))
            out[f"hm3[{k}]"] = rows
        return out

    def rewrite(self):
        """Dual-pair form of the top differential identity:
        (d_E eta^(n-1))(e_a, e_b) - (D eta^(n-2))(e_a, e_b), for a < b.

        Differs from the literal k = n-1 identity by descent rearrangements;
        reported separately so convention mismatches stay visible.
        """
        data = self.data
        n, alg = data.n, data.alg
        if n < 2:
            return []
        eta1, eta2 = data.eta_k(n - 1), data.eta_k(n - 2)
        out = []
        for a, b in combinations(range(alg.rank), 2):
            ed = self.lie(n - 1, a, (b,)) - self.lie(n - 1, b, (a,))
            for c, C in alg.brackets(a, b).items():
                ed = ed - eta1.comp((c,)).mul_field(C)
            dlower = self.d(n - 2, (a, b))
            for (c, lower), gamma in data.conn.forms.items():
                if lower in (a, b):
                    dlower = dlower - wedge(gamma, eta2.comp((c, b) if lower == a else (a, c)))
            out += (ed - dlower).rows(index_label(a=a, b=b))
        return out
