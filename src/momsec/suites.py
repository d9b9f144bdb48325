"""Check suites: wiring from a loaded model to a report.

One point sample is drawn per run and shared by every check, so
residuals compared across modules are evaluated on identical points.
Every row over fields is made by :func:`reporting.evaluate_check`, and
every comparison of two rows by :func:`reporting.delta_check`; the H1-H3
rows come from :func:`momentum.condition_fields` wherever a suite needs
them.  The anchoring conditions (H1, HM1) are reported but not required
unless ``require_h1`` is set.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from . import algebroid as alg_mod
from . import hamiltonian as ham
from . import momentum as mom
from . import multisym as msy
from . import sigma2d as s2d
from .connections import e_nabla_metric_fields, e_nabla_two_form_fields
from .fields import exterior_derivative, field_sum_d, lie_derivative
from .modelfile import Model
from .reporting import CheckReport, delta_check, evaluate_check, rows_max

SUITE_NAMES = ("axioms", "momentum", "mechanics", "sigma2d", "multisym")


class SuiteError(ValueError):
    """A selected suite cannot run because a model block is missing."""


@dataclass
class RunConfig:
    tolerance: float = 1e-8
    points: int = 32
    seed: int = 42
    require_h1: bool = False
    h3_sign: float = 1.0


def applicable_suites(model: Model) -> list[str]:
    out = ["axioms", "momentum"]
    if model.has_metric:
        out.append("mechanics")
        out.append("sigma2d")
    if model.multisym is not None:
        out.append("multisym")
    return out


def resolve_suites(model: Model, selection: str) -> list[str]:
    if selection == "all":
        return applicable_suites(model)
    if selection not in SUITE_NAMES:
        raise SuiteError(f"unknown suite {selection!r}; choose from {', '.join(SUITE_NAMES)} or 'all'")
    if selection in ("mechanics", "sigma2d") and not model.has_metric:
        raise SuiteError(f"suite {selection!r} requires the 'metric' block")
    if selection == "multisym" and model.multisym is None:
        raise SuiteError("suite 'multisym' requires the 'multisym' block")
    return [selection]


def run(model: Model, selection: str = "all", config: RunConfig | None = None) -> CheckReport:
    cfg = config or RunConfig(tolerance=model.tolerance, points=model.sampling.points, seed=model.sampling.seed)
    suites = resolve_suites(model, selection)
    points = model.chart.sample(cfg.points, cfg.seed)
    report = CheckReport(
        model_hash=model.model_hash,
        seed=cfg.seed,
        points=cfg.points,
        tolerance=cfg.tolerance,
        suites=suites,
    )
    # overflow and invalid operations yield inf/NaN residuals, which fail
    # their rows; numpy's warnings about them would only repeat that
    with np.errstate(all="ignore"):
        for suite in suites:
            _RUNNERS[suite](model, points, cfg, report)
    return report


# ---------------------------------------------------------------------------
# axioms


def run_axioms(model: Model, points: np.ndarray, cfg: RunConfig, report: CheckReport):
    tol = cfg.tolerance
    anchor = evaluate_check(
        "axioms/anchor-morphism",
        "[rho_a, rho_b] - C^c_ab rho_c = 0",
        model.alg.anchor_morphism(),
        points,
        tol,
    )
    sigma_fields, contracted = alg_mod.jacobi_sigma_fields(model.alg)
    sigma = evaluate_check(
        "axioms/jacobi-cyclic",
        "cyclic(C C + rho dC) = 0",
        sigma_fields,
        points,
        tol,
    )
    anchored = evaluate_check(
        "axioms/jacobi-anchored",
        "cyclic(C C + rho dC) contracted with rho = 0",
        contracted,
        points,
        tol,
    )
    q2 = evaluate_check(
        "axioms/q-squared",
        "d_E d_E = 0 on coordinates and basis one-forms",
        alg_mod.q_squared_fields(model.alg),
        points,
        tol,
    )
    if anchor.passed and sigma.passed:
        verdict = "Lie algebroid"
    elif anchor.passed and anchored.passed:
        verdict = "anchored almost Lie algebroid"
    else:
        verdict = "neither"
    agree = (q2.passed == (anchor.passed and sigma.passed))
    agreement = delta_check(
        "axioms/q-verdict-agreement",
        "squared-differential verdict matches anchor+cyclic verdict",
        0.0 if agree else 1.0,
        len(points),
        0.5,
    )
    for c in (anchor, sigma, anchored, q2, agreement):
        report.add(c)
    report.verdicts["algebroid_class"] = verdict


# ---------------------------------------------------------------------------
# momentum


def run_momentum(model: Model, points: np.ndarray, cfg: RunConfig, report: CheckReport):
    tol = cfg.tolerance
    B = model.b_field + exterior_derivative(model.eta_boundary)
    h1_rows, h2_rows, h3_rows = mom.condition_fields(model.alg, model.conn, B, model.mu, cfg.h3_sign)
    closed = evaluate_check(
        "momentum/pre-symplectic-closed",
        "dB = 0 with B = b + d eta",
        mom.closedness_fields(B),
        points,
        tol,
        informational=True,
    )
    if not closed.passed:
        closed.flags += ("not pre-symplectic",)
    h1 = evaluate_check(
        "momentum/h1-anchoring",
        "D gamma = 0",
        h1_rows,
        points,
        tol,
        informational=not cfg.require_h1,
    )
    h2 = evaluate_check(
        "momentum/h2-momentum-section",
        "D mu = gamma",
        h2_rows,
        points,
        tol,
    )
    h3 = evaluate_check(
        "momentum/h3-bracket-compat",
        "d_E mu(e_a,e_b) + B(rho_a, rho_b) = 0",
        h3_rows,
        points,
        tol,
    )
    enb = evaluate_check(
        "momentum/tangent-two-form-compat",
        "tangent-action derivative of B along each anchor = 0",
        e_nabla_two_form_fields(model.conn, B),
        points,
        tol,
        informational=True,
    )
    agree_flags = () if closed.passed else ("comparison needs dB = 0",)
    h1_agree = delta_check(
        "momentum/h1-tangent-agreement",
        "|max D gamma - max tangent-action residual|",
        abs(h1.max_residual - enb.max_residual),
        len(points),
        max(tol, 1e-9),
        informational=True,
        flags=agree_flags,
    )
    for c in (closed, h1, h2, h3, enb, h1_agree):
        report.add(c)
    report.verdicts["momentum_classification"] = mom.classify(
        h1.max_residual, h2.max_residual, h3.max_residual, tol
    )
    if B.is_zero and all(f.is_zero for f in model.mu):
        report.verdicts["momentum_classification"] += " (degenerate: B = 0, mu = 0)"

    if model.conn.is_flat and mom.is_constant_structure(model.alg, points):
        reductions = mom.map_reduction_fields(model.alg, model.conn, B, model.mu)
        map_sym = evaluate_check(
            "momentum/map-symplectic-vectorfield",
            "L_{rho_a} B = 0",
            reductions["symplectic"],
            points,
            tol,
        )
        map_ham = evaluate_check(
            "momentum/map-hamiltonian-pairing",
            "d mu_a = iota_{rho_a} B",
            reductions["hamiltonian"],
            points,
            tol,
        )
        map_eq = evaluate_check(
            "momentum/map-equivariance",
            "rho_a(mu_b) = C^c_ab mu_c",
            reductions["equivariance"],
            points,
            tol,
        )
        delta = _worst(
            abs(map_sym.max_residual - h1.max_residual),
            abs(map_ham.max_residual - h2.max_residual),
            abs(map_eq.max_residual - h3.max_residual),
        )
        agree_flags = ()
        if not closed.passed or h2.max_residual > tol:
            agree_flags = ("comparison assumes dB = 0 and the momentum-section condition",)
        map_agree = delta_check(
            "momentum/map-reduction-agreement",
            "flat-connection reductions match the general conditions",
            delta,
            len(points),
            1e-10,
            informational=bool(agree_flags),
            flags=agree_flags,
        )
        for c in (map_sym, map_ham, map_eq, map_agree):
            report.add(c)


# ---------------------------------------------------------------------------
# mechanics


def run_mechanics(model: Model, points: np.ndarray, cfg: RunConfig, report: CheckReport):
    tol = cfg.tolerance
    g = model.metric
    r = model.alg.rank
    gm = _matrix_values(g.g, points)
    rho = _matrix_values(model.alg.anchor, points)
    ranks = np.linalg.matrix_rank(rho, tol=1e-10)
    report.add(
        delta_check(
            "mechanics/metric-conditioning",
            "condition number of g at sampled points",
            float(np.max(np.linalg.cond(gm))),
            len(points),
            1e12,
            informational=True,
        )
    )
    report.add(
        delta_check(
            "mechanics/constraint-irreducibility",
            "rank(rho) = r at sampled points",
            float(r - np.min(ranks)),
            len(points),
            0.5,
            informational=True,
        )
    )

    system = ham.ConstraintSystem(
        model.alg, model.conn, g, model.alpha, model.beta, model.V, model.tau
    )
    fc = _by_degree(ham.first_class_fields(system))
    report.add(
        evaluate_check("mechanics/first-class", "{Phi_a, Phi_b} = C^c_ab Phi_c", chain(*fc.values()), points, tol, terms=fc)
    )
    fl = _by_degree(ham.flow_fields(system))
    report.add(
        evaluate_check("mechanics/flow", "{H, Phi_a} = lambda_a^b Phi_b", chain(*fl.values()), points, tol, terms=fl)
    )

    absorbed = ham.absorb_beta(system)
    report.add(
        evaluate_check(
            "mechanics/twist-closed",
            "d(dA) = 0 for A = g_flat beta",
            mom.closedness_fields(absorbed.B),
            points,
            max(tol, 1e-12),
        )
    )
    tau_rows = [
        (f"a{a + 1} b{b + 1}", absorbed.tau_prime[a][b])
        for a in range(r)
        for b in range(r)
    ]
    tau_check = evaluate_check(
        "mechanics/tau-prime",
        "tau' = tau - Gamma(beta) = 0 (theorem hypothesis)",
        tau_rows,
        points,
        tol,
        informational=True,
    )
    report.add(tau_check)
    tau_zero = tau_check.passed

    fc2 = _by_degree(ham.first_class_fields(absorbed.system))
    fc2_check = evaluate_check(
        "mechanics/first-class-twisted",
        "{Phi'_a, Phi'_b} = C^c_ab Phi'_c under the twisted bracket",
        chain(*fc2.values()),
        points,
        tol,
        terms=fc2,
    )
    fl2 = _by_degree(ham.flow_fields(absorbed.system))
    fl2_check = evaluate_check(
        "mechanics/flow-twisted",
        "{H', Phi'_a} = lambda'_a^b Phi'_b under the twisted bracket",
        chain(*fl2.values()),
        points,
        tol,
        terms=fl2,
    )
    report.add(fc2_check)
    report.add(fl2_check)

    h1_rows, h2_rows, h3_rows = mom.condition_fields(
        model.alg, model.conn, absorbed.B, absorbed.alpha_prime, cfg.h3_sign
    )
    th_h1 = evaluate_check(
        "mechanics/theorem-h1",
        "D gamma = 0 for the induced twist",
        h1_rows,
        points,
        tol,
        informational=not cfg.require_h1,
    )
    th_h2 = evaluate_check(
        "mechanics/theorem-h2",
        "D alpha' = gamma for the induced twist",
        h2_rows,
        points,
        tol,
        informational=not tau_zero,
        flags=() if tau_zero else ("superseded by the flow linear block: tau' != 0",),
    )
    th_h3 = evaluate_check(
        "mechanics/theorem-h3",
        "d_E alpha'(e_a,e_b) + B(rho_a, rho_b) = 0",
        h3_rows,
        points,
        tol,
    )
    for c in (th_h1, th_h2, th_h3):
        report.add(c)

    report.add(
        delta_check(
            "mechanics/flow-deg1-vs-h2",
            "linear momentum block of the flow residual matches D alpha' - gamma",
            abs(fl2_check.terms["degree 1"] - th_h2.max_residual),
            len(points),
            1e-9,
            informational=not tau_zero,
            flags=() if tau_zero else ("tau' != 0 shifts the linear block",),
        )
    )
    report.add(
        delta_check(
            "mechanics/firstclass-deg0-vs-h3",
            "constant block of the first-class residual matches bracket compatibility",
            abs((fc2_check.terms or {}).get("degree 0", 0.0) - th_h3.max_residual),
            len(points),
            1e-9,
        )
    )

    if not tau_zero:
        verdict = "generalized (tau' != 0)"
    else:
        verdict = mom.classify(th_h1.max_residual, th_h2.max_residual, th_h3.max_residual, tol)
    report.verdicts["mechanics_classification"] = verdict


def _matrix_values(rows, points: np.ndarray) -> np.ndarray:
    """Values of a matrix of fields, with the sample as the leading axis."""
    return np.moveaxis(np.array([[f.eval(points, 0).value for f in row] for row in rows]), 2, 0)


def _worst(*values: float) -> float:
    """The largest value; NaN if any is NaN (the builtin max may drop it)."""
    return float(np.max(values))


def _by_degree(degree_fields) -> dict:
    """Residual rows grouped by momentum degree as report terms, lowest first."""
    return {f"degree {k}": rows for k, rows in sorted(degree_fields.items())}


# ---------------------------------------------------------------------------
# sigma2d


def run_sigma2d(model: Model, points: np.ndarray, cfg: RunConfig, report: CheckReport):
    tol = cfg.tolerance
    alg, conn = model.alg, model.conn
    g = model.metric
    b = model.b_field
    eta = model.eta_boundary

    report.add(
        evaluate_check(
            "sigma2d/rigid-killing-metric",
            "L_{rho_a} g = 0",
            s2d.rigid_killing_fields(alg, g),
            points,
            tol,
        )
    )
    db_max = rows_max(mom.closedness_fields(b), points)
    if model.beta_rigid is None and db_max >= tol and not b.is_zero:
        closure_rows = []
        for a in range(alg.rank):
            lb = lie_derivative(alg.anchor_vector(a), b)
            dlb = exterior_derivative(lb)
            for idx, f in dlb.comps.items():
                closure_rows.append((f"a{a + 1}", f))
        report.add(
            evaluate_check(
                "sigma2d/rigid-b-invariance",
                "d(L_{rho_a} b) = 0 (no exactness candidate supplied, b not closed)",
                closure_rows,
                points,
                tol,
                flags=("b not closed and no beta_rigid: only closedness of L_rho b checked",),
            )
        )
    else:
        rows, defaulted = s2d.rigid_b_fields(alg, b, model.beta_rigid)
        flags = ("default candidate: beta_a = iota_{rho_a} b",) if defaulted else ()
        report.add(
            evaluate_check(
                "sigma2d/rigid-b-invariance",
                "L_{rho_a} b = d beta_a",
                rows,
                points,
                tol,
                flags=flags,
            )
        )
    rigid_anchor = evaluate_check(
        "sigma2d/rigid-anchor-morphism",
        "[rho_a, rho_b] = rho([e_a, e_b])",
        alg.anchor_morphism(),
        points,
        tol,
    )
    report.add(rigid_anchor)
    report.add(
        evaluate_check(
            "sigma2d/gauged-metric-compat",
            "L_{rho_a} g = Gamma_a^b v iota_{rho_b} g",
            e_nabla_metric_fields(conn, g),
            points,
            tol,
        )
    )
    # gauging leaves the anchor condition as it is: the same rows, reported again
    report.add(replace(rigid_anchor, name="sigma2d/gauged-anchor-morphism"))

    p1 = evaluate_check(
        "sigma2d/bdry-pairing",
        "mu_a + eta_i rho^i_a = 0",
        s2d.boundary_pairing_fields(alg, eta, model.mu),
        points,
        tol,
    )
    p2_rows = s2d.boundary_eta_fields(alg, conn, b, eta, model.mu)
    p2 = evaluate_check(
        "sigma2d/bdry-eta-compat",
        "rho^j_a b_ji + rho^j_a d_j eta_i + eta_j d_i rho^j_a + Gamma^b_ai mu_b = 0",
        p2_rows,
        points,
        tol,
    )
    p3_rows = s2d.boundary_mu_fields(alg, conn, model.mu)
    p3 = evaluate_check(
        "sigma2d/bdry-mu-equivariance",
        "rho_a(mu_b) - C^c_ab mu_c - rho^i_b Gamma^c_ai mu_c = 0",
        p3_rows,
        points,
        tol,
    )
    for c in (p1, p2, p3):
        report.add(c)

    mu_star, B_star = s2d.induced_momentum_inputs(alg, b, eta)
    h1_rows, h2_rows, h3_rows = mom.condition_fields(alg, conn, B_star, mu_star, cfg.h3_sign)
    h2_max = rows_max(h2_rows, points)
    h3_max = rows_max(h3_rows, points)
    report.add(
        delta_check(
            "sigma2d/theorem-h2-agreement",
            "eta-compatibility block equals the momentum-section residual",
            abs(p2.max_residual - h2_max),
            len(points),
            1e-9,
        )
    )
    report.add(
        delta_check(
            "sigma2d/theorem-h3-agreement",
            "mu-equivariance block equals the bracket-compatibility residual",
            abs(p3.max_residual - h3_max),
            len(points),
            1e-9,
            informational=p2.max_residual >= tol,
            flags=() if p2.max_residual < tol else ("equality holds modulo the eta-compatibility block",),
        )
    )
    # Unconditional identity: H3_ab = P3_ab + rho^i_b P2_{a,i} with the
    # induced mu; the file mu enters P2/P3, so compare on induced inputs.
    # Rows are matched by label: "a{a} b{b}" for H3 and P3, "a{a} i{i}" for P2.
    p2_star = dict(s2d.boundary_eta_fields(alg, conn, b, eta, mu_star))
    p3_star = dict(s2d.boundary_mu_fields(alg, conn, mu_star))
    h3_star = dict(h3_rows)
    d = alg.dim
    combo_rows = []
    for a in range(alg.rank):
        for bb in range(a + 1, alg.rank):
            label = f"a{a + 1} b{bb + 1}"
            terms = [h3_star[label], -p3_star[label]]
            for i in range(d):
                terms.append(-(alg.anchor[bb][i] * p2_star[f"a{a + 1} i{i + 1}"]))
            combo_rows.append((label, field_sum_d(terms, d)))
    report.add(
        evaluate_check(
            "sigma2d/theorem-consistency",
            "H3_ab - P3_ab - rho^i_b P2_ai = 0 identically (induced mu)",
            combo_rows,
            points,
            1e-9,
        )
    )
    th_h1 = evaluate_check(
        "sigma2d/theorem-h1",
        "D gamma = 0 for B = b + d eta",
        h1_rows,
        points,
        tol,
        informational=not cfg.require_h1,
    )
    report.add(th_h1)
    report.verdicts["sigma2d_classification"] = mom.classify(
        th_h1.max_residual, h2_max, h3_max, tol
    )


# ---------------------------------------------------------------------------
# multisym


def run_multisym(model: Model, points: np.ndarray, cfg: RunConfig, report: CheckReport):
    tol = cfg.tolerance
    data = model.multisym
    alg = data.alg
    n = data.n
    ht = msy.tilde_h(data)

    closed = evaluate_check(
        "multisym/pre-nplectic-closed",
        "dh = 0",
        mom.closedness_fields(data.h),
        points,
        tol,
        informational=True,
    )
    if not closed.passed:
        closed.flags += ("not pre-n-plectic",)
    report.add(closed)

    descent_max = 0.0
    for k in range(1, n):
        pair = evaluate_check(
            f"multisym/descent-pairing[k={k}]",
            "eta^(k-1) equals the signed cyclic anchor contraction of eta^(k)",
            msy.descent_pairing_fields(data, k),
            points,
            tol,
        )
        sym = evaluate_check(
            f"multisym/descent-symmetry[k={k}]",
            "anchor contraction of eta^(k) is antisymmetric under slot exchange",
            msy.descent_symmetry_fields(data, k),
            points,
            tol,
        )
        report.add(pair)
        report.add(sym)
        descent_max = _worst(descent_max, pair.max_residual, sym.max_residual)

    hm2 = evaluate_check(
        "multisym/hm2-momentum-section",
        "D eta^(n-1)(e) = iota_{rho(e)} (h + d eta^(n))",
        msy.hm2_fields(data, ht),
        points,
        tol,
    )
    hm1 = evaluate_check(
        "multisym/hm1-anchoring",
        "D iota_rho (h + d eta^(n)) = 0",
        msy.hm1_fields(data, ht),
        points,
        tol,
        informational=not cfg.require_h1,
    )
    report.add(hm2)
    report.add(hm1)

    # rows keyed like msy.specialized_fields, for the agreement below
    general = {"hm2": hm2, "hm1": hm1}
    hm3_max = 0.0
    for k in range(n - 1, -1, -1):
        rows, term_fields = msy.hm3_differential_fields(data, k)
        flags = ()
        if k >= 1:
            flags = ("ambiguous connection term read as trace pairing, collapsed sum",)
        chk = evaluate_check(
            f"multisym/hm3-diff[k={k}]",
            "k-indexed differential compatibility, term by term as printed",
            rows,
            points,
            tol,
            terms=term_fields,
            flags=flags,
        )
        report.add(chk)
        general[f"hm3[{k}]"] = chk
        hm3_max = _worst(hm3_max, chk.max_residual)

    if n >= 2:
        report.add(
            evaluate_check(
                "multisym/hm3-rewrite",
                "d_E eta^(n-1)(e_a,e_b) - D eta^(n-2)(e_a,e_b) = 0 (dual-pair form)",
                msy.hm3_rewrite_fields(data),
                points,
                tol,
                informational=True,
                flags=("differs from the literal identity by descent rearrangement",),
            )
        )

    if model.conn.is_flat and mom.is_constant_structure(alg, points):
        sp = msy.specialized_fields(data)
        report.add(
            delta_check(
                "multisym/lie-specialize-agreement",
                "constant-bracket reduced system matches the general evaluators",
                _worst(*(abs(rows_max(sp[key], points) - general[key].max_residual) for key in sp)),
                len(points),
                1e-10,
            )
        )

    if n == 1:
        mu = [data.eta_k(0).comp((a,)).comp(()) for a in range(alg.rank)]
        rows = mom.condition_fields(alg, model.conn, ht, mu, cfg.h3_sign)
        h1_max, h2_max, h3_max = (rows_max(r, points) for r in rows)
        delta = _worst(
            abs(hm1.max_residual - h1_max),
            abs(hm2.max_residual - h2_max),
            abs(general["hm3[0]"].max_residual - h3_max),
        )
        flags = ()
        if h2_max >= tol:
            flags = ("bracket-compatibility comparison assumes the momentum-section condition",)
        report.add(
            delta_check(
                "multisym/n1-reduction-agreement",
                "degree-1 tower equals the momentum-section conditions",
                delta,
                len(points),
                1e-12,
                informational=bool(flags),
                flags=flags,
            )
        )

    report.verdicts["multisym_classification"] = mom.classify(
        hm1.max_residual, hm2.max_residual, _worst(hm3_max, descent_max), tol
    )


_RUNNERS = {
    "axioms": run_axioms,
    "momentum": run_momentum,
    "mechanics": run_mechanics,
    "sigma2d": run_sigma2d,
    "multisym": run_multisym,
}
