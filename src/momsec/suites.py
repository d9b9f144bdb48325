"""Check suites: wiring from a loaded model to a report.

Each suite is planned once per selection: its planner builds the
suite's row graphs from the model alone, on the first run of a selection
that names the suite, and returns the step that reports them, every row
set the step may read (whichever branch a run takes; it reads no other,
and a concatenation of row sets is one more row set, built there) and
the matrix probes it reads besides, which only mechanics has: the metric
(its diagonal, when it stores nothing else) and anchor matrices.
A suite planned again for another selection reads the same live nodes,
since equal nodes are one node (see :mod:`momsec.fields`), so only the
planner's time repeats.
Which row sets exist is decided there, from the model's structure: the
constant-bracket reductions only for a flat connection and structure
functions that are finite constants of the model, and sigma2d's rows for
a b that is not closed only when no ``beta_rigid`` is given and db is not
a structural zero.

The first run of a selection makes its run plan, which the model keeps
for each next run of the same selection.  It holds the plans of the
selected suites; one row probe, every distinct field of every row set of
those suites that is not a structural zero; their matrix probes; the
positions of every row set's fields in the row probe, concatenated once;
and one :class:`~momsec.fields.Program` compiled from the probes.  So a
node that several suites read is evaluated once, and no other program
is compiled.

One point sample is drawn per run and shared by every check, so
residuals compared across modules are evaluated on identical points.  A
run evaluates the sample in chunks: the chunk length is
``CHUNK_BYTES`` over the program's bytes per point, so memory does not
grow with ``--points``.  The program owns the one space its table lives
in, reused chunk after chunk and run after run (see
:meth:`~momsec.fields.Program.run`).  In each chunk the program runs
once, from the chunk's coordinates up through every node of the model's
expressions and the suites' graphs, and each root group is reduced as
it is read: the row probe, gathered from the tables once, to each
field's max |f| (NaN when any value is NaN), and a matrix probe to the
arrays its reduction makes.  The run keeps the elementwise maximum over
chunks of each, which every reduction here is chosen to make exact, and
a domain error or a singular matrix names its point by its index in the
whole sample: the first point where any node fails, whatever the chunk
length.

Only then do the steps run, and they read only these maxima: one
``np.maximum.reduceat`` per run takes the maximum of every row set of
every selected suite, and a step looks each up by its row set or matrix
probe.  The only wiring that reads sample values (whether sigma2d's b is
closed, which picks the rigid-b rows it reports) is decided in the step,
per run.  Each run has one :class:`CheckContext`, which holds the
sample, the :class:`RunConfig`, the report, and one map of the maximum
of each row set and of each matrix probe; its methods are the only code
that makes a report row, and each appends its row to the report as it
is made.  The H1-H3 rows come from :func:`momentum.condition_fields`
wherever a suite needs them.  The anchoring conditions (H1, HM1) are
reported but not required unless ``require_h1`` is set.  A row that
holds only under stated hypotheses names the reported rows that check
them (``assuming``), and every verdict reads the ``passed`` of reported
rows, so one rule decides what is required and what passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from . import algebroid as alg_mod
from . import hamiltonian as ham
from . import momentum as mom
from . import multisym as msy
from . import sigma2d as s2d
from .connections import e_nabla_metric_fields, e_nabla_two_form_fields
from .expressions import DomainError
from .fields import Program, SingularMatrixError, diagonal_cond_max, exterior_derivative, finite_only, point_matrices
from .modelfile import Model
from .reporting import CheckReport, CheckResult

# bytes of value table that a program may fill per chunk: a run
# evaluates this many bytes over its program's bytes per point at a time
CHUNK_BYTES = 8 << 20


class SuiteError(ValueError):
    """A selected suite cannot run because a model block is missing."""


@dataclass
class RunConfig:
    """Settings of one run; ``None`` takes the model file's value."""

    tolerance: float | None = None
    points: int | None = None
    seed: int | None = None
    require_h1: bool = False


def _missing_block(model: Model, suite: str) -> str | None:
    """The model block ``suite`` requires, if the model lacks it."""
    block = _SUITES[suite][1]
    return block if block is not None and getattr(model, block) is None else None


def applicable_suites(model: Model) -> list[str]:
    return [suite for suite in SUITE_NAMES if _missing_block(model, suite) is None]


def resolve_suites(model: Model, selection: str) -> list[str]:
    if selection == "all":
        return applicable_suites(model)
    if selection not in SUITE_NAMES:
        raise SuiteError(f"unknown suite {selection!r}; choose from {', '.join(SUITE_NAMES)} or 'all'")
    block = _missing_block(model, selection)
    if block is not None:
        raise SuiteError(f"suite {selection!r} requires the {block!r} block")
    return [selection]


def run(model: Model, selection: str = "all", config: RunConfig | None = None) -> CheckReport:
    """Run the selected suites; raises ValueError for a tolerance that is
    not finite and positive, fewer than one point or a negative seed."""
    cfg = config or RunConfig()
    cfg = replace(
        cfg,
        tolerance=model.tolerance if cfg.tolerance is None else cfg.tolerance,
        points=model.sampling.points if cfg.points is None else cfg.points,
        seed=model.sampling.seed if cfg.seed is None else cfg.seed,
    )
    if not (math.isfinite(cfg.tolerance) and cfg.tolerance > 0):
        raise ValueError(f"tolerance must be finite and positive, got {cfg.tolerance!r}")
    if cfg.points < 1:
        raise ValueError(f"points must be at least 1, got {cfg.points}")
    if cfg.seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {cfg.seed}")
    ctx = CheckContext(model, cfg, resolve_suites(model, selection))
    # overflow and invalid operations yield inf/NaN residuals, which fail
    # their rows; numpy's warnings about them would only repeat that
    with np.errstate(all="ignore"):
        run_plan = _run_plan(model, ctx.report.suites)
        rows, *probes = run_plan.evaluate(ctx.points)
        ctx.maxima = run_plan.row_maxima(rows)
        ctx.maxima.update((id(p), float(m[0])) for p, m in zip(run_plan.probes, probes))
        for plan in run_plan.plans:
            plan.step(ctx)
    return ctx.report


def _run_plan(model: Model, selected: list[str]) -> "_RunPlan":
    """The model's run plan of the ``selected`` suites, made on the first
    run of that selection."""
    key = tuple(selected)
    run_plan = model._plans.get(key)
    if run_plan is None:
        plans = [_Plan(*_SUITES[suite][0](model)) for suite in key]
        run_plan = model._plans[key] = _RunPlan(plans, model.chart.dim)
    return run_plan


class _Probe:
    """Fields a step reads and ``reduce``, which maps their stacked
    values over a chunk to a ``(1,)`` array whose maximum over the
    chunks of a sample is what the step reads (see :mod:`momsec.suites`)."""

    def __init__(self, fields: list, reduce):
        self.fields = fields
        self.reduce = reduce


def _abs_maxima(values: np.ndarray) -> np.ndarray:
    """max |f| of each row of ``values``, NaN where any value is NaN.
    The row probe's values are a copy of its rows, so |f| is taken in
    place, and no name holds them past the reduction, so the next
    chunk's kernels run without them.  One ``reduceat`` over the rows
    laid end to end is quicker than ``max(axis=1)`` on rows this short."""
    flat = np.abs(values, out=values).ravel()
    return np.maximum.reduceat(flat, np.arange(0, flat.size, values.shape[1]))


class _Plan:
    """A suite's step, its row sets and its matrix probes.  A row set
    that is ``None`` was not built for the model.  Row sets are keyed by
    identity; the plan holds them, so no id is reused while it lives."""

    def __init__(self, step, row_sets, probes=()):
        self.step = step
        self.row_sets = row_sets
        self.probes = probes


class _RunPlan:
    """The plans of a selection's suites and what a run of them reads.

    ``rows`` is the row probe: every distinct field, not a structural
    zero, of every row set of the plans, in the order first read.  The
    positions in it of the fields of every row set that has any are
    concatenated once, in ``order`` from offsets ``starts``, for the row
    sets keyed ``ids``; a row set whose fields are all structural zeros
    reads 0 (``zeros``).  ``probes`` are the plans' matrix probes, and
    ``program`` evaluates the row probe and then each matrix probe in
    every run."""

    def __init__(self, plans: list, dim: int):
        self.plans = plans
        index: dict = {}
        positions = {}
        for plan in plans:
            for rows in plan.row_sets:
                if rows is not None:
                    positions[id(rows)] = [index.setdefault(f, len(index)) for _, f in rows if not f.is_zero]
        self.rows = list(index)
        self.zeros = {key: 0.0 for key, picked in positions.items() if not picked}
        self.ids = [key for key, picked in positions.items() if picked]
        order, starts = [], []
        for key in self.ids:
            starts.append(len(order))
            order += positions[key]
        self.order = np.array(order, dtype=np.intp)
        self.starts = np.array(starts, dtype=np.intp)
        self.probes = [p for plan in plans for p in plan.probes]
        self.program = Program([self.rows, *(p.fields for p in self.probes)], dim)

    def evaluate(self, points: np.ndarray) -> list:
        """The maxima over ``points`` of the row probe's |f|, one per
        field, and of each matrix probe's reduction.  The program runs
        chunk by chunk.  A domain error or a singular matrix is reported
        at the first point of the sample where any node fails, for the
        first node, in the program's fixed kernel order, that fails
        there."""
        program = self.program
        length = max(1, CHUNK_BYTES // max(1, program.bytes_per_point))
        for start in range(0, len(points), length):
            chunk = points[start : start + length]
            try:
                values = program.run(chunk)
            except (DomainError, SingularMatrixError) as exc:
                # the first kernel to fail may fail only past a point where a
                # kernel after it fails: run the points before the reported
                # one again until none of them fails
                while exc.point:
                    try:
                        program.run(chunk[: exc.point])
                        break
                    except (DomainError, SingularMatrixError) as earlier:
                        exc = earlier
                raise exc.shifted(start) from None
            reduced = [_abs_maxima(next(values)), *(p.reduce(v) for p, v in zip(self.probes, values))]
            maxima = reduced if start == 0 else [np.maximum(a, b) for a, b in zip(maxima, reduced)]
        return maxima

    def row_maxima(self, rows: np.ndarray) -> dict:
        """The largest |f| of each row set, keyed by id, from those of the
        row probe's fields, ``rows``.  These are >= 0 or NaN, and
        ``np.maximum`` keeps a NaN as ``ndarray.max`` does."""
        values = np.maximum.reduceat(rows.take(self.order), self.starts)
        return {**self.zeros, **dict(zip(self.ids, values.tolist()))}


class CheckContext:
    """One run: its point sample and their count, the config, the report,
    and ``maxima``, the maximum of each row set and of each matrix probe's
    reduction of every selected suite, keyed by id.

    Every row method reads its residual from those maxima, appends the
    row to the report and returns it, so rows appear in the order they
    are made.
    """

    def __init__(self, model: Model, cfg: RunConfig, suites: list[str]):
        self.cfg = cfg
        self.tol = cfg.tolerance
        self.points = model.chart.sample(cfg.points, cfg.seed)
        self.n_points = len(self.points)
        self.maxima: dict = {}
        self.report = CheckReport(
            model_hash=model.model_hash, seed=cfg.seed, points=cfg.points, tolerance=cfg.tolerance, suites=suites
        )
        self.verdicts = self.report.verdicts

    def max(self, rows) -> float:
        """Largest |f| over the sample for a row set that the planner of a
        selected suite returned, 0 for rows that are all zero; or the
        maximum of a matrix probe's reduction."""
        return self.maxima[id(rows)]

    def check(
        self,
        name: str,
        equation: str,
        rows,
        tolerance: float | None = None,
        *,
        terms: dict | None = None,
        flags: tuple[str, ...] = (),
        informational: bool = False,
        anchoring: bool = False,
        assuming: tuple = ((), ""),
    ) -> CheckResult:
        """The row for a row set of labeled fields, one that the suite's
        planner returned: their max absolute residual.

        ``terms`` maps a term label to its own labeled fields; the row
        reports the maximum of each term that has any, as a breakdown of
        the residual, and no breakdown (``None``) when no term has any.
        An ``anchoring`` row (H1, HM1) is informational unless the run
        sets ``require_h1``.  ``assuming=(rows, flag)`` names the reported
        rows this row's equation assumes (see :meth:`_add`).
        """
        if terms is not None:
            terms = {label: self.max(term_rows) for label, term_rows in terms.items() if term_rows} or None
        informational = informational or (anchoring and not self.cfg.require_h1)
        tolerance = self.tol if tolerance is None else tolerance
        return self._add(name, equation, self.max(rows), len(rows), tolerance, informational, terms, flags, assuming)

    def scalar(
        self, name: str, equation: str, value: float, tolerance: float, *, informational: bool = False
    ) -> CheckResult:
        """A row whose residual is one number computed from the sample."""
        return self._add(name, equation, value, 1, tolerance, informational, None, ())

    def agreement(
        self,
        name: str,
        equation: str,
        pairs,
        tolerance: float,
        *,
        informational: bool = False,
        assuming: tuple = ((), ""),
    ) -> CheckResult:
        """A row stating that two sets of rows agree: the largest
        |max|x| - max|y|| over the pairs (x, y), NaN if any is NaN."""
        deltas = [abs(self.max(x) - self.max(y)) for x, y in pairs]
        # the builtin max may drop a NaN
        delta = math.nan if any(map(math.isnan, deltas)) else max(deltas)
        return self._add(name, equation, delta, 1, tolerance, informational, None, (), assuming)

    def _add(
        self, name, equation, residual, n_tuples, tolerance, informational, terms, flags, assuming=((), "")
    ) -> CheckResult:
        """Make the row and append it.  With ``assuming=(rows, flag)`` the
        row is informational and gets ``flag`` if any of the reported
        ``rows`` failed with a finite residual; a non-finite hypothesis was
        never really evaluated, so the row stays required.  NaN compares
        false with everything, so a non-finite residual is tested
        explicitly: it fails the row and is flagged, never passed."""
        hypotheses, flag = assuming
        if hypotheses and any(not h.passed and math.isfinite(h.max_residual) for h in hypotheses):
            informational, flags = True, flags + (flag,)
        finite = math.isfinite(residual)
        passed = finite and residual < tolerance
        flags = flags if finite else flags + ("non-finite",)
        row = CheckResult(
            name, equation, float(residual), self.n_points, n_tuples, tolerance, passed, informational, terms, flags
        )
        self.report.add(row)
        return row


# ---------------------------------------------------------------------------
# axioms


def plan_axioms(model: Model):
    alg = model.alg
    anchor_rows = alg_mod.anchor_morphism_fields(alg)
    sigma_fields, contracted = alg_mod.jacobi_sigma_fields(alg)
    q2_rows = alg_mod.q_squared_fields(alg)

    def evaluate(ctx: CheckContext):
        anchor = ctx.check("axioms/anchor-morphism", "[rho_a, rho_b] - C^c_ab rho_c = 0", anchor_rows)
        sigma = ctx.check("axioms/jacobi-cyclic", "cyclic(C C + rho dC) = 0", sigma_fields)
        anchored = ctx.check("axioms/jacobi-anchored", "cyclic(C C + rho dC) contracted with rho = 0", contracted)
        q2 = ctx.check("axioms/q-squared", "d_E d_E = 0 on coordinates and basis one-forms", q2_rows)
        if anchor.passed and sigma.passed:
            verdict = "Lie algebroid"
        elif anchor.passed and anchored.passed:
            verdict = "anchored almost Lie algebroid"
        else:
            verdict = "neither"
        agree = (q2.passed == (anchor.passed and sigma.passed))
        ctx.scalar(
            "axioms/q-verdict-agreement",
            "squared-differential verdict matches anchor+cyclic verdict",
            0.0 if agree else 1.0,
            0.5,
        )
        ctx.verdicts["algebroid_class"] = verdict

    return evaluate, [anchor_rows, sigma_fields, contracted, q2_rows]


# ---------------------------------------------------------------------------
# momentum


def plan_momentum(model: Model):
    alg, conn = model.alg, model.conn
    B = exterior_derivative(model.eta_boundary, model.b_field)
    closed_rows = mom.closedness_fields(B)
    # condition_fields' rows, on a gamma the reductions read too
    gamma = mom.gamma_fields(alg, B)
    h1_rows = mom.h1_fields(conn, gamma)
    h2_rows = mom.h2_fields(conn, gamma, model.mu)
    h3_rows = mom.h3_fields(alg, B, model.mu)
    tangent_rows = e_nabla_two_form_fields(conn, B)
    degenerate = B.is_zero and all(f.is_zero for f in model.mu)
    # the reductions hold for a flat connection and constant brackets
    lie = conn.is_flat and alg.constant_structure
    reductions = mom.momentum_map_fields(alg, conn, B, model.mu, gamma) if lie else {}

    def evaluate(ctx: CheckContext):
        tol = ctx.tol
        closed = ctx.check(
            "momentum/pre-symplectic-closed", "dB = 0 with B = b + d eta", closed_rows, informational=True
        )
        if not closed.passed:
            closed.flags += ("not pre-symplectic",)
        h1 = ctx.check("momentum/h1-anchoring", "D gamma = 0", h1_rows, anchoring=True)
        h2 = ctx.check("momentum/h2-momentum-section", "D mu = gamma", h2_rows)
        h3 = ctx.check("momentum/h3-bracket-compat", "d_E mu(e_a,e_b) + B(rho_a, rho_b) = 0", h3_rows)
        ctx.check(
            "momentum/tangent-two-form-compat",
            "tangent-action derivative of B along each anchor = 0",
            tangent_rows,
            informational=True,
        )
        ctx.agreement(
            "momentum/h1-tangent-agreement",
            "|max D gamma - max tangent-action residual|",
            [(h1_rows, tangent_rows)],
            max(tol, 1e-9),
            informational=True,
            assuming=([closed], "comparison needs dB = 0"),
        )
        ctx.verdicts["momentum_classification"] = mom.classify(h1.passed, h2.passed, h3.passed)
        if degenerate:
            ctx.verdicts["momentum_classification"] += " (degenerate: B = 0, mu = 0)"

        if reductions:
            ctx.check("momentum/map-symplectic-vectorfield", "L_{rho_a} B = 0", reductions["symplectic"])
            ctx.check("momentum/map-hamiltonian-pairing", "d mu_a = iota_{rho_a} B", reductions["hamiltonian"])
            ctx.check("momentum/map-equivariance", "rho_a(mu_b) = C^c_ab mu_c", reductions["equivariance"])
            ctx.agreement(
                "momentum/map-reduction-agreement",
                "flat-connection reductions match the general conditions",
                # the hamiltonian reduction is h2's own graph for a flat
                # connection, so it has no pair here
                [(reductions["symplectic"], h1_rows), (reductions["equivariance"], h3_rows)],
                1e-10,
                assuming=([closed, h2], "comparison assumes dB = 0 and the momentum-section condition"),
            )

    return evaluate, [closed_rows, h1_rows, h2_rows, h3_rows, tangent_rows, *reductions.values()]


# ---------------------------------------------------------------------------
# mechanics


def plan_mechanics(model: Model):
    g = model.metric
    anchor = model.alg.anchor
    r = model.alg.rank
    system = ham.ConstraintSystem(model.alg, model.conn, g, model.alpha, model.beta, model.V, model.tau)
    fc = _by_degree(ham.first_class_fields(system))
    fl = _by_degree(ham.flow_fields(system))
    absorbed = ham.absorb_beta(system)
    twist_rows = mom.closedness_fields(absorbed.twist)
    tau_rows = ham.tau_prime_fields(absorbed)
    # with beta a structural zero, absorbing it leaves the constraints,
    # the Hamiltonian and the multipliers as they are, under an empty
    # twist, so the twisted residuals are the untwisted ones
    if system.beta.stored():
        fc2 = _by_degree(ham.first_class_fields(absorbed))
        fl2 = _by_degree(ham.flow_fields(absorbed))
    else:
        fc2, fl2 = fc, fl
    # each residual's rows over every degree, and the twisted degree-0 block
    fc_rows, fl_rows, fc2_rows, fl2_rows = (list(chain(*rows.values())) for rows in (fc, fl, fc2, fl2))
    fc2_constant = fc2.get("degree 0", [])
    h1_rows, h2_rows, h3_rows = mom.condition_fields(model.alg, model.conn, absorbed.twist, absorbed.alpha)
    d = model.chart.dim
    # NaN at a point where the matrix has a non-finite entry, which fails
    # the row; a metric that stores only its diagonal needs no SVD.  It
    # reads g^{-1} too, so a g singular at a sample point stops the run
    inverse = [f for row in g.inverse() for f in row if not f.is_zero]
    if g.diagonal is not None:
        conditioning = _Probe([*g.diagonal, *inverse], lambda values: diagonal_cond_max(values[:d]))
    else:
        conditioning = _Probe(
            [*(f for row in g.g for f in row), *inverse],
            lambda values: np.max(finite_only(np.linalg.cond, point_matrices(values[: d * d], d)), keepdims=True),
        )
    deficiency = _Probe(
        [f for row in anchor for f in row],
        lambda values: np.max(r - finite_only(anchor_ranks, point_matrices(values, r)), keepdims=True),
    )

    def evaluate(ctx: CheckContext):
        tol = ctx.tol
        ctx.scalar(
            "mechanics/metric-conditioning",
            "condition number of g at sampled points",
            ctx.max(conditioning),
            1e12,
            informational=True,
        )
        ctx.scalar(
            "mechanics/constraint-irreducibility",
            "rank(rho) = r at sampled points",
            ctx.max(deficiency),
            0.5,
            informational=True,
        )

        ctx.check("mechanics/first-class", "{Phi_a, Phi_b} = C^c_ab Phi_c", fc_rows, terms=fc)
        ctx.check("mechanics/flow", "{H, Phi_a} = lambda_a^b Phi_b", fl_rows, terms=fl)

        ctx.check("mechanics/twist-closed", "d(dA) = 0 for A = g_flat beta", twist_rows, max(tol, 1e-12))
        tau = ctx.check(
            "mechanics/tau-prime",
            "tau' = tau - Gamma(beta) = 0 (theorem hypothesis)",
            tau_rows,
            informational=True,
        )

        ctx.check(
            "mechanics/first-class-twisted",
            "{Phi'_a, Phi'_b} = C^c_ab Phi'_c under the twisted bracket",
            fc2_rows,
            terms=fc2,
        )
        ctx.check(
            "mechanics/flow-twisted",
            "{H', Phi'_a} = lambda'_a^b Phi'_b under the twisted bracket",
            fl2_rows,
            terms=fl2,
        )

        th_h1 = ctx.check("mechanics/theorem-h1", "D gamma = 0 for the induced twist", h1_rows, anchoring=True)
        th_h2 = ctx.check(
            "mechanics/theorem-h2",
            "D alpha' = gamma for the induced twist",
            h2_rows,
            assuming=([tau], "superseded by the flow linear block: tau' != 0"),
        )
        th_h3 = ctx.check("mechanics/theorem-h3", "d_E alpha'(e_a,e_b) + B(rho_a, rho_b) = 0", h3_rows)

        ctx.agreement(
            "mechanics/flow-deg1-vs-h2",
            "linear momentum block of the flow residual matches D alpha' - gamma",
            [(fl2["degree 1"], h2_rows)],
            1e-9,
            assuming=([tau], "tau' != 0 shifts the linear block"),
        )
        ctx.agreement(
            "mechanics/firstclass-deg0-vs-h3",
            "constant block of the first-class residual matches bracket compatibility",
            [(fc2_constant, h3_rows)],
            1e-9,
        )

        if not tau.passed:
            verdict = "generalized (tau' != 0)"
        else:
            verdict = mom.classify(th_h1.passed, th_h2.passed, th_h3.passed)
        ctx.verdicts["mechanics_classification"] = verdict

    row_sets = [*fc.values(), *fl.values(), twist_rows, tau_rows, *fc2.values(), *fl2.values()]
    row_sets += [h1_rows, h2_rows, h3_rows, fc_rows, fl_rows, fc2_rows, fl2_rows, fc2_constant]
    return evaluate, row_sets, [conditioning, deficiency]


def anchor_ranks(matrices: np.ndarray) -> np.ndarray:
    """``np.linalg.matrix_rank(m, tol=1e-10)`` of a ``(P, r, d)`` stack:
    the count of each matrix's singular values above 1e-10."""
    return np.count_nonzero(np.linalg.svd(matrices, compute_uv=False) > 1e-10, axis=-1)


def _by_degree(degree_fields) -> dict:
    """Residual rows grouped by momentum degree as report terms, lowest first."""
    return {f"degree {k}": rows for k, rows in sorted(degree_fields.items())}


# ---------------------------------------------------------------------------
# sigma2d


def plan_sigma2d(model: Model):
    alg, conn = model.alg, model.conn
    g = model.metric
    b = model.b_field
    eta = model.eta_boundary

    killing_rows = s2d.rigid_killing_fields(alg, g)
    # without beta_rigid, which rigid-b rows a run reports depends on db over
    # its sample; the rows for a b that is not closed need a db that is not
    # a structural zero
    b_closed_rows = mom.closedness_fields(b)
    b_closure_rows = s2d.rigid_b_closure_fields(alg, b) if model.beta_rigid is None and b_closed_rows else None
    b_rows, defaulted = s2d.rigid_b_fields(alg, b, model.beta_rigid)
    anchor_rows = alg_mod.anchor_morphism_fields(alg)
    gauged_rows = e_nabla_metric_fields(conn, g)
    pairing_rows = s2d.boundary_pairing_fields(alg, eta, model.mu)
    p2_rows = s2d.boundary_eta_fields(alg, conn, b, eta, model.mu)
    p3_rows = s2d.boundary_mu_fields(alg, conn, model.mu)
    mu_star, B_star = s2d.induced_momentum_inputs(alg, b, eta)
    h1_rows, h2_rows, h3_rows = mom.condition_fields(alg, conn, B_star, mu_star)
    consistency_rows = s2d.theorem_consistency_fields(alg, conn, b, eta, mu_star, h3_rows)

    def evaluate(ctx: CheckContext):
        tol = ctx.tol
        ctx.check("sigma2d/rigid-killing-metric", "L_{rho_a} g = 0", killing_rows)
        if b_closure_rows is not None and ctx.max(b_closed_rows) >= tol:
            ctx.check(
                "sigma2d/rigid-b-invariance",
                "d(L_{rho_a} b) = 0 (no exactness candidate supplied, b not closed)",
                b_closure_rows,
                flags=("b not closed and no beta_rigid: only closedness of L_rho b checked",),
            )
        else:
            flags = ("default candidate: beta_a = iota_{rho_a} b",) if defaulted else ()
            ctx.check("sigma2d/rigid-b-invariance", "L_{rho_a} b = d beta_a", b_rows, flags=flags)
        ctx.check("sigma2d/rigid-anchor-morphism", "[rho_a, rho_b] = rho([e_a, e_b])", anchor_rows)
        ctx.check("sigma2d/gauged-metric-compat", "L_{rho_a} g = Gamma_a^b v iota_{rho_b} g", gauged_rows)
        # gauging leaves the anchor condition as it is: the same rows, reported again
        ctx.check("sigma2d/gauged-anchor-morphism", "[rho_a, rho_b] = rho([e_a, e_b])", anchor_rows)

        ctx.check("sigma2d/bdry-pairing", "mu_a + eta_i rho^i_a = 0", pairing_rows)
        p2 = ctx.check(
            "sigma2d/bdry-eta-compat",
            "rho^j_a b_ji + rho^j_a d_j eta_i + eta_j d_i rho^j_a + Gamma^b_ai mu_b = 0",
            p2_rows,
        )
        ctx.check(
            "sigma2d/bdry-mu-equivariance", "rho_a(mu_b) - C^c_ab mu_c - rho^i_b Gamma^c_ai mu_c = 0", p3_rows
        )

        ctx.agreement(
            "sigma2d/theorem-h2-agreement",
            "eta-compatibility block equals the momentum-section residual",
            [(p2_rows, h2_rows)],
            1e-9,
        )
        ctx.agreement(
            "sigma2d/theorem-h3-agreement",
            "mu-equivariance block equals the bracket-compatibility residual",
            [(p3_rows, h3_rows)],
            1e-9,
            assuming=([p2], "equality holds modulo the eta-compatibility block"),
        )
        # Unconditional identity: H3_ab = P3_ab + rho^i_b P2_{a,i} with the
        # induced mu; the file mu enters P2/P3, so compare on induced inputs.
        ctx.check(
            "sigma2d/theorem-consistency",
            "H3_ab - P3_ab - rho^i_b P2_ai = 0 identically (induced mu)",
            consistency_rows,
            1e-9,
        )
        th_h1 = ctx.check("sigma2d/theorem-h1", "D gamma = 0 for B = b + d eta", h1_rows, anchoring=True)
        ctx.verdicts["sigma2d_classification"] = mom.classify(
            th_h1.passed, ctx.max(h2_rows) < tol, ctx.max(h3_rows) < tol
        )

    row_sets = [
        killing_rows, b_closed_rows, b_rows, anchor_rows, gauged_rows, pairing_rows,
        p2_rows, p3_rows, h1_rows, h2_rows, h3_rows, consistency_rows, b_closure_rows,
    ]
    return evaluate, row_sets


# ---------------------------------------------------------------------------
# multisym


def plan_multisym(model: Model):
    data = model.multisym
    alg = data.alg
    n = data.n

    closed_rows = mom.closedness_fields(data.h)
    # one operator builds every row set below from pieces it builds once
    tower = msy.TowerOperator(data)
    descent_rows = [(k, tower.descent_pairing(k), tower.descent_symmetry(k)) for k in range(1, n)]
    # rows keyed like tower.specialized(), for the agreement below
    general = {"hm2": tower.hm2(), "hm1": tower.hm1()}
    hm3_terms = {}
    for k in range(n - 1, -1, -1):
        general[f"hm3[{k}]"], hm3_terms[k] = tower.hm3(k)
    rewrite_rows = tower.rewrite() if n >= 2 else None
    # the reduced system holds for a flat connection and constant brackets
    sp = tower.specialized() if model.conn.is_flat and alg.constant_structure else {}
    # the n = 1 tower against H2 and H3 of its own 2-form and moment map;
    # its HM1 rows are H1's, built the same way
    reduction = None
    if n == 1:
        mu = [data.eta_k(0).comp((a,)).comp(()) for a in range(alg.rank)]
        # tower.flux is iota_rho h~, the gamma of H2
        reduction = {"hm2": mom.h2_fields(model.conn, tower.flux, mu), "hm3[0]": mom.h3_fields(alg, tower.h_tilde, mu)}
    row_sets = [closed_rows, *chain(*((p, q) for _, p, q in descent_rows)), *general.values(), *sp.values()]
    row_sets += [rows for terms in hm3_terms.values() for rows in terms.values()]
    row_sets += [rewrite_rows, *(reduction or {}).values()]

    def evaluate(ctx: CheckContext):
        closed = ctx.check("multisym/pre-nplectic-closed", "dh = 0", closed_rows, informational=True)
        if not closed.passed:
            closed.flags += ("not pre-n-plectic",)

        descent = []
        for k, pairing_rows, symmetry_rows in descent_rows:
            descent.append(
                ctx.check(
                    f"multisym/descent-pairing[k={k}]",
                    "eta^(k-1) equals the signed cyclic anchor contraction of eta^(k)",
                    pairing_rows,
                )
            )
            descent.append(
                ctx.check(
                    f"multisym/descent-symmetry[k={k}]",
                    "anchor contraction of eta^(k) is antisymmetric under slot exchange",
                    symmetry_rows,
                )
            )

        hm2 = ctx.check(
            "multisym/hm2-momentum-section", "D eta^(n-1)(e) = iota_{rho(e)} (h + d eta^(n))", general["hm2"]
        )
        hm1 = ctx.check("multisym/hm1-anchoring", "D iota_rho (h + d eta^(n)) = 0", general["hm1"], anchoring=True)

        hm3 = []
        for k, term_fields in hm3_terms.items():
            hm3.append(
                ctx.check(
                    f"multisym/hm3-diff[k={k}]",
                    "k-indexed differential compatibility, term by term as printed",
                    general[f"hm3[{k}]"],
                    terms=term_fields,
                    flags=("ambiguous connection term read as trace pairing, collapsed sum",) if k >= 1 else (),
                )
            )

        if rewrite_rows is not None:
            ctx.check(
                "multisym/hm3-rewrite",
                "d_E eta^(n-1)(e_a,e_b) - D eta^(n-2)(e_a,e_b) = 0 (dual-pair form)",
                rewrite_rows,
                informational=True,
                flags=("differs from the literal identity by descent rearrangement",),
            )

        if sp:
            ctx.agreement(
                "multisym/lie-specialize-agreement",
                "constant-bracket reduced system matches the general evaluators",
                [(sp[key], general[key]) for key in sp],
                1e-10,
                assuming=(descent, "comparison assumes the descent relations"),
            )

        if reduction is not None:
            ctx.agreement(
                "multisym/n1-reduction-agreement",
                "degree-1 tower equals the momentum-section conditions",
                [(general[key], reduction[key]) for key in reduction],
                1e-12,
                assuming=([hm2], "bracket-compatibility comparison assumes the momentum-section condition"),
            )

        ctx.verdicts["multisym_classification"] = mom.classify(
            hm1.passed, hm2.passed, all(c.passed for c in hm3 + descent)
        )

    return evaluate, row_sets


# suite -> (its planner, the model block it requires), in report order; a
# planner builds the suite's row graphs and returns the step that
# reports them on a run, with its row sets and matrix probes (see _Plan).  A
# step must not hold the model: the model holds the step, and in a reference cycle a model and its graphs would
# wait for the cyclic garbage collector, which then walks every node.
_SUITES = {
    "axioms": (plan_axioms, None),
    "momentum": (plan_momentum, None),
    "mechanics": (plan_mechanics, "metric"),
    "sigma2d": (plan_sigma2d, "metric"),
    "multisym": (plan_multisym, "multisym"),
}
SUITE_NAMES = tuple(_SUITES)
