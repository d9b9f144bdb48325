#!/usr/bin/env python3
"""Print the planning time of each model, layer by layer, and the work
planning spends on structural zeros.

Usage: python scripts/plan_time.py [N]    (default: 20)

The models are the built-in examples, then ``son_model_bytes(3, 1)`` and
``son_model_bytes(4, 1)`` (``perfbench/models.py``).  Each model is
loaded N times, fresh; each time the script times loading it, each
applicable suite's planner (with its ``_Plan``), the run plan's first
run at sampling seed 42 and 32 points (``first``: making the run plan,
then ``fields.level_order`` and ``fields.interpret`` over its probes,
which is how a fresh run plan evaluates, compiling nothing), reducing
those values (``reduce``: the row probe's max |f| by
``suites._abs_maxima``, the matrix probes of mechanics, and the one
reduction to every row set's maximum, all into the run's one maxima
map), the compile that a second run of the plan makes (``compile``: the
first read of ``_RunPlan.program``), running the program at seed 42
(``run``: every kernel of ``Program.run``, and binding the program's
tables to its space), running it again at seed 43 (``rerun``: the
kernels alone, on tables bound already, as a model reused seed after
seed runs them from its third run on), and making the report (``report``: every plan's step, then
``CheckReport.to_json``), as ``momsec.suites.run`` and the CLI do them.
So ``first`` is what a one-shot check spends on evaluation, and
``compile`` plus ``run`` what it spent when every run compiled.
The last column, ``request``, is the minimum over N whole requests
``momsec.cli.main(["check", PATH, "--format", "json"])`` on the model
written to a file (at its own seed and point count; the report is
discarded): the cost the benchmark's fixtures workload measures, which
the layer columns can be read against.  It adds what the layers leave
out: parsing the command line, reading the file, drawing the sample and
writing the report.
One line per model gives the minimum of each over the N loads, in ms.
Before each load or request the previous model, its plans and its
program are dropped and collected, so the node table is empty: a node
of a live model would be shared with the new one and make its planning
read too fast.  Each load's layers are timed with the garbage collector
disabled, so that no collection, of the objects the load and planning
leave, falls inside one layer and not another; the requests run with it
enabled, as the CLI does.

A second table counts, while planning every applicable suite once, the
multiplications with a structural-zero operand, the ``Components.comp``
lookups that return a zero, and the scalar nodes built that no probe of
the run plan reaches (``unreached``).
"""

import contextlib
import gc
import io
import pathlib
import sys
import tempfile
import time

# the so(n) generator lives in the benchmark directory at the repo root
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

import numpy as np  # noqa: E402

from momsec import cli, fields, suites  # noqa: E402
from momsec.fixtures import fixture_bytes, fixture_names  # noqa: E402
from momsec.modelfile import load_model_bytes  # noqa: E402
from perfbench.models import son_model_bytes  # noqa: E402

SEED, POINTS = 42, 32


def models():
    for name in fixture_names():
        yield name, fixture_bytes(name)
    yield "so(3)", son_model_bytes(3, 1)
    yield "so(4)", son_model_bytes(4, 1)


def timings(raw: bytes) -> dict:
    """Seconds of each layer of one fresh load, plan, compile and run."""
    out = {}
    start = time.perf_counter()
    model = load_model_bytes(raw)
    out["load"] = time.perf_counter() - start
    plans = []
    for suite in suites.applicable_suites(model):
        start = time.perf_counter()
        plans.append(suites._Plan(*suites._SUITES[suite][0](model)))
        out[suite] = time.perf_counter() - start
    config = suites.RunConfig(tolerance=model.tolerance, points=POINTS, seed=SEED)
    ctx = suites.CheckContext(model, config, suites.applicable_suites(model))
    with np.errstate(all="ignore"):
        # the sample is one chunk, so this is what ``_RunPlan.evaluate`` and
        # ``suites.run`` do on a first run and then on a second
        start = time.perf_counter()
        run_plan = suites._RunPlan(plans, model.chart.dim)
        values = iter(fields.interpret(fields.level_order(run_plan.groups), run_plan.groups, ctx.points))
        out["first"] = time.perf_counter() - start
        start = time.perf_counter()
        ctx.maxima = run_plan.row_maxima(suites._abs_maxima(next(values)))
        ctx.maxima.update((id(p), float(p.reduce(v)[0])) for p, v in zip(run_plan.probes, values))
        out["reduce"] = time.perf_counter() - start
        start = time.perf_counter()
        program = run_plan.program
        out["compile"] = time.perf_counter() - start
        start = time.perf_counter()
        program.run(ctx.points)
        out["run"] = time.perf_counter() - start
        other = model.chart.sample(POINTS, SEED + 1)
        start = time.perf_counter()
        program.run(other)
        out["rerun"] = time.perf_counter() - start
        start = time.perf_counter()
        for plan in plans:
            plan.step(ctx)
        ctx.report.to_json()
    out["report"] = time.perf_counter() - start
    return out


def request_time(raw: bytes, rounds: int) -> float:
    """Seconds of the quickest of ``rounds`` whole check requests on the
    model ``raw``, read from a file as the CLI reads it."""
    best = None
    with tempfile.TemporaryDirectory() as tmp:
        path = str(pathlib.Path(tmp) / "model.json")
        pathlib.Path(path).write_bytes(raw)
        for _ in range(rounds):
            gc.collect()
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                cli.main(["check", path, "--format", "json"])
                seconds = time.perf_counter() - start
            best = seconds if best is None else min(best, seconds)
    return best


def planning_counts(raw: bytes) -> dict:
    """Work on structural zeros while planning every applicable suite of
    a freshly loaded model: ``zero_products``, ``zero_lookups``, and the
    scalar nodes built that no probe reaches, ``unreached`` (a list)."""
    gc.collect()
    model = load_model_bytes(raw)
    counts = {"zero_products": 0, "zero_lookups": 0}
    built = []
    mul, comp, shared = fields.ScalarField.__mul__, fields.Components.comp, fields._shared

    def counted_mul(a, b):
        counts["zero_products"] += a.is_zero or b.is_zero
        return mul(a, b)

    def counted_comp(self, idx):
        f = comp(self, idx)
        counts["zero_lookups"] += f.is_zero
        return f

    def recorded_shared(cls, *args):
        ref = fields._NODES.get((cls, *args))
        node = shared(cls, *args)
        if (ref is None or ref() is not node) and isinstance(node, fields.ScalarField):
            built.append(node)
        return node

    fields.ScalarField.__mul__, fields.Components.comp, fields._shared = counted_mul, counted_comp, recorded_shared
    try:
        plans = [suites._Plan(*suites._SUITES[s][0](model)) for s in suites.applicable_suites(model)]
    finally:
        fields.ScalarField.__mul__, fields.Components.comp, fields._shared = mul, comp, shared
    run_plan = suites._RunPlan(plans, model.chart.dim)
    reached = set()
    stack = [*run_plan.rows, *(f for p in run_plan.probes for f in p.fields)]
    while stack:
        node = stack.pop()
        if node not in reached:
            reached.add(node)
            stack.extend(node.inputs)
    counts["unreached"] = [n for n in built if n not in reached]
    return counts


def main(argv: list[str]) -> int:
    rounds = int(argv[0]) if argv else 20
    if rounds < 1:
        print("error: N must be positive", file=sys.stderr)
        return 2
    print(f"minimum of {rounds} fresh loads, ms; evaluation at seed {SEED}, {POINTS} points")
    print(
        f"{'model':28s} {'load':>6s} {'plan':>6s} {'first':>6s} {'compile':>7s} {'run':>6s} {'rerun':>6s} {'reduce':>6s} "
        f"{'report':>6s} {'request':>7s}  plan by suite"
    )
    for name, raw in models():
        best: dict = {}
        for _ in range(rounds):
            gc.collect()
            gc.disable()
            try:
                layers = timings(raw)
            finally:
                gc.enable()
            for layer, seconds in layers.items():
                best[layer] = min(best.get(layer, seconds), seconds)
        plan = [layer for layer in best if layer in suites.SUITE_NAMES]
        by_suite = " ".join(f"{layer}={1e3 * best[layer]:.3f}" for layer in plan)
        request = request_time(raw, rounds)
        print(
            f"{name:28s} {1e3 * best['load']:6.3f} {1e3 * sum(best[s] for s in plan):6.3f} {1e3 * best['first']:6.3f} "
            f"{1e3 * best['compile']:7.3f} {1e3 * best['run']:6.3f} {1e3 * best['rerun']:6.3f} {1e3 * best['reduce']:6.3f} "
            f"{1e3 * best['report']:6.3f} {1e3 * request:7.3f}  {by_suite}"
        )
    print()
    print(f"{'model':28s} {'zero products':>13s} {'zero lookups':>12s} {'unreached':>9s}")
    for name, raw in models():
        c = planning_counts(raw)
        print(f"{name:28s} {c['zero_products']:13d} {c['zero_lookups']:12d} {len(c['unreached']):9d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
