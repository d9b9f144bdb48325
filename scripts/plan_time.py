#!/usr/bin/env python3
"""Print the planning time of each model, layer by layer, and the work
planning spends on structural zeros.

Usage: python scripts/plan_time.py [N]    (default: 20)

The models are the built-in examples, then ``son_model_bytes(3, 1)`` and
``son_model_bytes(4, 1)`` (``perfbench/models.py``).  Each model is
loaded N times, fresh; each time the script times loading it, each
applicable suite's planner (with its ``_Plan``), making the run plan
and compiling its program (``compile``), running the program at sampling
seed 42 and 32 points (``run``: every kernel of ``Program.run``, and
binding the program's tables to its space on this first run), reducing
its root groups (``reduce``: the row probe's gather and its max |f| by
``suites._abs_maxima``, the matrix probes of mechanics, and the one
reduction to every row set's maximum, all into the run's one maxima
map), running the same program again at seed 43 (``rerun``: the
kernels alone, on tables bound already, as a model reused seed after
seed runs them), and making the report (``report``: every plan's step,
then ``CheckReport.to_json``), as ``momsec.suites.run`` and the CLI do
them.
One line per model gives the minimum of each over the N loads, in ms.
Before each load the previous model, its plans and its program are
dropped and collected, so the node table is empty: a node of a live
model would be shared with the new one and make its planning read too
fast.

A second table counts, while planning every applicable suite once, the
multiplications with a structural-zero operand, the ``Components.comp``
lookups that return a zero, and the scalar nodes built that no probe of
the run plan reaches (``unreached``).
"""

import gc
import pathlib
import sys
import time

# the so(n) generator lives in the benchmark directory at the repo root
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

import numpy as np  # noqa: E402

from momsec import fields, suites  # noqa: E402
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
    start = time.perf_counter()
    run_plan = suites._RunPlan(plans, model.chart.dim)
    out["compile"] = time.perf_counter() - start
    config = suites.RunConfig(tolerance=model.tolerance, points=POINTS, seed=SEED)
    ctx = suites.CheckContext(model, config, suites.applicable_suites(model))
    start = time.perf_counter()
    with np.errstate(all="ignore"):
        # the sample is one chunk, so this is what ``_RunPlan.evaluate`` and
        # ``suites.run`` do
        values = run_plan.program.run(ctx.points)
        out["run"] = time.perf_counter() - start
        start = time.perf_counter()
        ctx.maxima = run_plan.row_maxima(suites._abs_maxima(next(values)))
        ctx.maxima.update((id(p), float(p.reduce(v)[0])) for p, v in zip(run_plan.probes, values))
        out["reduce"] = time.perf_counter() - start
        other = model.chart.sample(POINTS, SEED + 1)
        start = time.perf_counter()
        run_plan.program.run(other)
        out["rerun"] = time.perf_counter() - start
        start = time.perf_counter()
        for plan in plans:
            plan.step(ctx)
        ctx.report.to_json()
    out["report"] = time.perf_counter() - start
    return out


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
        f"{'model':28s} {'load':>6s} {'plan':>6s} {'compile':>7s} {'run':>6s} {'rerun':>6s} {'reduce':>6s} "
        f"{'report':>6s}  plan by suite"
    )
    for name, raw in models():
        best: dict = {}
        for _ in range(rounds):
            gc.collect()
            for layer, seconds in timings(raw).items():
                best[layer] = min(best.get(layer, seconds), seconds)
        plan = [layer for layer in best if layer in suites.SUITE_NAMES]
        by_suite = " ".join(f"{layer}={1e3 * best[layer]:.3f}" for layer in plan)
        print(
            f"{name:28s} {1e3 * best['load']:6.3f} {1e3 * sum(best[s] for s in plan):6.3f} "
            f"{1e3 * best['compile']:7.3f} {1e3 * best['run']:6.3f} {1e3 * best['rerun']:6.3f} {1e3 * best['reduce']:6.3f} "
            f"{1e3 * best['report']:6.3f}  {by_suite}"
        )
    print()
    print(f"{'model':28s} {'zero products':>13s} {'zero lookups':>12s} {'unreached':>9s}")
    for name, raw in models():
        c = planning_counts(raw)
        print(f"{name:28s} {c['zero_products']:13d} {c['zero_lookups']:12d} {len(c['unreached']):9d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
