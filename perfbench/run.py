"""The momsec benchmark: one command, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The program is imported from
``src/``; nothing is installed.  Each workload runs in fresh child
processes, one at a time, as a closed loop with a single client: a
request starts when the previous one has ended.

Workloads (why each was chosen):

- ``fixtures``: the six built-in examples through ``momsec.cli.main``
  (``check PATH --format json --seed S``), each at its own 32 points.
  Small models, so the fixed cost of a request (CLI, load, graph build,
  render) dominates over per-point evaluation.
- ``seed-sweep``: an so(3) action model on R^3 loaded once and reused,
  ``suites.run(model, "all", RunConfig(points=32, seed=s))`` plus
  ``to_json()`` on consecutive seeds.  Library use: the per-node memos
  keep every seed's points, so memory grows with the requests served.
  The middle and the last request are replayed on a fresh model, and
  their reports must match the reused model's byte for byte.

There is no so(4) workload.  At 256 points one so(4) request took
21-36 s on a 2-vCPU Xeon host, so a run held one request; at 64 points
(4-5 requests in a 25 s run) its host-calibrated latency spread by 0.06
in one set of ten runs of the same code and 0.17 in another, against a
bound of 0.25; the two remaining workloads get longer runs instead.
``models.son_model_bytes(4, seed)`` still generates the model.

End-to-end metrics (``--trace 0``): ``setup_s``, the median over 19
fresh children (nine before the loop child, the loop child, nine after)
of importing ``momsec`` and loading the workload's models;
``request_s.p50``; ``residuals_per_s``, the residual values the reports
state (sum over rows of n_tuples * n_points) per second of request time;
``peak_rss_mb``, ``ru_maxrss`` of the loop child read right after a fixed
request count (24 on fixtures, every triple once; 40 on seed-sweep), so
that a faster program, serving more requests in the window, does not
read as using more memory.  The loop runs on past the window until that
count is reached.  ``request_s.p90``
(only where ten samples lie beyond it) and ``failed_ratio`` are printed
too; they are not gated metrics, because p90 never has enough samples on
seed-sweep and failed_ratio is 0 on a correct program.

``setup_s``, ``request_s.p50`` and ``residuals_per_s`` are host-calibrated
(``calibration.py``): each request's wall time is scaled by the time of
a fixed reference chunk that a sampler thread runs alongside it.  The
host this was tuned on (2 vCPUs of a shared Xeon) ran up to 1.9 times
slower in some stretches than in others.  Over five 25 s runs per
workload, medians of raw request wall time spread by 0.24 to 0.43 of
their size (IQR over median); over ten 40 s runs per workload, the
calibrated metrics spread by 0.05 to 0.06.  The raw wall-clock figures
are printed beside them.  ``setup_s`` is
calibrated too, by the square root of the same ratio, because set-up
slows only about half as much as the chunk (see ``calibration.py``).

Per-layer metrics (``--trace 1``) run every suite alone on freshly
loaded models with the tracer installed (see ``tracing.py``), in passes
for the run's seconds, and report medians over passes; ``<s>`` is each
suite.  What each should move:

- ``cli.import_s`` -> ``setup_s`` everywhere, not ``request_s``;
- ``modelfile.load_s``, ``modelfile.exprs_parsed`` -> ``request_s.p50`` on
  fixtures and ``setup_s`` on seed-sweep;
- ``suites.<s>.s`` (``suites.run(model, <s>)``) -> ``request_s.p50``;
- ``fields.<s>.eval_s`` (outermost ``ScalarField.jet`` calls) ->
  ``request_s.p50`` and ``residuals_per_s`` on seed-sweep more than on fixtures;
- ``suites.<s>.build_s`` = ``suites.<s>.s`` - ``fields.<s>.eval_s``, graph
  build and wiring -> ``request_s.p50`` on fixtures;
- ``fields.<s>.jet_calls``, ``fields.<s>.nodes_built``,
  ``expressions.<s>.eval_jet_calls``: exact counts that batched jets and
  hash-consing should lower on both workloads;
- ``fields.<s>.jet_calls_per_residual``: the wasted-work ratio that
  deduplication lowers;
- ``suites.<s>.peak_rss_mb``, each suite alone in a fresh untraced child
  -> ``peak_rss_mb`` on seed-sweep;
- ``reporting.render_s`` (``to_json`` + ``to_text``) -> ``request_s.p50`` on
  fixtures;
- ``trace.overhead_s``: the traced suite times minus the same suites
  timed untraced in those fresh children, summed over suites.

The last line of
standard output is one JSON object; the lines before it name every
metric with its unit, and record the host.  Every report is checked by
``oracle.py``; a request that raises or fails a check counts as failed
and never aborts the run.  The exit code is 0 whenever a result is
printed, and 2 when no result can be produced (for instance without
``src/momsec``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import models
import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SUITE_NAMES = ("axioms", "momentum", "mechanics", "sigma2d", "multisym")
# set-up children per run, half before the loop child and half after it
SETUP_CHILDREN = 18
# seed-sweep reads its peak memory after this many requests
SWEEP_RSS_AFTER = 40
# every run, its set-up children included, must end well within 180 s
RUN_BUDGET_S = 170.0


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def expected_suites(doc: dict) -> list[str]:
    """The suites ``check --suite all`` runs, per docs/model_format.md."""
    out = ["axioms", "momentum"]
    if "metric" in doc:
        out += ["mechanics", "sigma2d"]
    if "multisym" in doc:
        out.append("multisym")
    return out


def model_entry(name: str, raw: bytes, points: int) -> dict:
    path = WORK / f"{name}.json"
    path.write_bytes(raw)
    doc = json.loads(raw)
    return {"name": name, "path": str(path), "points": points, "suites": expected_suites(doc)}


def plan_fixtures(seed: int) -> dict:
    from momsec.fixtures import fixture_bytes, fixture_names

    models = [model_entry(n, fixture_bytes(n), 32) for n in fixture_names()]
    # four sampling seeds per fixture, cycling, so every triple recurs; the
    # memory is read once each triple has run
    return {"models": models, "request": "cli", "seed_cycle": 4, "replay_fresh": False,
            "rss_after": 4 * len(models)}


def plan_seed_sweep(seed: int) -> dict:
    # consecutive seeds never recur in the loop (a recurrence would hit the
    # memos); the middle and the last request are replayed on a fresh model
    # after it instead, so a report spoiled by the reused memos shows
    return {"models": [model_entry("so3", models.son_model_bytes(3, seed), 32)], "request": "reuse",
            "seed_cycle": 0, "replay_fresh": True, "rss_after": SWEEP_RSS_AFTER}


WORKLOADS = {"fixtures": plan_fixtures, "seed-sweep": plan_seed_sweep}


class Children:
    """Runs child processes one at a time within the run's time budget."""

    def __init__(self, deadline: float):
        self.deadline = deadline

    def run(self, mode: str, plan: dict) -> dict:
        path = WORK / f"plan-{mode}.json"
        path.write_text(json.dumps(plan))
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"no time left for the {mode} child")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), mode, str(path)],
                cwd=ROOT, capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} child exceeded the run budget") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{mode} child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return json.loads(lines[-1])


def check_request(rec: dict, plan: dict, raws: dict, recur: oracle.RecurrenceCheck) -> tuple[list[str], int]:
    """Problems with one logged request, and the residual values it certified."""
    if rec["error"]:
        return [rec["error"]], 0
    report = json.loads(rec["report"])
    m = next(m for m in plan["models"] if m["name"] == rec["model"])
    problems = oracle.check_report(report, m["name"], raws[m["name"]], rec["seed"], m["points"], m["suites"])
    if rec["exit"] is not None:
        problems += oracle.check_exit_code(report, rec["exit"])
    key = (m["name"], rec["seed"], m["points"])
    problems += recur.check(key, rec["report"])
    return problems, oracle.residual_values(report)


def quantile_line(latencies: list[float]) -> str:
    """p90 where at least ten samples lie beyond it."""
    p90 = statistics.quantiles(latencies, n=10)[-1] if len(latencies) >= 2 else latencies[0]
    beyond = sum(1 for x in latencies if x > p90)
    if beyond < 10:
        return f"request_s.p90     n/a        s      (n={len(latencies)}, {beyond} beyond; needs 10)"
    return f"request_s.p90     {p90:<10.6g} s      (n={len(latencies)}, {beyond} beyond)"


def timed(plan: dict, children: Children, seconds: int) -> tuple[dict, dict, list[str]]:
    # untimed warm-up: byte-compiles src/ and fills the file cache
    threads = children.run("setup", plan)["threads_after_import"]
    setups = [children.run("setup", plan) for _ in range(SETUP_CHILDREN // 2)]
    plan = dict(plan, seconds=seconds, requests=str(WORK / "requests.jsonl"))
    loop = children.run("loop", plan)
    setups.append(loop)
    setups += [children.run("setup", plan) for _ in range(SETUP_CHILDREN - SETUP_CHILDREN // 2)]

    raws = {m["name"]: Path(m["path"]).read_bytes() for m in plan["models"]}
    recur = oracle.RecurrenceCheck()
    cal = calibration.Calibration(loop["samples"])
    latencies, walls, residuals, failed, attempted, notes = [], [], 0, 0, 0, []
    with open(plan["requests"]) as log:
        for line in log:
            rec = json.loads(line)
            problems, values = check_request(rec, plan, raws, recur)
            attempted += 1
            if not rec["replay"]:
                latencies.append(cal.seconds(rec["t0"], rec["t1"]))
                walls.append(rec["t1"] - rec["t0"])
                residuals += 0 if problems else values
            if problems:
                failed += 1
                notes.append(f"request {rec['i']} ({rec['model']}, seed {rec['seed']}): {'; '.join(problems)}")
    if len(latencies) != loop["requests"]:
        raise BenchError(f"child served {loop['requests']} requests but logged {attempted}")
    metrics = {
        "setup_s": (statistics.median(c["setup_s"] for c in setups), "s"),
        "request_s.p50": (statistics.median(latencies), "s"),
        "residuals_per_s": (residuals / sum(latencies), "1/s"),
        "peak_rss_mb": (loop["peak_rss_mb"], "MB"),
    }
    chunks = statistics.median(cal.times)
    lines = [
        f"setup_s           {metrics['setup_s'][0]:<10.6g} s      (median of {len(setups)} fresh children;"
        f" wall {statistics.median(c['setup_wall_s'] for c in setups):.6g} s)",
        f"request_s.p50     {metrics['request_s.p50'][0]:<10.6g} s      (n={len(latencies)};"
        f" wall {statistics.median(walls):.6g} s)",
        quantile_line(latencies),
        f"residuals_per_s   {metrics['residuals_per_s'][0]:<10.6g} 1/s    ({residuals} values in"
        f" {sum(latencies):.3f} calibrated s; wall {residuals / loop['wall_s']:.6g} 1/s)",
        f"peak_rss_mb       {metrics['peak_rss_mb'][0]:<10.6g} MB     "
        f"(ru_maxrss of the loop child after request {plan['rss_after']})",
        f"failed_ratio      {failed / attempted:<10.6g} 1      ({failed}/{attempted};"
        f" {recur.recurrences} recurring triples byte-checked)",
        f"calibration       {chunks * 1e3:<10.4g} ms     (median of {len(cal.times)} reference chunks;"
        f" times above are scaled by {calibration.REF_S * 1e3:g} ms / chunk, set-up by its square root)",
    ]
    outcome = {"attempted": attempted, "failed": failed, "notes": notes, "threads": threads}
    return metrics, outcome, lines


def traced(plan: dict, children: Children, seconds: int, seed_tag: str) -> tuple[dict, dict, list[str]]:
    spans = WORK / f"spans-{seed_tag}.json"
    trace = children.run("trace", dict(plan, seconds=seconds, spans=str(spans)))
    passes = trace["passes"]
    notes = []
    raws = {m["name"]: Path(m["path"]).read_bytes() for m in plan["models"]}
    points = {m["name"]: m["points"] for m in plan["models"]}
    reports = list(trace["reports"])
    alone = {}
    for suite in SUITE_NAMES:
        # each suite alone in a fresh, untraced child, for its peak memory and time
        alone[suite] = children.run("suite", dict(plan, suite=suite, seconds=seconds / 10))
        reports += [dict(r, suite=suite) for r in alone[suite]["reports"]]

    failed = 0
    for r in reports:
        problems = oracle.check_report(json.loads(r["report"]), r["model"], raws[r["model"]], r["seed"],
                                       points[r["model"]], [r["suite"]])
        if problems:
            failed += 1
            notes.append(f"{r['model']} {r['suite']}: {'; '.join(problems)}")
    first = passes[0]

    def exact(p):
        return p["exprs_parsed"], p["digests"], [p[s]["counts"] for s in SUITE_NAMES]

    for k, p in enumerate(passes[1:], 1):
        # counts and report bytes are deterministic: every pass must repeat the first
        if exact(p) != exact(first):
            failed += 1
            notes.append(f"traced pass {k} differs from the first in its counts or report bytes")

    def med(get):
        return statistics.median(get(p) for p in passes)

    metrics = {
        "cli.import_s": (trace["import_s"], "s"),
        "modelfile.load_s": (med(lambda p: p["load_s"]), "s"),
        "modelfile.exprs_parsed": (first["exprs_parsed"], "count"),
        "reporting.render_s": (med(lambda p: p["render_s"]), "s"),
    }
    overhead = 0.0
    for s in SUITE_NAMES:
        suite_s = med(lambda p: p[s]["s"])
        eval_s = med(lambda p: p[s]["eval_s"])
        overhead += suite_s - alone[s]["suite_s"]
        metrics[f"suites.{s}.s"] = (suite_s, "s")
        metrics[f"suites.{s}.build_s"] = (med(lambda p: p[s]["s"] - p[s]["eval_s"]), "s")
        metrics[f"fields.{s}.eval_s"] = (eval_s, "s")
        counts = first[s]["counts"]
        metrics[f"fields.{s}.jet_calls"] = (counts["jet_calls"], "count")
        metrics[f"fields.{s}.nodes_built"] = (counts["nodes_built"], "count")
        metrics[f"expressions.{s}.eval_jet_calls"] = (counts["eval_jet_calls"], "count")
        metrics[f"fields.{s}.jet_calls_per_residual"] = (counts["jet_calls"] / max(counts["residuals"], 1), "1")
        metrics[f"suites.{s}.peak_rss_mb"] = (alone[s]["peak_rss_mb"], "MB")
    metrics["trace.overhead_s"] = (overhead, "s")
    attempted = len(reports) + sum(len(p["digests"]) for p in passes[1:])
    lines = [f"{name:<40} {value:<12.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(f"traced passes {len(passes)}; spans in {spans.relative_to(ROOT)}")
    outcome = {"attempted": attempted, "failed": failed, "notes": notes, "threads": trace["threads_after_import"]}
    return metrics, outcome, lines


def host_record() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src" / "momsec").glob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "src_momsec_lines": src_lines,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be non-negative and --seconds within 1..60")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S
    if not (ROOT / "src" / "momsec" / "__init__.py").is_file():
        print(f"error: no momsec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        plan = WORKLOADS[args.workload](args.seed)
        # the benchmark seed chooses the sampling seeds
        plan["seed"] = random.Random(args.seed).randrange(1, 2**31)
        children = Children(deadline)
        tag = f"{args.workload}-{args.seed}"
        if args.trace:
            metrics, outcome, lines = traced(plan, children, args.seconds, tag)
        else:
            metrics, outcome, lines = timed(plan, children, args.seconds)
    except (BenchError, models.GeneratorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"closed loop, 1 client, {args.seconds} s")
    for line in lines:
        print("  " + line)
    for note in outcome["notes"][:20]:
        print("  FAILED " + note)
    host = dict(host_record(), threads_after_import=outcome["threads"])
    print("host " + json.dumps(host, sort_keys=True))
    (WORK / f"host-{tag}.json").write_text(json.dumps(host, sort_keys=True, indent=2) + "\n")
    result = {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
