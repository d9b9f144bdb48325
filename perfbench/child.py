"""One benchmark child process: ``python3 perfbench/child.py MODE PLAN.json``.

Modes:

- ``setup``: import ``momsec`` and load the workload's models, then exit;
- ``loop``: set up, then run the workload's requests as a closed loop
  with one client for the plan's seconds, in whole passes over the
  models, and for at least the plan's ``rss_after`` requests, after which
  it reads the peak memory; it writes
  each request and its report to the plan's ``requests`` file;
- ``trace``: install the tracer, then run every suite alone on freshly
  loaded models, in passes, for the plan's seconds;
- ``suite``: set up, then run the plan's one suite alone, untraced, for
  its peak memory and time.

The ``setup`` and ``loop`` children run a ``calibration.Sampler`` from
before their set-up to their end, and report host-calibrated times (see
``calibration.py``).  The child prints one JSON line with its
measurements.  It imports ``momsec`` from the checkout's ``src`` and
nothing from ``tests``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

from calibration import Calibration, Sampler

ROOT = Path(__file__).resolve().parent.parent


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def thread_count() -> int | None:
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def import_momsec():
    sys.path.insert(0, str(ROOT / "src"))
    import momsec.cli

    if not Path(momsec.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"momsec imported from {momsec.cli.__file__}, not from {ROOT / 'src'}")


def setup(plan) -> tuple[list[bytes], dict, tuple[float, float]]:
    """Import momsec and load each model once; returns raws, models, (start, end)."""
    start = time.perf_counter()
    import_momsec()
    from momsec import modelfile

    raws = [Path(m["path"]).read_bytes() for m in plan["models"]]
    models = {m["name"]: modelfile.load_model_bytes(raw) for m, raw in zip(plan["models"], raws)}
    return raws, models, (start, time.perf_counter())


def request_args(plan, i: int):
    """Model entry and sampling seed of request ``i``: models in turn, seeds cycling."""
    models = plan["models"]
    m = models[i % len(models)]
    turn = i // len(models)
    cycle = plan["seed_cycle"]
    return m, plan["seed"] + (turn % cycle if cycle else turn)


def config(model, m, seed: int):
    from momsec.suites import RunConfig

    return RunConfig(tolerance=model.tolerance, points=m["points"], seed=seed)


def make_request(plan, raws, models):
    """The callable that serves one request; returns (report JSON, exit code)."""
    from momsec import cli, modelfile, suites

    kind = plan["request"]
    raw_of = {m["name"]: raw for m, raw in zip(plan["models"], raws)}

    def via_cli(m, seed):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["check", m["path"], "--format", "json", "--seed", str(seed)])
        if not out.getvalue():
            raise RuntimeError(f"exit code {code} without a report: {err.getvalue().strip()}")
        return out.getvalue(), code

    def fresh(m, seed):
        model = modelfile.load_model_bytes(raw_of[m["name"]])
        return suites.run(model, "all", config(model, m, seed)).to_json(), None

    def reuse(m, seed):
        model = models[m["name"]]
        return suites.run(model, "all", config(model, m, seed)).to_json(), None

    return {"cli": via_cli, "reuse": reuse}[kind], fresh


def run_loop(plan) -> dict:
    sampler = Sampler().start()
    raws, models, setup_span = setup(plan)
    serve, serve_fresh = make_request(plan, raws, models)
    n = 0
    with open(plan["requests"], "w") as log:

        def record(i, m, seed, fn, replay=False):
            error = None
            text, code = None, None
            t0 = time.perf_counter()
            try:
                text, code = fn(m, seed)
            except Exception as exc:  # a failed request is counted, never fatal
                error = f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            log.write(json.dumps({
                "i": i, "model": m["name"], "seed": seed, "points": m["points"],
                "t0": t0, "t1": t1, "exit": code, "error": error, "report": text,
                "replay": replay,
            }) + "\n")
            return t1 - t0

        rss = None
        start = time.perf_counter()
        while True:
            m, seed = request_args(plan, n)
            latency = record(n, m, seed, serve)
            n += 1
            if n == plan["rss_after"]:
                # peak memory after a fixed amount of work, whatever the speed
                rss = peak_rss_mb()
            # stop when a request as long as the last one would end past the
            # window, not before the memory reading, and only after a whole
            # pass over the models: the median of a mix of models then sits
            # at the same place in the mix on every run
            if (n >= plan["rss_after"] and n % len(plan["models"]) == 0
                    and time.perf_counter() - start + latency > plan["seconds"]):
                break
        wall = time.perf_counter() - start
        if plan["replay_fresh"]:
            # untimed: the middle and the last request again, on a freshly
            # loaded model, to compare with the reused model's reports
            for i in sorted({n // 2, n - 1}):
                m, seed = request_args(plan, i)
                record(i, m, seed, serve_fresh, replay=True)
    samples = sampler.stop()
    return {"setup_s": Calibration(samples).setup_seconds(*setup_span), "setup_wall_s": setup_span[1] - setup_span[0],
            "wall_s": wall, "requests": n, "peak_rss_mb": rss, "samples": samples}


def suite_runs(plan, suite: str, raws):
    """(model entry, raw) pairs whose model runs ``suite``."""
    return [(m, raw) for m, raw in zip(plan["models"], raws) if suite in m["suites"]]


def run_suite(plan) -> dict:
    raws, _, _ = setup(plan)
    from momsec import modelfile, suites

    suite = plan["suite"]
    times, reports = [], []
    start = time.perf_counter()
    while True:
        total = 0.0
        for m, raw in suite_runs(plan, suite, raws):
            model = modelfile.load_model_bytes(raw)
            t0 = time.perf_counter()
            report = suites.run(model, suite, config(model, m, plan["seed"]))
            total += time.perf_counter() - t0
            if not times:
                reports.append({"model": m["name"], "seed": plan["seed"], "report": report.to_json()})
        times.append(total)
        if time.perf_counter() - start >= plan["seconds"]:
            break
    return {"suite_s": statistics.median(times), "passes": len(times),
            "peak_rss_mb": peak_rss_mb(), "reports": reports}


def run_trace(plan) -> dict:
    t0 = time.perf_counter()
    import_momsec()
    import_s = time.perf_counter() - t0
    threads = thread_count()

    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    from momsec import modelfile, suites

    raws = [Path(m["path"]).read_bytes() for m in plan["models"]]
    passes, reports = [], []
    start = time.perf_counter()
    while True:
        k = len(passes)
        tracer.request = f"pass{k}/load"
        with tracer.span("load") as load:
            for raw in raws:
                modelfile.load_model_bytes(raw)
        row = {"load_s": load.duration, "exprs_parsed": load.counts["exprs_parsed"], "render_s": 0.0, "digests": []}
        for suite in suites.SUITE_NAMES:
            # counts are exact and must repeat in every pass; times are not
            counts = dict.fromkeys(("jet_calls", "nodes_built", "eval_jet_calls", "residuals"), 0)
            acc = {"s": 0.0, "eval_s": 0.0, "counts": counts}
            for m, raw in suite_runs(plan, suite, raws):
                tracer.request = f"pass{k}/{suite}/{m['name']}"
                with tracer.span("request") as request:
                    model = modelfile.load_model_bytes(raw)
                    report = suites.run(model, suite, config(model, m, plan["seed"]))
                    text = report.to_json()
                    report.to_text()
                spans = tracer.children(request)
                run = spans["suites.run"]
                acc["s"] += run.duration
                acc["eval_s"] += run.counts["eval_s"]
                for key in ("jet_calls", "nodes_built", "eval_jet_calls"):
                    counts[key] += run.counts[key]
                counts["residuals"] += sum(c.n_tuples * c.n_points for c in report.checks)
                row["render_s"] += spans["reporting.to_json"].duration + spans["reporting.to_text"].duration
                row["digests"].append(hash(text))
                if k == 0:
                    reports.append({"model": m["name"], "suite": suite, "seed": plan["seed"], "report": text})
            row[suite] = acc
        passes.append(row)
        if time.perf_counter() - start >= plan["seconds"]:
            break
    tracer.write(plan["spans"])
    return {"import_s": import_s, "threads_after_import": threads, "passes": passes,
            "reports": reports, "peak_rss_mb": peak_rss_mb()}


def run_setup(plan) -> dict:
    sampler = Sampler().start()
    _, _, (t0, t1) = setup(plan)
    cal = Calibration(sampler.stop())
    # counted once the sampler thread has ended, so it is not among them
    return {"setup_s": cal.setup_seconds(t0, t1), "setup_wall_s": t1 - t0, "threads_after_import": thread_count()}


def main(argv) -> int:
    mode, plan_path = argv
    plan = json.loads(Path(plan_path).read_text())
    run = {"setup": run_setup, "loop": run_loop, "suite": run_suite, "trace": run_trace}[mode]
    print(json.dumps(run(plan)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
