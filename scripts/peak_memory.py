#!/usr/bin/env python3
"""Print wall time and peak RSS of one full run of the so(4) stress model.

Usage: python scripts/peak_memory.py [POINTS ...]    (default: 1024)

For each point count, a fresh Python process loads
``perfbench.models.son_model_bytes(4, 1)`` (so(4) acting on R^4, rank 6,
with every model block), runs all suites at sampling seed 42 and prints
one line: the point count, the wall time of load plus run, the
process's ``ru_maxrss`` in MB, the size of the program of the run's
run plan (its slots, the rows of its one value table, and the kernels it
runs per chunk; the run, a first one, interprets the plan, and the
program is compiled when it is read, after the timing and the peak) and
the SHA-256 of the run's JSON report, rendered after the timing.  A fresh
process per count keeps one count's peak from hiding the next one's;
the digests show whether two versions of the code report the same bytes
at counts that span many chunks, and the sizes whether the program
grew.  ``scripts/peak_memory.expected`` pins both at 1024 and 4096
points, one ``POINTS SLOTS KERNELS DIGEST`` line each,
and CI compares them.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

CHILD = """
import hashlib, resource, sys, time
sys.path[:0] = [sys.argv[2], sys.argv[3]]
from momsec.modelfile import load_model_bytes
from momsec.suites import RunConfig, applicable_suites, run
from perfbench.models import son_model_bytes

points = int(sys.argv[1])
raw = son_model_bytes(4, 1)
start = time.perf_counter()
model = load_model_bytes(raw)
report = run(model, "all", RunConfig(tolerance=model.tolerance, points=points, seed=42))
wall = time.perf_counter() - start
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
program = model._plans[tuple(applicable_suites(model))].program
digest = hashlib.sha256(report.to_json().encode()).hexdigest()
print(
    f"so(4) points={points:<6d} wall={wall:.2f} s  peak_rss={rss:.1f} MB  "
    f"slots={program.slots} kernels={len(program._kernels)} report={digest}"
)
"""


def main(argv: list[str]) -> int:
    counts = [int(a) for a in argv] or [1024]
    if any(n < 1 for n in counts):
        print("error: point counts must be positive", file=sys.stderr)
        return 2
    for n in counts:
        subprocess.run([sys.executable, "-c", CHILD, str(n), str(ROOT / "src"), str(ROOT)], check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
