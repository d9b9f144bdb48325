"""Host-calibrated timing: wall time corrected for how fast the host ran.

The benchmark shares a few cores of a busy host.  On the 2-vCPU Xeon
host it was tuned on, the same request ran up to 1.9 times slower in some
stretches than in others, with CPU time tracking wall time, and a whole
25 s run could fall in a slow stretch: medians of wall time moved by
0.2 to 0.5 of their size between runs of the same code.

A ``Sampler`` thread runs a fixed pure-Python reference chunk every
``PERIOD_S`` seconds while the child works, and records when each chunk
started and how long it took.  The chunk is benchmark code, so it costs
the same on every commit of the program; its time says only how fast
the host ran at that moment.  A wall time ``t`` is reported as

    t * REF_S / r

where ``r`` is the mean time of the chunks taken during ``t`` (and of
the one just before and the one just after it), and ``REF_S`` is the
chunk's time on that host when it ran fastest.  On a quiet host the
calibrated time reads as wall seconds; on a busy one it removes most of
the slow-down the program and the chunk share.  A slower program still
reads as slower: the chunk's work does not depend on it.  The chunk
allocates no object the garbage collector tracks, so it never triggers
a collection of the program's heap.  In alternating 4 s stretches it
took the same time beside fixture requests as beside so(4) requests
with a much larger heap, and about 8% longer beside an idle main
thread; the closed loop keeps the main thread busy.

While a chunk runs the main thread waits for the GIL: the sampler adds
about 0.5 ms of work every 20 ms, 2-3% of the child's time, the same on
every commit.

Set-up (imports, C-extension loading, model parsing) follows the host
less closely than requests do.  Over two batches of 40 fresh set-up
children on that host, the log of set-up wall time against the log of
the chunk time had a slope of 0.51 and 0.57 (correlation 0.98 and
0.93), so ``setup_seconds`` scales by the square root of
``REF_S / r``.  Scaled fully, set-up read up to 1.5 times lower on a
busy host than on a quiet one; left as wall time, up to 1.9 times
higher.
"""

from __future__ import annotations

import bisect
import math
import statistics
import threading
import time

PERIOD_S = 0.02
# the chunk's time when the tuning host ran fastest (it ranged 0.26-0.60 ms)
REF_S = 0.0003
_TABLE = dict.fromkeys(range(1024), 0.0)


def chunk() -> float:
    """The reference work: dict updates, float arithmetic, str conversion."""
    table, s = _TABLE, 0.0
    for i in range(1000):
        k = (i * 7919) & 1023
        table[k] = table.get(k) * 0.5 + i
        s += len(str(i))
    return s


class Sampler:
    """Times ``chunk`` every ``PERIOD_S`` seconds on a daemon thread."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="perfbench-sampler", daemon=True)

    def start(self) -> Sampler:
        self._thread.start()
        return self

    def stop(self) -> list[tuple[float, float]]:
        self._stop.set()
        self._thread.join()
        if not self.samples:  # stopped within one period: take one chunk now
            self._sample()
        return self.samples

    def _run(self):
        while not self._stop.wait(PERIOD_S):
            self._sample()

    def _sample(self):
        t0 = time.perf_counter()
        chunk()
        self.samples.append((t0, time.perf_counter() - t0))


class Calibration:
    """Chunk times of one child, looked up by the interval they cover."""

    def __init__(self, samples):
        self.starts = [t for t, _ in samples]
        self.times = [d for _, d in samples]

    def ref(self, t0: float, t1: float) -> float:
        """Mean chunk time over [t0, t1], with the nearest chunk on each side."""
        lo = max(bisect.bisect_left(self.starts, t0) - 1, 0)
        hi = bisect.bisect_right(self.starts, t1) + 1
        return statistics.fmean(self.times[lo:hi])

    def seconds(self, t0: float, t1: float) -> float:
        """The calibrated duration of the wall interval [t0, t1]."""
        return (t1 - t0) * REF_S / self.ref(t0, t1)

    def setup_seconds(self, t0: float, t1: float) -> float:
        """The calibrated duration of a set-up that took [t0, t1]."""
        return (t1 - t0) * math.sqrt(REF_S / self.ref(t0, t1))
