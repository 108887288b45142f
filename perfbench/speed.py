"""Scaling measured durations to a reference machine speed.

The benchmark runs on shared machines whose CPU speed drifts.  On the
2-vCPU machine where the bounds were set, a fixed pure-Python loop took
7 ms in one 15-second window and 11 ms in a later one, and the same seed
of a workload read 268 and 383 solves per second in two runs.  A drift that
large hides any change smaller than itself.

So the benchmark times a fixed probe between requests, every
``PROBE_INTERVAL_S`` seconds, and multiplies each measured duration by
``REFERENCE_S`` over the median probe time of the ``WINDOW`` probes nearest
to it.  The probe is pure Python, like the solvers' loops, and does not
touch the package, so no change to the package can move it.  The raw
durations are printed next to the scaled ones.
"""

from __future__ import annotations

import bisect
import statistics
import time

REFERENCE_S = 0.6e-3    # probe time of the reference speed
PROBE_INTERVAL_S = 0.2
WINDOW = 9


def probe_work() -> int:
    table = {}
    acc = 0
    for i in range(4000):
        k = i & 63
        acc += table.get(k, 0)
        table[k] = (acc ^ i) & 0xFFFF
    return acc


class SpeedProbe:
    """Probe samples over a run, and the scale factor at any moment of it."""

    def __init__(self):
        self.starts = []
        self.durations = []
        self._last = float("-inf")

    def probe(self):
        t0 = time.perf_counter()
        probe_work()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.durations.append(t1 - t0)
        self._last = t1

    def burst(self):
        """A full window of probes, to bracket a stretch of work."""
        for _ in range(WINDOW):
            self.probe()

    def tick(self):
        """Probe when the interval since the last probe has passed."""
        if time.perf_counter() - self._last >= PROBE_INTERVAL_S:
            self.probe()

    def scale(self, t: float) -> float:
        """Factor turning a duration that started at time t into reference
        seconds: above 1 when the machine ran faster than the reference."""
        j = bisect.bisect(self.starts, t)
        lo = max(0, min(j - WINDOW // 2, len(self.starts) - WINDOW))
        return REFERENCE_S / statistics.median(self.durations[lo:lo + WINDOW])
