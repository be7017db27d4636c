"""Machine-speed calibration for the end-to-end timings.

On a shared 2-core host the speed of this process drifts by tens of percent
over seconds (other tenants, hyperthread siblings), far more than the
bounds the benchmark sets.  A fixed computation that never calls ordsim,
timed next to the ops, slows down with them: each op's wall time is scaled
by ``NOMINAL_NS / calibration time``, which cuts the spread of one-second
throughput samples about fourfold on that host.  Calibrated times read as
milliseconds on a machine where the calibration takes ``NOMINAL_NS``; the
raw ones are printed beside them.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_NS = 130_000


class Calibration:
    """Python calls, small and d=768 numpy kernels and float parsing, like the ops."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.small = [rng.standard_normal(16) for _ in range(16)]
        self.values = rng.standard_normal(64).tolist()
        self.x, self.y = rng.standard_normal(768), rng.standard_normal(768)
        self.text = ",".join(repr(v) for v in rng.standard_normal(200).tolist())

    def _snippet(self) -> float:
        total = 0.0
        for a in self.small:
            total += float(np.dot(a, a)) + float(np.sort(a)[0]) + sorted(self.values)[3]
        total += float(np.dot(np.sort(self.x), self.y))
        parsed = [float(token) for token in self.text.split(",")]
        return total + sum(v * v for v in parsed)

    def measure_ns(self, repeats: int) -> float:
        """Median of ``repeats`` timings of the snippet."""
        times = []
        for _ in range(repeats):
            start = time.perf_counter_ns()
            self._snippet()
            times.append(time.perf_counter_ns() - start)
        return statistics.median(times)
