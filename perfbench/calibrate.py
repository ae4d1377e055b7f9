"""Speed calibration for a shared host.

On a host whose cores are shared with other tenants, per-core speed drifts
by up to 2x in phases lasting seconds to minutes, and a run's wall times
follow it.  The benchmark therefore times a fixed reference loop between
its ops and reports each timing at reference speed:

    reported = measured * REFERENCE_S / reference time of the pass

The reference loop is the benchmark's own code and calls nothing in the
library, so a change to the library moves the reported times as much as it
moves the measured ones.  It mixes integer arithmetic with building and
walking a dict of tuples and lists: of the loops tried on the 2-core
reference host, that mix tracked the slow phases of both the pure-Python
coupling checks and the numpy-bound sweeps most closely.
"""
from __future__ import annotations

import statistics
from time import perf_counter

# The reference loop's time on the 2-core reference host in a fast phase.
# A fixed constant: it only sets the scale of the reported times.
REFERENCE_S = 0.005


def reference_loop() -> int:
    s = 0
    for i in range(30000):
        s += i * i % 7
    d = {}
    for i in range(8000):
        d[(i, i & 31)] = [i, i + 1]
    for k, v in d.items():
        s += v[0] + k[1]
    return s


class Calibration:
    """Reference-loop samples taken between the ops of one pass.

    A sample is the median of ``repeats`` back-to-back loops.  One is taken
    before an op once ``GAP_S`` has passed since the last, and one at the
    end of the pass.  The pass's reference time is their median: finer
    scopes, down to the samples on either side of each op, tracked the
    host no better over ten seeds and added the jitter of single samples.
    """

    GAP_S = 0.25

    def __init__(self, repeats: int):
        self.repeats = repeats
        self.samples: list = []
        self.spent = 0.0      # time inside the reference loop
        self._last = float("-inf")

    def between_ops(self) -> None:
        if perf_counter() - self._last >= self.GAP_S:
            self.sample()

    def sample(self) -> None:
        times = []
        for _ in range(self.repeats):
            t0 = perf_counter()
            reference_loop()
            times.append(perf_counter() - t0)
        self.samples.append(statistics.median(times))
        self.spent += sum(times)
        self._last = perf_counter()

    def reference(self) -> float:
        return statistics.median(self.samples)


def scale(reference: float) -> float:
    """Factor from a measured time to the same time at reference speed."""
    return REFERENCE_S / reference
