"""Host-speed calibration for timings taken on a shared machine.

Other tenants of a shared host slow every process on it by up to a third
for seconds at a time, which would swamp the differences between two
commits.  calibrate() times a fixed slice of interpreter and big-integer
work; the benchmark runs it before and after every op and scales the
op's times by REFERENCE_S / (median of the recent calibrations).  A
slowdown that hits the calibration and the op alike cancels, and the
scaled times read as times on a host where the slice takes REFERENCE_S
(an uncontended 2-vCPU Xeon VM under Python 3.11).
"""

from __future__ import annotations

import random
import statistics
from collections import deque
from time import perf_counter

REFERENCE_S = 0.00035
_BIG = random.Random(3).getrandbits(2048)


def calibrate() -> float:
    """Seconds taken by the fixed slice of work."""
    t0 = perf_counter()
    acc, seen = 0, {}
    for i in range(1500):
        acc += (_BIG >> (i % 2000)) & 1023
        seen[acc & 255] = acc
    return perf_counter() - t0


class Scale:
    """Scale factor from the median of the last few calibrations."""

    def __init__(self, window: int = 5):
        self.recent: deque[float] = deque(maxlen=window)

    def sample(self) -> float:
        """Calibrate once more; return REFERENCE_S / median of the window."""
        self.recent.append(calibrate())
        return REFERENCE_S / statistics.median(self.recent)
