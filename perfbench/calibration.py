"""Machine-speed calibration for the benchmark's timings.

On a shared host the speed of one core drifts by tens of percent over
minutes (on a shared 2-vCPU host, a fixed loop took from 12 to 18 ms
per iteration within five minutes), so raw wall times of two runs a
minute apart are not comparable.  run.py therefore times `measure()` between
passes and scales every time it reports to a reference machine, one on
which `measure()` takes REFERENCE_S: a time t measured between two
calibrations c1 and c2 is reported as t * REFERENCE_S / ((c1 + c2) / 2).
Each calibration is the fastest of a few short repetitions, since a
brief interruption only ever adds time.

The workload is shaped like kernel.compose (Fraction products summed
into dicts keyed by tuples), so the host's slowdowns hit it and pmc
alike.  It uses no pmc code, so a change to pmc cannot move the
yardstick, and it runs with the garbage collector off, so the size of
the program's heap cannot either.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

REFERENCE_S = 0.01
REPEATS = 5

_ROWS = {
    (i,): {(j,): Fraction(1 + (i * j) % 7, 60 + i) for j in range(12)} for i in range(12)
}


def _work() -> dict:
    out = {}
    for x, row in _ROWS.items():
        acc: dict = {}
        for y, p in row.items():
            for z, q in _ROWS[y].items():
                acc[z] = acc.get(z, 0) + p * q
        out[x] = acc
    return out


def measure() -> float:
    """Seconds the calibration workload takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            _work()
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        if enabled:
            gc.enable()


class Scale:
    """Factors that turn measured seconds into reference seconds, one per
    stretch of work between two calibrations."""

    def __init__(self) -> None:
        self.samples = [measure()]

    def next(self) -> float:
        """Calibrate after the work just timed and return its factor."""
        self.samples.append(measure())
        return REFERENCE_S * 2 / (self.samples[-2] + self.samples[-1])
