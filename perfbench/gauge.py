"""A fixed unit of work that tells how fast the machine runs at the moment.

The benchmark reports each timing in reference seconds: the measured wall
time times REFERENCE_S over the time the gauge took next to it,

    reported = measured * REFERENCE_S / gauge reading.

Shared hosts switch a core between a fast and a slow speed many times a
second (on the 2-core sandbox the benchmark was tuned on, cell-index
queries ran 1.7x slower in the slow state), and the share of slow time
drifts from one minute to the next.  A wall-clock median then measures the
neighbours as much as the program.  The gauge runs in the same process,
between short timed stretches and, on a timer, inside long calls, so it
sees the same mix of speeds; the ratio cancels most of the mix.  Its work
is like the package's: Python tuples, dicts and attribute lookups, and
small numpy calls.  It calls nothing in the package, so a change to the
package cannot move it.
"""

from __future__ import annotations

import gc
import signal
import time

import numpy as np

# Seconds one reading takes at the reference speed: about the mean reading
# on a 2-core shared x86-64 sandbox (Python 3.11, numpy 2.4), rounded.  The
# value only sets the scale of the reported figures.
REFERENCE_S = 0.0005
# Seconds between readings taken while a long call runs: about 5% of its
# time goes to readings.
SAMPLE_S = 0.02


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y


class Gauge:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        xy = rng.random((384, 2))
        self._points = [_Point(float(x), float(y)) for x, y in xy]
        self._table = {(i, i + 1): i for i in range(384)}
        self._arr = rng.random((256, 2))
        self.readings: list[float] = []
        for _ in range(20):
            self._unit()

    def _unit(self) -> float:
        table, acc, hits = self._table, 0.0, 0
        for i, p in enumerate(self._points):
            hits += table.get((i, i + 1), 0) + table.get((i, i), 0)
            acc += p.x * p.y - (p.x, p.y)[i & 1]
        a = self._arr
        for _ in range(18):
            d = a - a[hits & 255]
            np.partition(np.einsum("ij,ij->i", d, d), 16)
        return acc + hits

    def read(self) -> float:
        """Seconds of one unit of work, done once untimed first so that it
        runs from a warm cache whatever the package did before.  The
        collector is off meanwhile, so garbage the package left is collected
        on the package's time."""
        gc.disable()
        try:
            self._unit()
            t0 = time.perf_counter()
            self._unit()
            took = time.perf_counter() - t0
        finally:
            gc.enable()
        self.readings.append(took)
        return took

    def timed(self, fn, sample: bool = True):
        """(result, wall seconds, reference seconds) of `fn()`, a call that
        spans many speed switches.

        With `sample`, a timer signal takes a reading every SAMPLE_S while
        `fn` runs, so the readings see the same mix of speeds as the call,
        and the time spent in them is taken off the call's wall time.  One
        more reading comes right before and one right after the call.
        """
        inside: list[float] = []
        spent = 0.0

        def tick(signum, frame):
            nonlocal spent
            t0 = time.perf_counter()
            inside.append(self.read())
            spent += time.perf_counter() - t0

        first = self.read()
        old = signal.signal(signal.SIGALRM, tick)
        try:
            t0 = time.perf_counter()
            if sample:
                signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
            out = fn()
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            wall = time.perf_counter() - t0 - spent
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old)
        last = self.read()
        readings = [first, *inside, last]
        return out, wall, wall * REFERENCE_S / (sum(readings) / len(readings))

    @staticmethod
    def factor(before: float, after: float) -> float:
        """Reference seconds per measured second, between two readings."""
        return REFERENCE_S / (0.5 * (before + after))

    def speed(self) -> float:
        """Reference over mean reading of the run: above 1 on a fast run."""
        return REFERENCE_S / (sum(self.readings) / len(self.readings))
