"""Scaling measured times to a reference machine speed.

On a shared machine the same code runs up to two or three times slower
when neighbours are busy, in phases lasting from a fraction of a second to
minutes.  While operations run, a timer signal interrupts them every
EVERY_S to time a fixed piece of Python that does what valuation search
does (a recursive generator, tuple-keyed table lookups, frozensets) and
does not use ndlogic.  An operation's time, less the time the sampling
took, is scaled by NOMINAL_S / (mean of the samples taken around it), so
it reads as if the calibration unit had taken NOMINAL_S.  A change to
ndlogic does not change the calibration unit's time, so it moves scaled
and raw times alike.  Code that slows down less than the unit in a busy
phase reads a little faster there once scaled.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

NOMINAL_S = 0.0003  # the calibration unit's time at the reference speed
EVERY_S = 0.01      # sampling period while operations run
WINDOW_S = 0.02     # samples this close to an operation describe its speed

_TABLE = {(a, b): ((a * b) % 7, (a + b) % 7) for a in range(7)
          for b in range(7)}


def _walk(i: int, vals: list, n: int):
    if i == n:
        yield vals
        return
    for c in _TABLE[vals[i - 1], i % 7]:
        vals[i] = c
        yield from _walk(i + 1, vals, n)


def _work():
    seen = set()
    for vals in _walk(1, [3] * 9, 9):
        seen.add(frozenset(vals))


def unit() -> float:
    """Time of one calibration unit, in seconds.  The work runs once
    untimed first, so the time does not include refilling the caches that
    the interrupted code had taken over."""
    _work()
    t0 = perf_counter()
    _work()
    return perf_counter() - t0


class Calibration:
    def __init__(self):
        self.times: list[float] = []    # when each sample ended
        self.samples: list[float] = []  # each sample's duration
        self.busy = 0.0                 # total time spent sampling

    def sample(self):
        t0 = perf_counter()
        self.samples.append(unit())
        t1 = perf_counter()
        self.times.append(t1)
        self.busy += t1 - t0

    @contextmanager
    def sampling(self):
        """Sample every EVERY_S, interrupting whatever runs meanwhile."""
        old = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    def scale(self, start: float, end: float) -> float:
        """Factor turning a time measured between ``start`` and ``end`` into
        reference-speed time."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if lo == hi:  # no sample that close: take the nearest ones
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.times))
        return NOMINAL_S / statistics.fmean(self.samples[lo:hi])
