"""Machine-speed calibration.

The host this benchmark was built on is shared: the same pure-Python loop
runs up to 1.5x slower for stretches of a second or more, and two runs of
the same inputs differed by a third in throughput.  Each run therefore
times a fixed snippet of sparse Fraction arithmetic, of the kind lcivt does,
every CALIBRATE_EVERY_S seconds, and scales each measured time by
REFERENCE_S / (snippet time around it).  Reported times are seconds on a
machine where the snippet takes REFERENCE_S, which is what it takes on an
idle core here.  Raw wall times are kept in the run's details file.
"""

from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_S = 0.0016
CALIBRATE_EVERY_S = 0.1

_TERMS = {Fraction(k, 2): Fraction(k + 1, k + 2) for k in range(16)}


def snippet_seconds():
    """Wall time of one fixed sparse product (about REFERENCE_S when idle)."""
    t0 = time.perf_counter()
    acc = {}
    for ea, ca in _TERMS.items():
        for eb, cb in _TERMS.items():
            e = ea + eb
            acc[e] = acc.get(e, 0) + ca * cb
    return time.perf_counter() - t0


class Calibrator:
    """Snippet timings taken at most CALIBRATE_EVERY_S apart.

    ``mark()`` before each measured interval returns the index of the latest
    snippet; ``finish()`` takes a last one.  ``scale(i)`` is the factor for
    an interval marked ``i``: REFERENCE_S over the mean of the snippet
    before it and the next one after it.
    """

    def __init__(self):
        self.samples = [snippet_seconds()]
        self._last = time.perf_counter()

    def mark(self):
        if time.perf_counter() - self._last >= CALIBRATE_EVERY_S:
            self.samples.append(snippet_seconds())
            self._last = time.perf_counter()
        return len(self.samples) - 1

    def finish(self):
        self.samples.append(snippet_seconds())
        self._last = time.perf_counter()

    def scale(self, i):
        return REFERENCE_S / ((self.samples[i] + self.samples[i + 1]) / 2)
