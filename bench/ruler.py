"""A ruler for the speed of the machine.

On a shared host the same work runs up to a third faster or slower from
one ten-second stretch to the next, which would swamp the changes the
benchmark is meant to show.  The ruler is a fixed piece of work in the
styles analytica spends its time in (rational arithmetic, a Python float
loop, small numpy calls).  It is sampled between requests, and every timing
is scaled by REFERENCE_S / (ruler time around it): the result is the time
the request would have taken on a machine where the ruler takes REFERENCE_S.
The ruler does not call analytica, so a change to the program cannot move
it.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

import numpy as np

# about the median ruler time on the 2-CPU Intel Xeon (Python 3.11.7, numpy 2.4.6)
# the benchmark was calibrated on
REFERENCE_S = 0.002
EVERY_S = 0.25  # sample at least this often while requests run

_COEFFS = np.linspace(-1.0, 1.0, 9)
_POINTS = np.linspace(-0.5, 0.5, 64)


def ruler_once() -> float:
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 100):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
    x = 0.0
    for i in range(3000):
        x = x * 0.999 + i * 1e-3
    for _ in range(40):
        np.polynomial.polynomial.polyval(_POINTS, _COEFFS)
    return time.perf_counter() - start


class Ruler:
    def __init__(self):
        self.times: list[float] = []
        self.values: list[float] = []

    def sample(self) -> None:
        value = statistics.median(ruler_once() for _ in range(5))
        self.times.append(time.perf_counter())
        self.values.append(value)

    def due(self) -> bool:
        return not self.times or time.perf_counter() - self.times[-1] >= EVERY_S

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean of the last sample taken before `start`
        and the first taken after `end`."""
        before = max(bisect.bisect_right(self.times, start) - 1, 0)
        after = min(bisect.bisect_left(self.times, end), len(self.times) - 1)
        return REFERENCE_S / ((self.values[before] + self.values[after]) / 2)

    def median_ms(self) -> float:
        return 1000 * statistics.median(self.values)
