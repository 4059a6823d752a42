"""Machine-speed reference for the benchmark's timings (standard library).

On a machine that shares its CPU with other tenants, the speed of pure
Python code drifts by up to a third within a minute.  The benchmark
therefore times a fixed exact-arithmetic kernel every PERIOD_S, from a
timer signal, and reports every time scaled to REFERENCE_S: an
operation that took t seconds while the kernel, sampled during it and
up to MARGIN_S either side, took k seconds is reported as
t * REFERENCE_S / k.  The kernel does Fraction elimination, the
arithmetic that dominates qtau, and uses nothing from qtau, so a change
to qtau cannot move it.
"""

from __future__ import annotations

import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter

# the kernel's typical time on the shared 2-core virtual machine the
# benchmark was defined on (Python 3.11), so scaled times read close to
# raw ones there
REFERENCE_S = 0.00085
PERIOD_S = 0.1
MARGIN_S = 0.25
SIZE = 7


def kernel() -> Fraction:
    """Determinant of a fixed 7x7 rational matrix by elimination."""
    a = [[Fraction(i * SIZE + j + 1, (i + 2) * (j + 3)) + (i == j)
          for j in range(SIZE)] for i in range(SIZE)]
    det = Fraction(1)
    for c in range(SIZE):
        det *= a[c][c]
        inv = 1 / a[c][c]
        for r in range(c + 1, SIZE):
            f = a[r][c] * inv
            for k in range(c, SIZE):
                a[r][k] -= f * a[c][k]
    return det


def sample(repeats: int = 3) -> float:
    """Median seconds of one kernel call over a few back-to-back calls.

    The cyclic collector is paused: its passes cost in proportion to the
    caller's live objects, which would make the reference depend on the
    heap of the process sampling it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(repeats):
            t0 = perf_counter()
            kernel()
            times.append(perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class Sampler:
    """Kernel samples taken by a timer signal every PERIOD_S of wall time.

    The samples land inside long operations too, so each operation can be
    scaled by the machine speed during it.  `spent` is the total time the
    handler took; callers subtract its growth from what they time.
    """

    def __init__(self):
        self.samples = []  # (when, kernel seconds)
        self.spent = 0.0
        self._previous = None

    def _handler(self, signum, frame):
        start = perf_counter()
        self.samples.append((start, sample()))
        self.spent += perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _values(self):
        if not self.samples:  # nothing ran long enough for the timer
            self.samples.append((perf_counter(), sample()))
        return [k for _, k in self.samples]

    def around(self, start: float, end: float) -> float:
        """Median sample taken within MARGIN_S of [start, end]."""
        near = [k for t, k in self.samples
                if start - MARGIN_S <= t <= end + MARGIN_S]
        return statistics.median(near or self._values())

    def reset(self) -> float:
        """Median of all samples so far; the samples start over."""
        ref = statistics.median(self._values())
        self.samples = []
        return ref
