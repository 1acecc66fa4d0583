"""A fixed reference kernel that measures the machine's speed as a run goes.

On a shared host the same work can take 20-60% longer from one minute to
the next, and the speed flips between a fast and a slow state within a
second.  The benchmark therefore times a fixed piece of pure-Python exact
arithmetic (``kernel``), of the same kind as the library's work but
independent of it, every ``every_s`` seconds of wall time: a timer signal
runs it between two bytecodes of whatever is running, items included.  The
time spent in the kernel is taken out of the item that it interrupted, and
every item time is scaled by the mean speed ratio (``REFERENCE_S`` over a
sample's time) of the samples taken during it.  A metric then reads as the
time the work would take on a machine on which the kernel takes
``REFERENCE_S``; a change of the machine's speed cancels, a change of the
library's cost does not.  The raw (unscaled) figures are printed on the
summary line beside the scaled ones.
"""
from __future__ import annotations

import bisect
import gc
import signal
import time
from fractions import Fraction
from math import isqrt

# The kernel's time in the slow state of a 2-vCPU Intel Xeon virtual
# machine, Python 3.11 (the fast state takes 2.3 ms).
REFERENCE_S = 0.0040
NEAREST = 7  # samples that give the speed of an item with fewer inside it


def kernel() -> int:
    """Fixed work: Fraction arithmetic, big-integer square roots, tuples."""
    acc = Fraction(0)
    check = 0
    for i in range(1, 260):
        q = Fraction(i * i + 7, 3 * i + 1)
        acc += q * q - Fraction(1, i)
        if i % 16 == 0:
            check ^= acc.numerator % 1000003
            acc = Fraction(acc.numerator % 10**12, acc.denominator % 10**9 + 1)
        n = (i * 2654435761) ** 4
        r = isqrt(n)
        point = (r % 97 - 48, i % 13 - 6, -(i % 7))
        check += max(abs(c) for c in point) + (r * r <= n)
    return check


_EXPECTED = kernel()


def sample() -> float:
    """Seconds for one run of the kernel, with the collector held off so
    that the library's heap does not change the kernel's cost."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        out = kernel()
        elapsed = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if out != _EXPECTED:
        raise RuntimeError("calibration kernel gave a different result")
    return elapsed


class Speedometer:
    """Kernel samples taken on a timer while it runs, as a context manager.

    ``paused`` is the wall time spent in the samples so far; a caller takes
    the difference over an item out of the item's time.
    """

    def __init__(self, every_s: float):
        self.every_s = every_s
        self.at: list[float] = []  # perf_counter at each sample's start
        self.ratios: list[float] = []  # REFERENCE_S over each sample's time
        self.paused = 0.0
        self._previous = None

    def _on_timer(self, signum, frame) -> None:
        t0 = time.perf_counter()
        took = sample()
        self.at.append(t0)
        self.ratios.append(REFERENCE_S / took)
        self.paused += time.perf_counter() - t0

    def __enter__(self) -> "Speedometer":
        self._on_timer(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._on_timer(None, None)

    def scale_over(self, start: float, end: float) -> float:
        """Mean speed ratio of the samples taken between ``start`` and
        ``end``, or of the ``NEAREST`` samples nearest the middle if fewer
        were taken.  The mean of ratios weighs each moment by its speed, as
        the item's own progress does."""
        lo, hi = bisect.bisect_left(self.at, start), bisect.bisect_right(self.at, end)
        if hi - lo < NEAREST:
            i = bisect.bisect_left(self.at, (start + end) / 2)
            lo = max(0, min(i - NEAREST // 2, len(self.at) - NEAREST))
            hi = lo + NEAREST
        window = self.ratios[lo:hi]
        return sum(window) / len(window)

    def scale_recent(self) -> float:
        """Mean speed ratio of the latest ``NEAREST`` samples."""
        window = self.ratios[-NEAREST:]
        return sum(window) / len(window)

    def scale(self) -> float:
        """Mean speed ratio of all samples."""
        return sum(self.ratios) / len(self.ratios)
