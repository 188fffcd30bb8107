"""A fixed pure-Python reference kernel that gauges the machine's current speed.

On a shared machine the speed of the interpreter changes by tens of percent
from one second to the next, while the program stays the same.  The benchmark
times this kernel while it measures, and rescales each measured time to the
kernel's nominal time :data:`REFERENCE_S`:

    normalized = measured * REFERENCE_S / mean kernel time measured meanwhile

so a normalized time reads as seconds at the reference speed.  The kernel uses
float arithmetic, calls, attribute lookups and list growth, the mix the
``rcert`` interpreter loops are made of, and nothing from ``rcert``.
"""

from __future__ import annotations

import math
import signal
import statistics
from time import perf_counter

# About the median time of one kernel on a shared 2-core virtual machine;
# only a scale, so every normalized time is in seconds at that speed.
REFERENCE_S = 0.001
KERNEL_STEPS = 4_000  # loop iterations of one kernel run
KERNEL_REPEATS = 30  # kernel runs per measurement between two timed regions
SAMPLE_PERIOD_S = 0.1  # wall time between two kernel runs inside a timed region


def kernel_time() -> float:
    """Time of one kernel run, in seconds."""
    start = perf_counter()
    acc = 0.0
    xs: list[float] = []
    for i in range(KERNEL_STEPS):
        x = math.sin(i * 1e-3) * 0.5 + (i % 7) * 0.25
        xs.append(x)
        acc += x * x / (1.0 + abs(x))
    acc += sum(xs[::3])
    return perf_counter() - start


def reference_time() -> float:
    """Median time of :data:`KERNEL_REPEATS` kernel runs, in seconds."""
    return statistics.median(kernel_time() for _ in range(KERNEL_REPEATS))


class Gauge:
    """Runs the kernel every :data:`SAMPLE_PERIOD_S` inside a ``with`` block.

    The machine's speed changes within one operation of a few seconds, so a
    kernel timed before and after it misjudges the speed the operation ran
    at.  A ``SIGALRM`` timer interrupts the block instead, and each
    interruption times one kernel run, about 1% of the block's time, which
    :meth:`own_time` leaves out.  Operations last far longer than the period;
    a block too short for a sample falls back to one kernel run after it.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.inside = 0.0  # seconds of kernel runs that interrupted the block

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        self.samples.append(kernel_time())
        self.inside += perf_counter() - start

    def __enter__(self) -> "Gauge":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self.samples.append(kernel_time())

    def own_time(self, wall: float) -> float:
        """``wall`` measured across the block, less the kernel runs inside it."""
        return wall - self.inside

    def kernel(self) -> float:
        """Mean kernel time while the block ran."""
        return statistics.fmean(self.samples)
