"""Machine-speed calibration for the end-to-end timings.

The speed of a small shared virtual machine drifts: on the 2-vCPU machine
this benchmark was built on, a fixed pure-Python loop ran up to 1.6 times
slower in some stretches than in others, and the stretches last from
seconds to minutes.  Raw run times of the same code therefore spread by
more than any useful regression bound.

So each timing is also scaled to a reference speed.  A fixed pure-Python
kernel (about 0.5 ms) is timed right before a job, every TICK_S of wall
time while the job runs (from a SIGALRM handler, on the job's own thread),
and right after it.  The job's scaled time is its raw time, less the time
spent in the handler, times REFERENCE_S / median(kernel times).  A change
to the program cannot change the kernel, so the scale takes out the
machine's drift and leaves the program's own speed.

The kernel has two halves: a small-integer loop, which follows the speed of
the interpreter's dispatch, and Fraction sums stored into a dict of lists,
which follow the speed of allocation and big-integer work.  Scaling by both
halves at once held the spread of repeated jobs lower than either half
alone: over one minute of a repeated `tiling search-iso --n 5`, the
IQR/median of its scaled time was 0.09 with the loop alone, 0.08 with the
Fraction half alone and 0.07 with both (0.12 unscaled).
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# Kernel time that counts as reference speed: about its median in a fast
# stretch of the 2-vCPU virtual machine the benchmark was built on
# (Python 3.11).
REFERENCE_S = 500e-6
TICK_S = 0.02


def kernel_seconds() -> float:
    """Time one run of the calibration kernel."""
    t0 = time.perf_counter()
    s = 0
    for i in range(4000):
        s += i * i % 7
    f = Fraction(0)
    d = {}
    for i in range(1, 60):
        f += Fraction(i, i + 7)
        d[i] = [i, f]
    return time.perf_counter() - t0


class Timer:
    """Times one block and samples the machine's speed around and during it.

    `seconds` is the block's raw time less the time spent in the handler.
    With `ticking` off only the samples before and after are taken: the
    traced run turns it off, because a handler call would land inside the
    span it interrupts."""

    def __init__(self, ticking: bool = True):
        self.ticking = ticking
        self.samples: list = []
        self.handler_s = 0.0
        self.seconds = 0.0

    def __enter__(self):
        self.samples = [kernel_seconds()]
        self.handler_s = 0.0
        if self.ticking:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        self._t0 = time.perf_counter()
        return self

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(kernel_seconds())
        self.handler_s += time.perf_counter() - t0

    def __exit__(self, *exc) -> bool:
        if self.ticking:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.seconds = time.perf_counter() - self._t0 - self.handler_s
        self.samples.append(kernel_seconds())
        return False

    @property
    def scale(self) -> float:
        """Reference speed over the machine's speed during the block."""
        return REFERENCE_S / statistics.median(self.samples)
