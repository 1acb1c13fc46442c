"""Host-speed normalisation of the benchmark's timings.

The benchmark runs on a share of a machine whose speed drifts: the same
deterministic solve, repeated in one process, took 0.7 s in one minute and
1.4 s a few minutes later, with CPU time equal to wall time.  A drift that
outlasts a run moves every timing of that run alike, so no median over the
run removes it.  A fixed pure-Python kernel, timed at regular points of the
run, slows with the host: on the 2-CPU machine of README.md, per-30-s
medians of an MPC solve spread 0.34 (interquartile range over median)
while the same medians divided by the kernel's spread 0.05.

So every timed metric of an untraced run is reported in reference seconds:
each wall time is multiplied by ``REFERENCE_S`` over the median kernel time
around it -- the samples taken during a solve or an episode, or the five
nearest a step.  On a host that runs the kernel in ``REFERENCE_S`` this is
the wall time.  The kernel shares no code with pintoc, so a change to the
library cannot move it, and the time spent in it is taken out of every
timing it interrupts.
"""

from __future__ import annotations

import statistics
import time

# median kernel time on the 2-CPU machine described in README.md
REFERENCE_S = 0.0075
KERNEL_ITERATIONS = 60_000
# samples on each side of a step that set its factor
STEP_WINDOW = 2


def kernel() -> float:
    """Fixed interpreter-bound work: float arithmetic in a Python loop."""
    total = 0.0
    for i in range(KERNEL_ITERATIONS):
        total += (i * 0.5) % 7.0
    return total


class Speedometer:
    """Times the kernel on request and keeps the samples of one run."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent in samples, to take out of timings

    def sample(self) -> int:
        """Time the kernel once; return the sample's index."""
        start = time.perf_counter()
        kernel()
        duration = time.perf_counter() - start
        self.samples.append(duration)
        self.spent += duration
        return len(self.samples) - 1

    def over(self, lo: int, hi: int) -> float:
        """Wall-to-reference multiplier from samples ``lo`` to ``hi - 1``."""
        return REFERENCE_S / statistics.median(self.samples[lo:hi])

    def around(self, i: int) -> float:
        """Wall-to-reference multiplier from the samples nearest sample ``i``."""
        return self.over(max(0, i - STEP_WINDOW), i + STEP_WINDOW + 1)
