"""Machine-speed correction for the benchmark's times.

The machine this benchmark was built on alternates between fast phases and
phases up to 1.5 times slower that last from seconds to minutes, and the
slowdown hits all CPU-bound Python code alike (process CPU time tracks wall
time, so it is not preemption).  Raw times of one workload spread by 30% or
more between runs minutes apart.

So the benchmark runs a fixed stdlib-only task, exact `Fraction` arithmetic
with dict and int work like the engine's, between ops, and reports every
time in reference seconds:

    reference time = measured time * NOMINAL_S / (task time measured nearby)

On a machine whose speed holds still this is the measured time up to a
constant factor.  The task never touches `nbrelim`, so a change to the
program moves reference times exactly as it moves real ones.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# The task's time on an unloaded core of the machine the baseline was
# recorded on; it only sets the scale of reference seconds.
NOMINAL_S = 0.0045


def _task() -> Fraction:
    acc = Fraction(0)
    counts: dict[int, int] = {}
    total = 0
    for i in range(1, 1500):
        acc += Fraction(i % 7, i % 5 + 1)
        counts[i % 97] = counts.get(i % 97, 0) + i
        total += sum(x * i for x in range(8))
    return acc


def probe() -> float:
    """The task's time now: the median of three runs, in seconds."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _task()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def factor(*probes: float) -> float:
    """Scale from measured to reference seconds, given probes around a
    measurement."""
    return NOMINAL_S / statistics.fmean(probes)
