"""The host's speed, read from a fixed reference kernel between ops.

A shared host runs the same code at different speeds from one run to the
next (frequency scaling, busy neighbours on the same cores): over ten
runs of identical code, the middle half of service-repeat's
``release_p50_ms`` readings has spread by two thirds of their median.
No statistic taken inside one run removes a slowdown that lasts the
whole run, so every run times a reference kernel too — a short pure-Python loop that is part of the
benchmark, not of the program — once between every two ops, and the
workloads report their times scaled to the speed at which the kernel
takes :data:`NOMINAL_S`::

    reported = measured wall time * NOMINAL_S / mean kernel time

A change to the program moves the measured times and leaves the kernel
alone, so it shows in the scaled figures in full.  A slower host moves
both, and the scaled figures stay put.
"""

from __future__ import annotations

import gc
import time
from typing import List

perf_counter = time.perf_counter

#: Iterations of one kernel call (about 0.3 ms on a 2-vCPU VM).
KERNEL_ITERATIONS = 600
#: Kernel time, seconds, that the scaled figures are expressed at: the
#: kernel's typical time on the 2-vCPU VM the bounds were set on, so
#: scaled figures read close to that machine's wall clock.
NOMINAL_S = 3.4e-4


def reference_kernel(n: int = KERNEL_ITERATIONS) -> float:
    """Tuple building, dict stores, float arithmetic and a sort: the kind
    of interpreter work the analysis does.  The garbage collector is
    paused, so no collection of the program's heap lands in the kernel;
    every object it makes is freed before it returns."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        acc = 0.0
        table = {}
        points = []
        for i in range(n):
            x = (i * 7919) % 1009 * 1e-3
            point = (x, x * 0.5 + 1.25)
            points.append(point)
            table[i & 63] = point
            acc += point[1] if point[1] > acc * 1e-3 else 0.0
        points.sort()
        return acc + len(table)
    finally:
        if enabled:
            gc.enable()


class SpeedGauge:
    """Kernel timings of one phase."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def tick(self) -> None:
        """Time one kernel call (call it between ops, never inside one)."""
        t0 = perf_counter()
        reference_kernel()
        self.samples.append(perf_counter() - t0)

    @property
    def spent_s(self) -> float:
        """Wall time spent in the kernel so far."""
        return sum(self.samples)

    @property
    def scale(self) -> float:
        """Factor from measured wall time to time at the nominal speed.

        The mean, not the median: a kernel call that a busy neighbour
        stalls stands for the same stalls in the ops around it."""
        if not self.samples:
            raise ValueError("no kernel timings: the phase never ticked")
        return NOMINAL_S * len(self.samples) / self.spent_s
