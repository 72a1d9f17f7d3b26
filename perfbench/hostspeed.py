"""How fast the host runs right now, from a fixed kernel.

On a small shared host the speed of a core swings by a third or more within
seconds as other tenants come and go, and every run time swings with it: a
fixed Python loop took from 21 to 35 ms within one minute, and the
program's runs moved with it. The benchmark times this kernel between runs
and reports each run in reference seconds, its wall time scaled by
REFERENCE_S over the kernel's time around it. A change to the program moves
reference seconds as it moves wall time; a change in the host's speed
mostly does not.

The kernel is half interpreter work and half native array work, as the
program is. The two slow down by different amounts. Beside a 10x10 ladder
run, whose time is mostly HiGHS, the loop's times varied by 14% (standard
deviation over mean) where the run's varied by 9%, and a sort of a 1.2 MB
array varied by 10%. Neither half alone tracked every workload best; on
five runs of each workload, their sum came close to the better half.

One probe is noisy (it can land in a fast or slow spell of a few
milliseconds that a run of a second averages out), so a run is scaled by
the median of the probes within WINDOW_S of it.
"""

from __future__ import annotations

import bisect
import statistics
import time

LOOPS = 50_000  # about 5 ms a repeat
SORT_N = 150_000  # 1.2 MB of float64; SORTS sorts of it take about 4 ms
SORTS = 3
REPEATS = 3
PROBE_EVERY_S = 0.5  # the gap between probes of a measuring loop: ~5% of its time
WINDOW_S = 10.0
# A typical time of the kernel on the 2-vCPU x86-64 cloud VM the benchmark
# was tuned on (7 to 12 ms there): where it takes this long, reference
# seconds are wall seconds.
REFERENCE_S = 0.009

_array = None


def _loop() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


def _sorts() -> float:
    global _array
    if _array is None:
        import numpy  # not at import time: run.py pins BLAS threads before numpy loads

        _array = numpy.random.default_rng(0).random(SORT_N)
    t0 = time.perf_counter()
    for _ in range(SORTS):
        _array.copy().sort()
    return time.perf_counter() - t0


def kernel_parts() -> tuple[float, float]:
    """The loop's and the sorts' times now, each the median of a few
    repeats, so that one preemption does not set them."""
    return (statistics.median(_loop() for _ in range(REPEATS)),
            statistics.median(_sorts() for _ in range(REPEATS)))


def scale(kernel: float) -> float:
    """Factor that turns wall seconds measured next to ``kernel`` into reference seconds."""
    return REFERENCE_S / kernel


class Gauge:
    """Probes of the kernel over a measuring loop, with their times."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.parts: list[tuple[float, float]] = []
        self.kernels: list[float] = []
        self.probe()

    def probe(self) -> None:
        parts = kernel_parts()
        self.parts.append(parts)
        self.kernels.append(sum(parts))
        self.times.append(time.perf_counter())

    def due(self) -> bool:
        return time.perf_counter() - self.times[-1] >= PROBE_EVERY_S

    def around(self, start: float, end: float) -> float:
        """Median kernel time of the probes within WINDOW_S of [start, end],
        always including the last probe before it and the first after it."""
        before = bisect.bisect_right(self.times, start) - 1
        after = bisect.bisect_left(self.times, end)
        lo = min(before, bisect.bisect_left(self.times, start - WINDOW_S))
        hi = max(after, bisect.bisect_right(self.times, end + WINDOW_S) - 1)
        return statistics.median(self.kernels[max(lo, 0):hi + 1])
