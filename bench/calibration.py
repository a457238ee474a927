"""Host speed, measured with a fixed reference kernel next to every timed
piece of work, so that timings can be stated at one reference speed.

The 2-core host the benchmark was written on runs the same code at speeds up
to 2x apart: it switches between them every few seconds, and stays at one
for seconds to minutes. A quantile of raw times over a run picks one speed
or another depending on how the run's time happened to split between them,
so ten runs spread by a third of their median. The reference kernel slows
with the host: on that host, a pass of localize calls divided by the
kernel's time measured just before and after it changed by 2% between the
fast and the slow speed, while the raw time changed by 1.5-2x.

The kernel is the benchmark's own code and does the kinds of work gridloc
does: frozen dataclasses built and replaced, float math, a heap and a dict,
and numpy scalar draws. Changing it changes every timing metric of the
benchmark, so it must stay as it is.
"""

from __future__ import annotations

import heapq
import math
import signal
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Iterator, Sequence

import numpy as np

# The kernel's time at the host's fast speed, on the 2-core Xeon the
# benchmark was written on. Timings are reported at this speed: a time t
# measured while the kernel took k seconds is reported as t * REFERENCE_S / k.
REFERENCE_S = 0.35e-3
KERNEL_REPEATS = 3
# While an operation runs, the kernel runs once per this much wall time.
SAMPLE_INTERVAL_S = 0.05


@dataclass(frozen=True)
class _Point:
    x: float
    y: float
    w: float = 1.0

    def __post_init__(self) -> None:
        if self.w < 0:
            raise ValueError("w must be >= 0")


_RNG = np.random.Generator(np.random.PCG64(1))


def kernel() -> float:
    """The fixed reference work, about 0.3 ms at the fast speed."""
    acc = 0.0
    points = [_Point(i * 0.37 % 7.0, i * 0.91 % 5.0) for i in range(20)]
    for p in points:
        nearest = min(math.hypot(p.x - q.x, p.y - q.y)
                      for q in points if q is not p)
        p = replace(p, w=p.w + nearest)
        acc += p.w
    for i in range(1, 300):
        v = math.log10(i) * 2.5 - math.sqrt(i) / (i + 1.0)
        acc += 10.0 ** (v / 20.0)
    heap: list[tuple[int, int]] = []
    counts: dict[int, int] = {}
    for i in range(150):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        counts[i % 53] = counts.get(i % 53, 0) + 1
    while heap:
        acc += heapq.heappop(heap)[0] * 1e-9
    acc += sum(v for v, _ in sorted(((v, k) for k, v in counts.items()),
                                    reverse=True)[:4])
    for _ in range(30):
        acc += float(_RNG.normal(0.0, 3.0))
    return acc


def kernel_seconds() -> float:
    """The kernel's time now: the fastest of a few back-to-back runs, so an
    interrupt during one does not count."""
    best = math.inf
    for _ in range(KERNEL_REPEATS):
        start = perf_counter()
        kernel()
        best = min(best, perf_counter() - start)
    return best


@dataclass
class Samples:
    """Kernel times read while an operation ran, and the time they took."""

    readings: list[float] = field(default_factory=list)
    spent_s: float = 0.0


class HostSpeed:
    """Brackets consecutive pieces of timed work with kernel runs.

    Call scale() right after each piece: it runs the kernel and returns the
    factor that takes the piece's times to the reference speed, from the
    kernel's times just before and just after it. The run after one piece is
    the run before the next. A piece that takes a second or more spans
    several changes of host speed; sampling() reads the speed all through
    it, and scale() then uses those readings instead."""

    def __init__(self) -> None:
        self.last = kernel_seconds()

    def scale(self, during: Sequence[float] = ()) -> float:
        now = kernel_seconds()
        kernel_s = statistics.fmean(during) if during else (self.last + now) / 2
        self.last = now
        return REFERENCE_S / kernel_s

    @contextmanager
    def sampling(self, samples: Samples) -> Iterator[None]:
        """Run the kernel every SAMPLE_INTERVAL_S from a timer signal while
        the body runs, into samples. The body's own time is its elapsed time
        less samples.spent_s. The mean of the readings weighs each moment of
        the body alike, as its elapsed time does."""

        def read(signum, frame) -> None:
            start = perf_counter()
            kernel()
            end = perf_counter()
            samples.readings.append(end - start)
            samples.spent_s += perf_counter() - start

        previous = signal.signal(signal.SIGALRM, read)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
