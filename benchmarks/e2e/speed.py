"""Host time at a reference machine speed.

The 2-core sandbox this benchmark is gated on runs the *same* Python
code anywhere between 1x and 1.5x slower, drifting over seconds and
over minutes (noisy neighbours; CPU time inflates with wall time, so it
is slower execution, not descheduling).  Repetition does not average a
drift out: the raw fastest of three repetitions moved 8-23 % between
the quartiles of ten runs of unchanged code, and the slices that were
slow in one repetition were slow in all three.

So every CPU-bound interval is cut into slices of ~100 ms, a fixed
calibration :func:`burst` runs between slices, and each slice's host
time is scaled by how fast the machine ran the two bursts around it.
That took the same spreads to 4-7 % (README, Noise discipline).

The machine slows in two ways, so a burst has two parts: an arithmetic
loop senses clock and core contention, a pointer chase over a ~19 MB
ring senses the memory system.  Which of the two a workload follows
differs (``sim_wide`` the memory, ``live_closed`` the clock) and so
does the kind of noise from hour to hour, so the scale is the
geometric mean of both.

Calibration and work see the same machine at the same moment, and a
change to the program moves the work and not the calibration, so the
ratio between two commits means what it did before.  Raw wall times
stay in the detail line and ``bench.host_speed`` reports how fast the
host was.
"""

from __future__ import annotations

import contextlib
import functools
import heapq
import math
import random
from dataclasses import dataclass
from time import perf_counter, process_time
from typing import Any, Iterator, List, Tuple

ARITHMETIC_STEPS = 60_000
MEMORY_STEPS = 3_000
RING_SLOTS = 1 << 19
#: What the two parts of a burst usually take on the calibration
#: sandbox.  They only fix the unit, so that normalised seconds read
#: like that sandbox's seconds.
REFERENCE_ARITHMETIC_S = 0.00325
REFERENCE_MEMORY_S = 0.0022
#: Host time one slice of work should take between two bursts.
SLICE_S = 0.1

#: One calibration sample: when it ended, and what each part took.
Sample = Tuple[float, float, float]


@functools.lru_cache(maxsize=1)
def _ring() -> List[int]:
    """A fixed random single cycle over RING_SLOTS slots.

    ``ring[i]`` is the slot after *i*; following it visits every slot
    once, in an order no prefetcher can guess, through int objects
    scattered over the heap.
    """
    order = list(range(RING_SLOTS))
    random.Random(0).shuffle(order)
    ring = [0] * RING_SLOTS
    for here, there in zip(order, order[1:] + order[:1]):
        ring[here] = there
    return ring


def burst(at: int) -> Tuple[float, float, int]:
    """Run the fixed calibration work from ring slot *at*.

    Returns the seconds the arithmetic part and the memory part took
    and the slot to continue from.  Neither part creates objects the
    garbage collector tracks, so a burst cannot trigger a collection.
    """
    ring, heap, seen = _ring(), [], {}
    push, pop = heapq.heappush, heapq.heappop
    start = perf_counter()
    x = 0
    for i in range(ARITHMETIC_STEPS):
        x += i * i % 7
    middle = perf_counter()
    for k in range(MEMORY_STEPS):
        at = ring[at]
        push(heap, at)
        if k & 3 == 3:
            x += pop(heap)
        seen[at & 1023] = k
    return middle - start, perf_counter() - middle, at


def _scale(arithmetic_s: float, memory_s: float) -> float:
    return math.sqrt(
        (REFERENCE_ARITHMETIC_S / arithmetic_s)
        * (REFERENCE_MEMORY_S / memory_s)
    )


@dataclass
class Interval:
    """Host time of sliced work, summed slice by slice."""

    wall_s: float = 0.0  # at the reference machine speed
    cpu_s: float = 0.0  # at the reference machine speed
    raw_wall_s: float = 0.0  # as the host's clock read it
    last_scale: float = 1.0  # the scale of the slice added last

    def add(self, wall_s: float, cpu_s: float, scale: float) -> None:
        self.wall_s += wall_s * scale
        self.cpu_s += cpu_s * scale
        self.raw_wall_s += wall_s
        self.last_scale = scale


class SpeedMeter:
    """Scales intervals of host time to the reference machine speed."""

    def __init__(self) -> None:
        _ring()  # built before anything is timed
        self._at = 0
        self.samples: List[Sample] = []
        self._sample()

    def _sample(self) -> Sample:
        arithmetic_s, memory_s, self._at = burst(self._at)
        sample = (perf_counter(), arithmetic_s, memory_s)
        self.samples.append(sample)
        return sample

    def factor(self) -> float:
        """Take a burst now; the scale for the interval since the last,
        from the mean of the two bursts around it."""
        _, a0, m0 = self.samples[-1]
        _, a1, m1 = self._sample()
        return _scale((a0 + a1) / 2.0, (m0 + m1) / 2.0)

    def mean_factor(self, first_sample: int = 0) -> float:
        """Mean machine speed over the bursts from *first_sample* on;
        1 = the reference."""
        samples = self.samples[first_sample:]
        return sum(_scale(a, m) for _, a, m in samples) / len(samples)

    @contextlib.contextmanager
    def slice(self, spent: Interval, profile: Any = None) -> Iterator[None]:
        """Time the body as one slice of work, take a burst after it
        and add the scaled time to *spent*.  *profile*, a
        ``cProfile.Profile``, is on for the body only."""
        if profile is not None:
            profile.enable()
        cpu0, t0 = process_time(), perf_counter()
        try:
            yield
        finally:
            wall_s, cpu_s = perf_counter() - t0, process_time() - cpu0
            if profile is not None:
                profile.disable()
            spent.add(wall_s, cpu_s, self.factor())
