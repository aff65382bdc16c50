"""The machine's speed, measured alongside the workload.

The benchmark runs on a shared host whose speed moves in plateaus of
tens of seconds, by up to 2x: over five minutes, the median time of a
fixed Figure 4 trunk solve per 10-second window had a quartile spread
of 37% of its median, more than any regression bound can allow.  A
fixed pure-Python loop, the *probe*, timed in between on the same host
moved with it: the ratio of the two had a quartile spread of 4%.

The probe does two kinds of interpreter work, each about 1 ms at the
reference speed: integer arithmetic, and allocating, sorting and
indexing small tuples.  Under a co-tenant's memory traffic the DP
slows more than arithmetic alone (which left a spread of 9%, against
7% for the two).  The tuples are built twice and timed the second time,
on memory the first pass warmed: the probe reads the host's speed, not
how much of the cache the program under test has just evicted (a part
reading an 8 MB array tracked the host best in-process, and read 2x
slower after every HTTP round trip than between in-process solves).

A run times the probe between ops (never during one) every
:data:`PROBE_INTERVAL` seconds, and every duration the benchmark
reports is scaled to the *reference speed*, at which the probe takes
:data:`REFERENCE_SECONDS`:

    scaled = measured x REFERENCE_SECONDS / (probe time near it)

where "near" is the median of the probes within :data:`HALF_WINDOW`
seconds of the measured interval's midpoint.  A scaled duration is the
one the same code would have shown on the host at that speed.
"""

from __future__ import annotations

import bisect
import random
import time
from typing import List, Sequence, Tuple

from perfbench.stats import median

#: The probe's time at the reference speed (a fixed convention).
REFERENCE_SECONDS = 2.5e-3
#: Seconds between probes inside a timed window (~3% of its time).
PROBE_INTERVAL = 0.1
#: Probes within this many seconds of an interval scale it.
HALF_WINDOW = 0.5

_ARITHMETIC_STEPS = 16_000
_TUPLES = 1_900


def _tuples() -> None:
    rng = random.Random(5)
    tuples = [(rng.random(), rng.random(), i) for i in range(_TUPLES)]
    tuples.sort()
    {entry[2]: entry for entry in tuples}


def probe() -> float:
    """Seconds the fixed probe takes now."""
    _tuples()
    started = time.perf_counter()
    total = 0
    for i in range(_ARITHMETIC_STEPS):
        total += i * i % 7
    _tuples()
    return time.perf_counter() - started


class Speedometer:
    """Probe times, with when each was taken, for one run."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.seconds: List[float] = []

    def sample(self, repeats: int = 1) -> None:
        """Take ``repeats`` probes now."""
        for _ in range(repeats):
            at = time.perf_counter()
            self.seconds.append(probe())
            self.times.append(at)

    def maybe_sample(self) -> None:
        """Take one probe if the last is :data:`PROBE_INTERVAL` old."""
        if not self.times or time.perf_counter() - self.times[-1] >= PROBE_INTERVAL:
            self.sample()

    def scale_at(self, at: float) -> float:
        """The factor that scales a duration measured around ``at`` to
        the reference speed (the nearest probe when none is in reach)."""
        if not self.times:
            raise ValueError("no probe was taken")
        lo = bisect.bisect_left(self.times, at - HALF_WINDOW)
        hi = bisect.bisect_right(self.times, at + HALF_WINDOW)
        if lo == hi:
            nearest = min(
                (i for i in (lo - 1, lo) if 0 <= i < len(self.times)),
                key=lambda i: abs(self.times[i] - at),
            )
            lo, hi = nearest, nearest + 1
        return REFERENCE_SECONDS / median(self.seconds[lo:hi])

    def scaled(self, intervals: Sequence[Tuple[float, float]]) -> List[float]:
        """Each ``(start, seconds)`` interval's duration at the
        reference speed."""
        return [
            seconds * self.scale_at(start + seconds / 2)
            for start, seconds in intervals
        ]

    def probe_median(self) -> float:
        """Median probe time of the run, in seconds."""
        return median(self.seconds)
