"""Order statistics for latency samples.

Percentiles use the nearest-rank definition, so every reported value is
one that was actually measured.  A percentile is refused unless at
least :data:`MIN_BEYOND` samples lie beyond it: a p90 from 30 samples
is the third-largest value, which says more about one slow request
than about the tail.
"""

from __future__ import annotations

import math
from typing import Sequence

#: Samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10


def samples_needed(q: float) -> int:
    """The fewest samples for which :func:`percentile` accepts ``q``."""
    n = 1
    while n - math.ceil(q / 100.0 * n) < MIN_BEYOND:
        n += 1
    return n


def percentile(values: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-th percentile of ``values`` (0 < q < 100).

    Raises:
        ValueError: ``q`` is out of range, or fewer than
            :data:`MIN_BEYOND` samples lie beyond the percentile.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must be inside (0, 100), got {q}")
    n = len(values)
    rank = math.ceil(q / 100.0 * n)
    if n - rank < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {n} samples has {max(n - rank, 0)} beyond it; "
            f"at least {MIN_BEYOND} are needed ({samples_needed(q)} samples)"
        )
    return sorted(values)[rank - 1]


def median(values: Sequence[float]) -> float:
    """The middle value (mean of the two middle values for even counts).

    Unlike :func:`percentile` this accepts any non-empty sample: it is
    used for per-op layer timings and for repeated set-up times, where
    the sample is small by construction.
    """
    if not values:
        raise ValueError("median of an empty sample")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def ratio(part: float, whole: float) -> float:
    """``part / whole``, or 0.0 when nothing was attempted."""
    return part / whole if whole else 0.0
