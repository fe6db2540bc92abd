"""Order statistics for latency samples."""

from __future__ import annotations

import math

#: Percentiles considered for the tail, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 90.0, 50.0)

#: A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def _rank(count: int, pct: float) -> int:
    # The epsilon keeps 99.9% of 10,000 at rank 9,990 despite rounding.
    return max(1, math.ceil(pct / 100.0 * count - 1e-9))


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``pct`` percent of the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(len(ordered), pct) - 1]


def beyond(count: int, pct: float) -> int:
    """Samples strictly above the nearest-rank ``pct`` percentile."""
    return count - _rank(count, pct)


def tail_percentile(count: int) -> float | None:
    """The highest candidate percentile with at least :data:`MIN_BEYOND`
    samples beyond it, or ``None`` when even the median has fewer."""
    for pct in TAIL_CANDIDATES:
        if beyond(count, pct) >= MIN_BEYOND:
            return pct
    return None

