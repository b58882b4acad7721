"""Summary statistics the benchmark reports."""

from __future__ import annotations

import statistics

# a tail percentile is reported only where this many samples lie beyond it
TAIL_BEYOND = 10


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def tail(values) -> tuple[float, float, int]:
    """Highest nearest-rank percentile with ``TAIL_BEYOND`` samples beyond it.

    Returns ``(value, percentile, sample_count)``. With ``n`` samples that
    is the ``n - TAIL_BEYOND``-th smallest, the ``100 * (n - 10) / n``
    percentile. Below ``2 * TAIL_BEYOND`` samples that percentile would lie
    under the median, so the median is returned then, labelled as the 50th
    percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return median(ordered), 50.0, n
    rank = n - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / n, n
