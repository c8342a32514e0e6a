"""Order statistics for reported timings."""
from __future__ import annotations

import math

MIN_BEYOND = 10   # samples that must lie above a reported percentile


def percentile(values, q: float) -> float:
    """Nearest-rank q-th percentile.

    Refuses (ValueError) when fewer than MIN_BEYOND samples lie above the
    percentile's rank, since such a tail is too thin to report.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_BEYOND:
        raise ValueError(f"p{q:g} of {n} samples leaves {n - rank} beyond "
                         f"it; need {MIN_BEYOND}")
    return ordered[rank - 1]


def min_samples(q: float) -> int:
    """Fewest samples for which `percentile(values, q)` is reported."""
    n = 1
    while n - max(1, math.ceil(q / 100.0 * n)) < MIN_BEYOND:
        n += 1
    return n
