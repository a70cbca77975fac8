"""The benchmark's own arithmetic: nearest-rank percentiles and spreads.

Kept apart from ``repro.obs.Histogram`` on purpose, so a change to the
program's histograms cannot move the yardstick they are measured with.
"""

from __future__ import annotations

import math
from typing import Sequence


def nearest_rank(values: Sequence[float], q: float) -> float:
    """Return the ``q``-quantile (0 < q <= 1) by the nearest-rank rule."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    """Return the middle value (mean of the two middle ones when even)."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """Return (Q1, median, Q3) by the "exclusive" rule.

    This is the rule ``statistics.quantiles(values, n=4)`` uses, so the
    spread printed here is the one a reader recomputes with the standard
    library.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 2:
        raise ValueError("need at least two samples")

    def at(p: float) -> float:
        pos = p * (n + 1)
        j = min(max(int(pos), 1), n - 1)
        return ordered[j - 1] + (pos - j) * (ordered[j] - ordered[j - 1])

    return at(0.25), median(ordered), at(0.75)
