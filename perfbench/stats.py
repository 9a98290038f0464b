"""Order statistics for per-op timings.

A timing is reported as its median and as a tail, the 75th percentile by
the nearest-rank rule. A run aims for at least 40 samples per op kind, so
the tail has at least 10 samples beyond it. The percentile stays fixed when
a very slow host gives fewer samples: a tail that stepped down to the
median would read as a program change.
"""

from __future__ import annotations

import math
import statistics

TAIL_PCT = 75.0


def _rank(pct: float, n: int) -> int:
    """1-based nearest rank ceil(pct/100 * n); the rounding keeps float
    error (99.9/100 * 10000 = 9990.000000000002) from bumping the rank."""
    return max(1, math.ceil(round(pct * n / 100.0, 9)))


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    """Value at percentile ``pct`` by the nearest-rank rule."""
    return sorted_values[_rank(pct, len(sorted_values)) - 1]


def summarize(values: list[float]) -> dict:
    """Median, tail value, the number of samples beyond the tail, and the
    sample count."""
    if not values:
        raise ValueError("no samples to summarize")
    ordered = sorted(values)
    n = len(ordered)
    return {
        "p50": statistics.median(ordered),
        "tail": nearest_rank(ordered, TAIL_PCT),
        "beyond_tail": n - _rank(TAIL_PCT, n),
        "n": n,
    }
