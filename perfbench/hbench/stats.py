"""Order statistics for timing samples."""

from __future__ import annotations

import math
import statistics


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile of a non-empty sample."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return statistics.median(values)


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least ten samples
    above it.  Below 20 samples no percentile at or above the median has ten
    samples beyond it, so the median is returned with its true percentile."""
    n = len(values)
    ordered = sorted(values)
    if n < 20:
        return 50.0, statistics.median(ordered)
    # the k-th smallest (1-based) has n - k samples beyond it
    k = n - 10
    return 100.0 * k / n, ordered[k - 1]


def timing_summary(values: list[float]) -> dict:
    pct, value = tail(values)
    return {"p50": median(values), "tail": value, "tail_pct": pct, "n": len(values)}
