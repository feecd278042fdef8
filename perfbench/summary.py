"""Order statistics for benchmark samples."""
from __future__ import annotations

import math
import statistics

TAIL_PERCENTILES = (99.9, 99, 95, 90)
MIN_TAIL_SAMPLES = 10


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def summarize(values: list[float]) -> dict:
    """Median, mean, quartiles and n; plus the highest tail percentile that
    has at least ten samples above its rank, when there is one.

    Quartiles use `statistics.quantiles(values, n=4)` (exclusive method).
    """
    if not values:
        raise ValueError("no samples to summarize")
    ordered = sorted(values)
    n = len(ordered)
    q1, _, q3 = statistics.quantiles(ordered, n=4) if n > 1 else ordered * 3
    out = {"n": n, "median": statistics.median(ordered), "mean": statistics.fmean(ordered),
           "q1": q1, "q3": q3}
    for p in TAIL_PERCENTILES:
        if n - math.ceil(p / 100 * n) >= MIN_TAIL_SAMPLES:
            out[f"p{p:g}"] = percentile(ordered, p)
            break
    return out


def spread(summary: dict) -> float:
    """Interquartile distance as a share of the median."""
    median = summary["median"]
    return (summary["q3"] - summary["q1"]) / median if median else math.inf
