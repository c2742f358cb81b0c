"""Order statistics used by the benchmark report.

Percentiles use the nearest-rank rule: the p-th percentile of n sorted
samples is the sample at rank ceil(p n / 100), so it is always a measured
value and exactly ``n - ceil(p n / 100)`` samples lie beyond it.
"""

from __future__ import annotations

import math

#: candidate tail percentiles, highest first
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0)

#: a tail percentile needs at least this many samples beyond it
TAIL_MIN_BEYOND = 10


def median(values) -> float:
    xs = sorted(values)
    if not xs:
        raise ValueError("median of no samples")
    mid = len(xs) // 2
    if len(xs) % 2:
        return float(xs[mid])
    return 0.5 * (xs[mid - 1] + xs[mid])


def percentile(values, p: float) -> float:
    """Nearest-rank percentile, 0 < p <= 100."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    if not 0.0 < p <= 100.0:
        raise ValueError("percentile must lie in (0, 100]")
    rank = math.ceil(p * len(xs) / 100.0 - 1e-9)
    return float(xs[max(rank, 1) - 1])


def beyond(n: int, p: float) -> int:
    """How many of n samples lie beyond the nearest-rank p-th percentile."""
    return n - math.ceil(p * n / 100.0 - 1e-9)


def tail_percentile(n: int):
    """Highest candidate percentile with TAIL_MIN_BEYOND samples beyond it
    among n samples, or None when n is too small for any of them."""
    for p in TAIL_CANDIDATES:
        if beyond(n, p) >= TAIL_MIN_BEYOND:
            return p
    return None
