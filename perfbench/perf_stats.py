"""Sample statistics the benchmark reports.

Kept apart from ``repro.analysis.percentiles`` on purpose: the
benchmark must not change its own arithmetic when the program under
test changes.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence

#: A tail percentile is reported only with at least this many samples
#: beyond it (the median is always reported, with its sample count).
MIN_BEYOND = 10

#: Tail percentiles tried.
TAILS = (90.0, 99.0, 99.9)


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile, linear between closest ranks."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p!r}")
    k = (len(xs) - 1) * p / 100.0
    lo, hi = math.floor(k), math.ceil(k)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie beyond the ``p``-th percentile."""
    return math.floor(n * (100.0 - p) / 100.0 + 1e-9)


def supported(n: int, p: float) -> bool:
    """Whether ``n`` samples support reporting the ``p``-th percentile."""
    return beyond(n, p) >= MIN_BEYOND


def tail(values: Sequence[float], p: float) -> Optional[float]:
    """The ``p``-th percentile, or None when too few samples lie
    beyond it."""
    return percentile(values, p) if supported(len(values), p) else None


def summary(values: Sequence[float]) -> Dict[str, float]:
    """``n``, the median, and every tail percentile in :data:`TAILS`
    the sample supports (keys ``p50``, ``p90``, ``p99``, ``p99.9``)."""
    out: Dict[str, float] = {"n": len(values)}
    if not values:
        return out
    out["p50"] = percentile(values, 50.0)
    for p in TAILS:
        value = tail(values, p)
        if value is not None:
            out[f"p{p:g}"] = value
    return out


def quartiles(values: Sequence[float]) -> List[float]:
    """Q1, median, Q3 as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of
    the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else math.inf
