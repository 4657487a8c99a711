"""Order statistics for wall-clock samples, shared by the runner and
``compare.py``."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence, Tuple

#: A tail percentile is reported only with at least this many samples
#: beyond it.
TAIL_SAMPLES = 10


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the
    median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def tail_percentile(count: int) -> Optional[int]:
    """The highest whole percentile above the median that leaves at least
    :data:`TAIL_SAMPLES` of ``count`` samples beyond it (nearest rank), or
    None when the sample is too small for any."""
    if count <= TAIL_SAMPLES:
        return None
    percent = math.floor(100 * (count - TAIL_SAMPLES) / count)
    return percent if percent > 50 else None


def nearest_rank(values: Sequence[float], percent: float) -> float:
    """The ``percent``-th percentile by the nearest-rank method."""
    ordered = sorted(values)
    rank = max(1, math.ceil(percent / 100 * len(ordered)))
    return ordered[rank - 1]


def failed_frac(attempted: int, failed: int) -> float:
    """Failed ops as a share of attempted ops."""
    if attempted < 1:
        raise ValueError("a run must attempt at least one op")
    return failed / attempted
