"""Summary statistics and metric naming shared by the benchmark.

Every helper here is pure: the workloads collect raw samples and these
functions turn them into the reported numbers.
"""

from __future__ import annotations

import math
import re
import statistics
from typing import Iterable, Mapping, Optional, Sequence

#: A metric name: starts with a letter or digit, at most 64 characters
#: drawn from ``[A-Za-z0-9_.-]``.
_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Samples a percentile needs strictly beyond it before it is reported.
TAIL_SAMPLES = 10


def check_name(name: str) -> str:
    """Return ``name`` if it is a valid metric name, else raise ValueError."""
    if not isinstance(name, str) or not _NAME.fullmatch(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def median(values: Iterable[float]) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) by ``statistics.quantiles(n=4)``, the rule the
    steadiness check uses."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two samples")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        return math.inf
    return (q3 - q1) / abs(q2)


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """The nearest-rank ``q`` quantile, or None when fewer than
    :data:`TAIL_SAMPLES` samples lie beyond it.

    Rank ``ceil(q * n)`` leaves ``n - ceil(q * n)`` samples above the
    reported one, so p50 needs 20 samples and p90 needs 100.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile {q} outside (0, 1)")
    n = len(values)
    rank = math.ceil(q * n - 1e-9)
    if n == 0 or n - rank < TAIL_SAMPLES:
        return None
    return float(sorted(values)[rank - 1])


def other_time(stage_wall: float, self_times: Mapping[str, float]) -> float:
    """A stage's wall time not covered by its named layers' self times."""
    return stage_wall - sum(self_times.values())


def metric(value: float, unit: str) -> dict:
    """One reported metric as the result line carries it."""
    return {"value": float(value), "unit": unit}
