"""Descriptive statistics and tail analysis for trace features.

The characterization primitives the surveyed papers apply to request
streams: moment summaries, empirical CDF comparison (two-sample KS),
and the Hill estimator for heavy-tail detection (Feitelson's "heavy
tails" feature of DC request distributions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "SampleSummary",
    "hill_estimator",
    "ks_distance",
    "ks_two_sample",
    "summarize",
]

#: Largest sample size for which ``scipy.stats.ks_2samp``'s default
#: (``mode="auto"``) takes the exact path, which rounds the statistic
#: to a multiple of ``1 / lcm(n1, n2)``.
_KS_EXACT_MAX_N = 10000


@dataclass(frozen=True)
class SampleSummary:
    """Moment and quantile summary of one feature's samples."""

    count: int
    mean: float
    std: float
    minimum: float
    p50: float
    p95: float
    p99: float
    maximum: float

    @property
    def cov(self) -> float:
        """Coefficient of variation (std over mean)."""
        return self.std / self.mean if self.mean != 0 else float("inf")


def summarize(samples: Sequence[float]) -> SampleSummary:
    """Compute a :class:`SampleSummary`; rejects empty input."""
    data = np.asarray(samples, dtype=float)
    if data.size == 0:
        raise ValueError("cannot summarize an empty sample")
    return SampleSummary(
        count=int(data.size),
        mean=float(data.mean()),
        std=float(data.std(ddof=1)) if data.size > 1 else 0.0,
        minimum=float(data.min()),
        p50=float(np.percentile(data, 50)),
        p95=float(np.percentile(data, 95)),
        p99=float(np.percentile(data, 99)),
        maximum=float(data.max()),
    )


def ks_two_sample(a: Sequence[float], b: Sequence[float]) -> tuple[float, float]:
    """Two-sample Kolmogorov-Smirnov test: (statistic, p-value).

    The fidelity metric used throughout the validation framework to
    compare original and synthetic feature distributions.
    """
    from scipy import stats

    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be non-empty")
    result = stats.ks_2samp(a, b)
    return float(result.statistic), float(result.pvalue)


def ks_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sample KS statistic alone, in numpy: no p-value, no scipy.

    Returns exactly ``ks_two_sample(a, b)[0]`` — the same float as
    ``scipy.stats.ks_2samp(a, b).statistic`` — by repeating its
    arithmetic: both empirical CDFs evaluated with
    ``searchsorted(side="right")`` over the pooled sorted samples, the
    larger of the clipped negative and the positive extreme, and, for
    samples of at most 10000 values (where ``ks_2samp`` computes an
    exact p-value), rounding to the nearest multiple of
    ``1 / lcm(n1, n2)`` (that lcm is at most 10^8, so it always fits
    the int32 bound ``ks_2samp`` checks).  NaN in either sample gives
    NaN, as ``ks_2samp`` does.  For callers that only compare the
    distance to a threshold, such as the serve drift monitor after
    every commit.
    """
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    n1, n2 = a.size, b.size
    if n1 == 0 or n2 == 0:
        raise ValueError("both samples must be non-empty")
    if np.isnan(a[-1]) or np.isnan(b[-1]):
        return float("nan")  # sorting puts NaN last; ks_2samp propagates it
    pooled = np.concatenate([a, b])
    cddiffs = (
        np.searchsorted(a, pooled, side="right") / n1
        - np.searchsorted(b, pooled, side="right") / n2
    )
    min_s = np.clip(-cddiffs[np.argmin(cddiffs)], 0, 1)
    max_s = cddiffs[np.argmax(cddiffs)]
    d = min_s if min_s > max_s else max_s
    if max(n1, n2) <= _KS_EXACT_MAX_N:
        lcm = (n1 // math.gcd(n1, n2)) * n2
        d = int(np.round(d * lcm)) * 1.0 / lcm
    return float(d)


def hill_estimator(samples: Sequence[float], tail_fraction: float = 0.1) -> float:
    """Hill estimate of the tail index alpha from the upper tail.

    Values of alpha below ~2 indicate the heavy (infinite-variance)
    tails SURGE found in web object sizes.  Uses the top
    ``tail_fraction`` of order statistics.
    """
    data = np.asarray(samples, dtype=float)
    data = data[data > 0]
    if not 0 < tail_fraction <= 0.5:
        raise ValueError(f"tail_fraction must be in (0, 0.5], got {tail_fraction}")
    k = max(2, int(data.size * tail_fraction))
    if data.size < k + 1:
        raise ValueError(f"need > {k + 1} positive samples, got {data.size}")
    tail = np.sort(data)[-k - 1:]
    logs = np.log(tail)
    gamma = float(np.mean(logs[1:] - logs[0]))
    if gamma <= 0:
        return float("inf")
    return 1.0 / gamma
