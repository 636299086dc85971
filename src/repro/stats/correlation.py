"""Autocorrelation and periodicity analysis.

Li's grid-workload modeling pipeline fits distributions *and* matches
autocorrelation of the real data; Abrahao et al. classify CPU
utilization as periodic / noisy / spiky.  This module supplies the
shared machinery: ACF, dominant-period detection, and the
periodic/noisy/spiky classifier.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
# numpy loads np.fft on first use; load it with this module, so the
# serve daemon's first profile render is not where it happens.
import numpy.fft  # noqa: F401

__all__ = [
    "acf",
    "classify_utilization_pattern",
    "cross_correlation",
    "dominant_period",
]


def acf(series: Sequence[float], max_lag: int) -> np.ndarray:
    """Sample autocorrelation at lags ``0..max_lag`` (biased estimator)."""
    data = np.asarray(series, dtype=float)
    if data.size < 2:
        raise ValueError(f"need >= 2 points, got {data.size}")
    if not 0 < max_lag < data.size:
        raise ValueError(f"max_lag must be in (0, {data.size}), got {max_lag}")
    centered = data - data.mean()
    denom = float(np.dot(centered, centered))
    if denom == 0:
        # Constant series is perfectly correlated with itself.
        return np.ones(max_lag + 1)
    values = np.empty(max_lag + 1)
    values[0] = 1.0
    for lag in range(1, max_lag + 1):
        values[lag] = float(np.dot(centered[:-lag], centered[lag:])) / denom
    return values


def cross_correlation(
    a: Sequence[float], b: Sequence[float]
) -> float:
    """Pearson correlation between two equal-length feature series.

    The "correlations between different aspects of the workload" that
    in-breadth multi-subsystem models expose (paper §3.1).
    """
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if x.size != y.size:
        raise ValueError(f"length mismatch: {x.size} vs {y.size}")
    if x.size < 2:
        raise ValueError("need >= 2 points")
    if x.std() == 0 or y.std() == 0:
        return 0.0
    return float(np.corrcoef(x, y)[0, 1])


def dominant_period(
    series: Sequence[float], min_period: int = 2
) -> Optional[int]:
    """Dominant period of a series via the FFT periodogram.

    Returns None when no frequency carries at least twice the median
    spectral power (i.e. the series has no clear periodicity).
    """
    data = np.asarray(series, dtype=float)
    if data.size < 2 * min_period:
        raise ValueError(f"need >= {2 * min_period} points, got {data.size}")
    centered = data - data.mean()
    if np.allclose(centered, 0):
        return None
    power = np.abs(np.fft.rfft(centered)) ** 2
    power[0] = 0.0
    if power.size < 2:
        return None
    best = int(np.argmax(power))
    if best == 0:
        return None
    median = float(np.median(power[1:]))
    if median > 0 and power[best] < 10.0 * median:
        return None
    period = int(round(data.size / best))
    if period < min_period or period > data.size // 2:
        return None
    return period


def classify_utilization_pattern(
    series: Sequence[float],
    spiky_p99_ratio: float = 3.0,
    noisy_cov: float = 0.25,
) -> str:
    """Classify a utilization series as periodic / spiky / noisy / flat.

    Follows Abrahao et al.'s taxonomy for CPU-utilization patterns on
    shared clusters.  Precedence: a detectable period wins; otherwise a
    p99/median ratio above ``spiky_p99_ratio`` is spiky; otherwise a
    CoV above ``noisy_cov`` is noisy; else flat.
    """
    data = np.asarray(series, dtype=float)
    if data.size < 8:
        raise ValueError(f"need >= 8 points, got {data.size}")
    if dominant_period(data) is not None:
        return "periodic"
    median = float(np.median(data))
    p99 = float(np.percentile(data, 99))
    if median > 0 and p99 / median >= spiky_p99_ratio:
        return "spiky"
    mean = data.mean()
    if mean > 0 and data.std() / mean >= noisy_cov:
        return "noisy"
    return "flat"
