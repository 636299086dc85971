"""Burstiness and stationarity metrics for request streams.

Feitelson's feature list for DC arrivals — stationarity, burstiness —
realized as: coefficient of variation of interarrivals, index of
dispersion for counts (IDC), peak-to-mean ratio, and a simple
split-half stationarity test.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .selfsim import arrivals_to_counts

__all__ = [
    "index_of_dispersion",
    "interarrival_cov",
    "peak_to_mean",
    "stationarity_pvalue",
]


def interarrival_cov(interarrivals: Sequence[float]) -> float:
    """Coefficient of variation of interarrival times.

    1.0 for Poisson; substantially above 1 indicates burstiness.
    """
    gaps = np.asarray(interarrivals, dtype=float)
    if gaps.size < 2:
        raise ValueError(f"need >= 2 interarrivals, got {gaps.size}")
    mean = gaps.mean()
    if mean <= 0:
        raise ValueError("mean interarrival must be positive")
    return float(gaps.std(ddof=1) / mean)


def index_of_dispersion(
    arrival_times: Sequence[float],
    bin_width: float,
    origin: float | None = None,
) -> float:
    """IDC: variance over mean of per-bin arrival counts.

    1.0 for Poisson at any timescale; grows with timescale for
    self-similar traffic.  ``origin`` anchors the count bins (see
    :func:`repro.stats.arrivals_to_counts`).
    """
    counts = arrivals_to_counts(arrival_times, bin_width, origin=origin)
    mean = counts.mean()
    if mean <= 0:
        raise ValueError("no arrivals in the binned window")
    return float(counts.var() / mean)


def peak_to_mean(
    arrival_times: Sequence[float],
    bin_width: float,
    origin: float | None = None,
) -> float:
    """Peak-bin rate over mean rate — the provisioning headroom metric."""
    counts = arrivals_to_counts(arrival_times, bin_width, origin=origin)
    mean = counts.mean()
    if mean <= 0:
        raise ValueError("no arrivals in the binned window")
    return float(counts.max() / mean)


def stationarity_pvalue(series: Sequence[float]) -> float:
    """Welch test p-value for a mean shift between the series' halves.

    Small p-values reject stationarity (the non-stationary diurnal
    patterns Tang et al. model explicitly).  This is a deliberately
    simple screen, not a substitute for a full unit-root test.
    """
    data = np.asarray(series, dtype=float)
    if data.size < 8:
        raise ValueError(f"need >= 8 points, got {data.size}")
    half = data.size // 2
    first, second = data[:half], data[half:]
    if first.std() == 0 and second.std() == 0:
        return 1.0 if np.isclose(first.mean(), second.mean()) else 0.0
    from scipy import stats

    result = stats.ttest_ind(first, second, equal_var=False)
    return float(result.pvalue)
