"""Autocorrelation-matching arrival generation (Li's second phase).

Li's grid-workload pipeline fits marginal distributions *and then*
"generates autocorrelations that match the real data to create
synthetic workloads" — precisely what a renewal (i.i.d.) interarrival
model cannot do, and why it fails on self-similar traffic (see the A7
bench).  :class:`CopulaArrivals` implements the standard fix: a
Gaussian copula whose latent AR(p) process matches the interarrival
autocorrelation, pushed through the empirical marginal so interarrival
*values* keep their exact distribution while their *ordering* keeps
its correlation structure.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..stats import acf
from .arrivals import ArrivalProcess

__all__ = ["CopulaArrivals", "fit_ar_coefficients"]


def fit_ar_coefficients(series: Sequence[float], order: int) -> np.ndarray:
    """Yule-Walker AR(p) coefficients from a (latent) series.

    Solves the Toeplitz system R a = r over autocorrelations.  The
    returned coefficients are clipped to a stationary solution by
    shrinking toward zero if the companion-matrix spectral radius
    reaches 1.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    data = np.asarray(series, dtype=float)
    if data.size < 4 * order:
        raise ValueError(f"need >= {4 * order} samples, got {data.size}")
    rho = acf(data, max_lag=order)
    R = np.array([[rho[abs(i - j)] for j in range(order)] for i in range(order)])
    r = rho[1 : order + 1]
    try:
        coefficients = np.linalg.solve(R + 1e-9 * np.eye(order), r)
    except np.linalg.LinAlgError:
        coefficients = np.zeros(order)

    def spectral_radius(a: np.ndarray) -> float:
        companion = np.zeros((order, order))
        companion[0] = a
        if order > 1:
            companion[1:, :-1] = np.eye(order - 1)
        return float(np.max(np.abs(np.linalg.eigvals(companion))))

    while spectral_radius(coefficients) >= 0.999:
        coefficients *= 0.95
    return coefficients


class CopulaArrivals(ArrivalProcess):
    """Empirical-marginal arrivals with AR(p)-matched autocorrelation."""

    def __init__(
        self,
        interarrivals: Sequence[float],
        rng: np.random.Generator,
        order: int = 8,
    ):
        samples = np.asarray(interarrivals, dtype=float)
        samples = samples[samples > 0]
        if samples.size < max(16, 4 * order):
            raise ValueError(
                f"need >= {max(16, 4 * order)} positive interarrivals, "
                f"got {samples.size}"
            )
        self.rng = rng
        self.order = order
        self._sorted = np.sort(samples)
        from scipy import special, stats

        # ndtr is what stats.norm.cdf evaluates, without its per-call
        # argument handling.
        self._norm_cdf = special.ndtr
        # Latent normal scores of the observed sequence (rank transform).
        ranks = stats.rankdata(samples, method="average")
        uniforms = ranks / (samples.size + 1.0)
        latent = stats.norm.ppf(uniforms)
        self.coefficients = fit_ar_coefficients(latent, order)
        residual_var = 1.0 - float(
            self.coefficients @ acf(latent, max_lag=order)[1 : order + 1]
        )
        self._residual_std = float(np.sqrt(max(residual_var, 1e-6)))
        self._state = list(latent[-order:][::-1])  # most recent first

    def _quantile(self, u: float) -> float:
        """Empirical quantile of the interarrival marginal."""
        index = u * (self._sorted.size - 1)
        low = int(np.floor(index))
        high = min(low + 1, self._sorted.size - 1)
        frac = index - low
        return float(
            self._sorted[low] * (1.0 - frac) + self._sorted[high] * frac
        )

    def next_interarrival(self) -> float:
        z = float(
            np.dot(self.coefficients, self._state[: self.order])
            + self.rng.normal(0.0, self._residual_std)
        )
        self._state.insert(0, z)
        del self._state[self.order :]
        u = float(self._norm_cdf(z))
        u = min(max(u, 1e-9), 1.0 - 1e-9)
        return self._quantile(u)

    @property
    def mean_rate(self) -> float:
        return 1.0 / float(self._sorted.mean())
