"""Continuous-feature discretization into Markov states.

The detail of a KOOZA model is configurable: each continuous feature
(request size, LBN position, CPU utilization) is quantized into a
configurable number of bins, and each bin remembers a representative
value so synthetic generation can decode states back into concrete
feature values.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

__all__ = ["QuantileDiscretizer"]


class QuantileDiscretizer:
    """Equal-frequency binning with per-bin representative values.

    Quantile (rather than uniform-width) bins keep resolution where the
    data mass is — essential for the heavy-tailed size distributions DC
    workloads exhibit.  Duplicate quantile edges (very discrete data)
    collapse, so the effective bin count can be below ``n_bins``.
    """

    def __init__(self, n_bins: int = 8):
        if n_bins < 1:
            raise ValueError(f"n_bins must be >= 1, got {n_bins}")
        self.n_bins = n_bins
        self.edges_: Optional[np.ndarray] = None
        self.representatives_: Optional[np.ndarray] = None

    def fit(self, values: Sequence[float]) -> "QuantileDiscretizer":
        """Learn bin edges and representatives from training values."""
        data = np.asarray(values, dtype=float)
        if data.size == 0:
            raise ValueError("cannot fit on empty data")
        unique = np.unique(data)
        if unique.size <= self.n_bins:
            # Low-cardinality data (e.g. two fixed request sizes): one
            # exact bin per distinct value, so nothing gets merged.
            if unique.size == 1:
                edges = np.array([unique[0], unique[0] + 1.0])
            else:
                midpoints = (unique[:-1] + unique[1:]) / 2.0
                edges = np.concatenate([[unique[0]], midpoints, [unique[-1] + 1.0]])
        else:
            quantiles = np.linspace(0.0, 1.0, self.n_bins + 1)
            edges = np.unique(np.quantile(data, quantiles))
            if edges.size < 2:
                edges = np.array([edges[0], edges[0] + 1.0])
        self.edges_ = edges
        # Representative of each bin: mean of the training values in it.
        assignments = self._assign(data, edges)
        reps = np.empty(edges.size - 1)
        for b in range(edges.size - 1):
            members = data[assignments == b]
            if members.size:
                reps[b] = members.mean()
            else:
                reps[b] = 0.5 * (edges[b] + edges[b + 1])
        # Float summation can nudge a mean (or a midpoint between two
        # adjacent floats) onto or past the bin's right edge, breaking
        # the transform(representative(b)) == b round trip.  Clamp each
        # representative into its half-open bin; the last bin is closed
        # on the right by _assign's clipping, so its edge is fine.
        for b in range(edges.size - 2):
            hi = np.nextafter(edges[b + 1], -np.inf)
            reps[b] = min(max(reps[b], edges[b]), hi)
        reps[-1] = max(reps[-1], edges[-2])
        self.representatives_ = reps
        return self

    @staticmethod
    def _assign(data: np.ndarray, edges: np.ndarray) -> np.ndarray:
        indices = np.searchsorted(edges, data, side="right") - 1
        return np.clip(indices, 0, edges.size - 2)

    def _check_fitted(self) -> None:
        if self.edges_ is None:
            raise RuntimeError("discretizer is not fitted; call fit() first")

    @property
    def effective_bins(self) -> int:
        """Actual number of bins after duplicate-edge collapsing."""
        self._check_fitted()
        return self.edges_.size - 1

    def transform(self, values: Sequence[float]) -> np.ndarray:
        """Map values to bin indices."""
        self._check_fitted()
        data = np.asarray(values, dtype=float)
        return self._assign(data, self.edges_)

    def transform_one(self, value: float) -> int:
        """Bin index of a single value."""
        return int(self.transform([value])[0])

    def representative(self, bin_index: int) -> float:
        """Decode a bin index to its representative value."""
        self._check_fitted()
        if not 0 <= bin_index < self.representatives_.size:
            raise IndexError(
                f"bin {bin_index} out of range [0, {self.representatives_.size})"
            )
        return float(self.representatives_[bin_index])
