"""Principal component analysis for feature-space reduction.

The paper proposes reducing the model's feature-space dimensionality
"using techniques like PCA, SVD, sampling, or regression analysis"
(§4); Abrahao et al. use PCA to categorize large CPU-trace datasets.
Implemented from scratch on numpy (no sklearn on the box): centering +
SVD, with transform / inverse-transform and explained variance.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

__all__ = ["PCA"]


class PCA:
    """Fit/transform PCA via singular value decomposition.

    Components are rows of ``components_`` (like sklearn), sorted by
    explained variance.
    """

    def __init__(self, n_components: Optional[int] = None):
        if n_components is not None and n_components < 1:
            raise ValueError(f"n_components must be >= 1, got {n_components}")
        self.n_components = n_components
        self.mean_: Optional[np.ndarray] = None
        self.components_: Optional[np.ndarray] = None
        self.explained_variance_: Optional[np.ndarray] = None
        self.explained_variance_ratio_: Optional[np.ndarray] = None

    def fit(self, X: Sequence[Sequence[float]]) -> "PCA":
        """Learn components from an (n_samples, n_features) matrix."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"expected 2-D data, got shape {X.shape}")
        n_samples, n_features = X.shape
        if n_samples < 2:
            raise ValueError(f"need >= 2 samples, got {n_samples}")
        k = self.n_components or min(n_samples, n_features)
        if k > min(n_samples, n_features):
            raise ValueError(
                f"n_components={k} exceeds min(n_samples, n_features)="
                f"{min(n_samples, n_features)}"
            )
        self.mean_ = X.mean(axis=0)
        centered = X - self.mean_
        _, singular_values, vt = np.linalg.svd(centered, full_matrices=False)
        variances = singular_values**2 / (n_samples - 1)
        total = variances.sum()
        self.components_ = vt[:k]
        self.explained_variance_ = variances[:k]
        self.explained_variance_ratio_ = (
            variances[:k] / total if total > 0 else np.zeros(k)
        )
        return self

    def _check_fitted(self) -> None:
        if self.components_ is None:
            raise RuntimeError("PCA is not fitted; call fit() first")

    def transform(self, X: Sequence[Sequence[float]]) -> np.ndarray:
        """Project data onto the learned components."""
        self._check_fitted()
        X = np.asarray(X, dtype=float)
        return (X - self.mean_) @ self.components_.T

    def inverse_transform(self, Z: Sequence[Sequence[float]]) -> np.ndarray:
        """Reconstruct (approximately) original features from projections."""
        self._check_fitted()
        Z = np.asarray(Z, dtype=float)
        return Z @ self.components_ + self.mean_

    def reconstruction_error(self, X: Sequence[Sequence[float]]) -> float:
        """Mean squared reconstruction error of ``X`` through the PCA."""
        X = np.asarray(X, dtype=float)
        reconstructed = self.inverse_transform(self.transform(X))
        return float(np.mean((X - reconstructed) ** 2))
