"""Tests for PCA and clustering."""

import numpy as np
import pytest

from repro.stats import (
    PCA,
    GaussianMixture,
    KMeans,
    select_components_bic,
)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


# -- PCA ------------------------------------------------------------------


def test_pca_orders_components_by_variance(rng):
    X = rng.normal(0, 1, (400, 3)) * np.array([10.0, 1.0, 0.1])
    pca = PCA().fit(X)
    assert np.all(np.diff(pca.explained_variance_) <= 1e-9)
    assert pca.explained_variance_ratio_[0] > 0.9


def test_pca_round_trip_full_rank(rng):
    X = rng.normal(0, 1, (50, 4))
    pca = PCA(4).fit(X)
    reconstructed = pca.inverse_transform(pca.transform(X))
    assert np.allclose(reconstructed, X, atol=1e-8)


def test_pca_reconstruction_error_decreases_with_components(rng):
    X = rng.normal(0, 1, (300, 5)) @ rng.normal(0, 1, (5, 5))
    errors = [PCA(k).fit(X).reconstruction_error(X) for k in (1, 3, 5)]
    assert errors[0] >= errors[1] >= errors[2]
    assert errors[2] == pytest.approx(0.0, abs=1e-12)


def test_pca_validation(rng):
    with pytest.raises(ValueError):
        PCA(0)
    with pytest.raises(ValueError):
        PCA().fit(np.zeros((1, 3)))
    with pytest.raises(ValueError):
        PCA(10).fit(rng.normal(0, 1, (5, 3)))
    with pytest.raises(RuntimeError):
        PCA(1).transform([[1.0, 2.0]])


def test_pca_components_orthonormal(rng):
    X = rng.normal(0, 1, (200, 4))
    pca = PCA(3).fit(X)
    gram = pca.components_ @ pca.components_.T
    assert np.allclose(gram, np.eye(3), atol=1e-8)


# -- KMeans --------------------------------------------------------------


def test_kmeans_recovers_separated_clusters(rng):
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    X = np.vstack([rng.normal(c, 0.3, (60, 2)) for c in centers])
    km = KMeans(3, rng).fit(X)
    found = km.centers_[np.argsort(km.centers_.sum(axis=1))]
    expected = centers[np.argsort(centers.sum(axis=1))]
    assert np.allclose(found, expected, atol=0.5)


def test_kmeans_predict_consistent_with_fit(rng):
    X = np.vstack([rng.normal(0, 0.1, (30, 2)), rng.normal(5, 0.1, (30, 2))])
    km = KMeans(2, rng).fit(X)
    assert np.array_equal(km.predict(X), km.labels_)


def test_kmeans_validation(rng):
    with pytest.raises(ValueError):
        KMeans(0, rng)
    with pytest.raises(ValueError):
        KMeans(5, rng).fit(np.zeros((3, 2)))
    with pytest.raises(RuntimeError):
        KMeans(2, rng).predict([[0.0, 0.0]])


# -- GaussianMixture -------------------------------------------------------


def test_gmm_fits_bimodal_data(rng):
    X = np.concatenate([rng.normal(0, 1, 300), rng.normal(12, 1, 300)])[:, None]
    gm = GaussianMixture(2, rng).fit(X)
    means = np.sort(gm.means_.ravel())
    assert means[0] == pytest.approx(0.0, abs=0.5)
    assert means[1] == pytest.approx(12.0, abs=0.5)


def test_gmm_sample_matches_fit(rng):
    X = np.concatenate([rng.normal(0, 1, 400), rng.normal(20, 1, 400)])[:, None]
    gm = GaussianMixture(2, rng).fit(X)
    synthetic = gm.sample(2000).ravel()
    # Synthetic data should be bimodal at roughly the same locations.
    low = synthetic[synthetic < 10]
    high = synthetic[synthetic >= 10]
    assert abs(low.mean() - 0.0) < 0.6
    assert abs(high.mean() - 20.0) < 0.6


def test_bic_selects_correct_component_count(rng):
    X = np.concatenate(
        [rng.normal(0, 0.5, 250), rng.normal(6, 0.5, 250), rng.normal(12, 0.5, 250)]
    )[:, None]
    gm = select_components_bic(X, rng, max_components=6)
    assert gm.n_components == 3


def test_gmm_validation(rng):
    with pytest.raises(ValueError):
        GaussianMixture(0, rng)
    with pytest.raises(ValueError):
        GaussianMixture(5, rng).fit(np.zeros((2, 1)))

