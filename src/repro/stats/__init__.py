"""Statistics toolkit for workload characterization and modeling.

Implements the analysis machinery the surveyed modeling papers rely
on: distribution summaries and heavy-tail detection, self-similarity
(Hurst) estimation, burstiness and stationarity metrics, ACF and
utilization-pattern classification, PCA, k-means / Gaussian-mixture
clustering with BIC selection, and the mergeable streaming accumulators
the characterization folds.
"""

# Quiet compatibility alias: the canonical constant is
# repro.snapshot.SNAPSHOT_VERSION (the repro.stats.streaming attribute of
# the old name still works but warns).
from ..snapshot import SNAPSHOT_VERSION as STREAMING_STATE_VERSION

from .. import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    ".burstiness": (
        "index_of_dispersion", "interarrival_cov", "peak_to_mean",
        "stationarity_pvalue",
    ),
    ".clustering": ("GaussianMixture", "KMeans", "select_components_bic"),
    ".correlation": (
        "acf", "classify_utilization_pattern", "cross_correlation",
        "dominant_period",
    ),
    ".distributions": (
        "SampleSummary", "hill_estimator", "ks_distance", "ks_two_sample",
        "summarize",
    ),
    ".pca": ("PCA",),
    ".selfsim": (
        "arrivals_to_counts", "hurst_aggregated_variance", "hurst_rs",
    ),
    ".streaming": (
        "CategoricalCounter", "CoMomentsAccumulator", "ExactQuantiles",
        "MomentsAccumulator", "ReservoirQuantile", "SeekStats",
        "SlidingWindowCounter", "WindowedCounter",
    ),
})

__all__ = [
    "CategoricalCounter",
    "CoMomentsAccumulator",
    "ExactQuantiles",
    "GaussianMixture",
    "KMeans",
    "MomentsAccumulator",
    "PCA",
    "ReservoirQuantile",
    "SampleSummary",
    "STREAMING_STATE_VERSION",
    "SeekStats",
    "SlidingWindowCounter",
    "WindowedCounter",
    "acf",
    "arrivals_to_counts",
    "classify_utilization_pattern",
    "cross_correlation",
    "dominant_period",
    "hill_estimator",
    "hurst_aggregated_variance",
    "hurst_rs",
    "index_of_dispersion",
    "interarrival_cov",
    "ks_distance",
    "ks_two_sample",
    "peak_to_mean",
    "select_components_bic",
    "stationarity_pvalue",
    "summarize",
]
