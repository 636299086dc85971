"""Interarrival / service-time distribution fitting.

Implements Feitelson's recipe from the paper's network-modeling survey:
fit a battery of candidate distributions by maximum likelihood and rank
them by the Kolmogorov-Smirnov statistic against the data.  The winner
becomes the generative model for synthetic streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

__all__ = ["FittedDistribution", "fit_distribution", "CANDIDATE_FAMILIES"]

#: Families tried by default: the set Feitelson discusses for arrival
#: processes (exponential for Poisson, heavy-tailed and skewed
#: alternatives for everything real traffic does instead).
CANDIDATE_FAMILIES = ("expon", "gamma", "lognorm", "weibull_min", "pareto")


@dataclass(frozen=True)
class FittedDistribution:
    """One fitted family with its goodness-of-fit scores.

    Immutable, so the scipy frozen distribution is built once per
    instance: building one runs scipy's argument checks and docstring
    formatter, which used to dominate per-request arrival sampling.
    """

    family: str
    params: tuple[float, ...]
    ks_statistic: float
    ks_pvalue: float
    log_likelihood: float

    @cached_property
    def frozen(self):
        """The frozen scipy distribution for sampling/evaluation."""
        from scipy import stats

        return getattr(stats, self.family)(*self.params)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` values from the fitted distribution."""
        return np.maximum(0.0, self.frozen.rvs(size=n, random_state=rng))

    @property
    def mean(self) -> float:
        return float(self.frozen.mean())

    def describe(self) -> str:
        return (
            f"{self.family}{self.params} "
            f"KS={self.ks_statistic:.4f} p={self.ks_pvalue:.3f}"
        )


def _fit_family(family: str, data: np.ndarray) -> Optional[FittedDistribution]:
    from scipy import stats

    dist = getattr(stats, family)
    try:
        # Positive data: lock location at 0 for scale families so the
        # fit cannot place mass below zero.
        if family in ("expon", "gamma", "lognorm", "weibull_min"):
            params = dist.fit(data, floc=0.0)
        else:
            params = dist.fit(data)
        frozen = dist(*params)
        ks = stats.kstest(data, frozen.cdf)
        logpdf = frozen.logpdf(data)
        loglik = float(np.sum(logpdf[np.isfinite(logpdf)]))
        if not np.isfinite(ks.statistic):
            return None
        return FittedDistribution(
            family=family,
            params=tuple(float(p) for p in params),
            ks_statistic=float(ks.statistic),
            ks_pvalue=float(ks.pvalue),
            log_likelihood=loglik,
        )
    except Exception:
        # A family can legitimately fail to converge on pathological
        # data; it is simply excluded from the ranking.
        return None


def fit_distribution(
    samples: Sequence[float],
    families: Sequence[str] = CANDIDATE_FAMILIES,
) -> FittedDistribution:
    """Fit every candidate family and return the best by KS statistic.

    Raises ``ValueError`` if no family converges or the input is
    degenerate (fewer than 8 samples, or constant data — fit a
    deterministic model yourself in that case).
    """
    data = np.asarray(samples, dtype=float)
    data = data[np.isfinite(data)]
    data = data[data > 0]
    if data.size < 8:
        raise ValueError(f"need >= 8 positive samples, got {data.size}")
    if np.ptp(data) == 0:
        raise ValueError("constant data: distribution fitting is meaningless")
    fits = [_fit_family(family, data) for family in families]
    fits = [f for f in fits if f is not None]
    if not fits:
        raise ValueError("no candidate family could be fitted")
    return min(fits, key=lambda f: f.ks_statistic)
