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


#: Shape-parameter count of each family :func:`_standard_draw` covers.
_SHAPE_COUNTS = {"expon": 0, "gamma": 1, "lognorm": 1, "weibull_min": 1, "pareto": 1}


def _standard_draw(family: str, shapes: tuple):
    """``(rng, size) -> values`` of ``family`` at loc 0 and scale 1.

    Each is the expression scipy's ``_rvs`` evaluates for the family,
    with the operands of the types scipy hands it, so the values, their
    order and the generator state after them are scipy's.  ``size=None``
    is scipy's scalar ``rvs()`` form; for ``weibull_min`` and ``pareto``
    it differs from a one-element array in the last bit, as scipy's does
    (numpy-scalar ``pow`` against the ``power`` ufunc).
    """
    if family == "expon":
        return lambda rng, size: rng.standard_exponential(size)
    (shape,) = shapes
    if family == "gamma":
        return lambda rng, size: rng.standard_gamma(shape, size)
    if family == "lognorm":
        return lambda rng, size: np.exp(shape * rng.standard_normal(size))
    if family == "weibull_min":
        # scipy.special's log1p, not numpy's: their last bits differ.
        from scipy.special import log1p

        power = 1.0 / shape
        return lambda rng, size: pow(-log1p(-rng.uniform(size=size)), power)
    power = -1.0 / shape  # pareto
    return lambda rng, size: pow(1 - rng.uniform(size=size), power)


@dataclass(frozen=True)
class FittedDistribution:
    """One fitted family with its goodness-of-fit scores.

    Immutable, so the sampler is checked and built once per instance.
    The families in :data:`CANDIDATE_FAMILIES` draw through a numpy
    table that gives scipy's ``rvs`` values without its per-call
    argument parsing and checks; any other family draws with the scipy
    frozen distribution.
    """

    family: str
    params: tuple[float, ...]
    ks_statistic: float
    ks_pvalue: float
    log_likelihood: float

    @cached_property
    def frozen(self):
        """The frozen scipy distribution: ``mean``, and the draws of a
        family outside the table."""
        from scipy import stats

        return getattr(stats, self.family)(*self.params)

    @cached_property
    def _sampler(self):
        """``(standard draw, loc, scale)``, or None outside the table.

        Raises scipy's ``ValueError`` for a shape <= 0 or a scale < 0
        (NaN fails both checks), on every draw, as ``rvs`` does.
        """
        count = _SHAPE_COUNTS.get(self.family)
        if count is None:
            return None
        params = tuple(np.float64(p) for p in self.params)
        shapes, rest = params[:count], params[count:]
        # loc and scale default to 0 and 1, as in scipy.
        loc, scale = rest + (np.float64(0.0), np.float64(1.0))[len(rest) :]
        if not (all(shape > 0 for shape in shapes) and scale >= 0):
            raise ValueError(
                "Domain error in arguments. The `scale` parameter must "
                "be positive for all distributions, and many "
                "distributions have restrictions on shape parameters. "
                f"Please see the `scipy.stats.{self.family}` "
                "documentation for details."
            )
        return _standard_draw(self.family, shapes), loc, scale

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` values: ``frozen.rvs(size=n)`` clipped at 0."""
        sampler = self._sampler
        if sampler is None:
            return np.maximum(0.0, self.frozen.rvs(size=n, random_state=rng))
        standard, loc, scale = sampler
        if scale == 0:  # scipy returns loc and draws nothing
            return np.maximum(0.0, loc * np.ones(n))
        return np.maximum(0.0, standard(rng, n) * scale + loc)

    def draw(self, rng: np.random.Generator) -> float:
        """One value: scipy's scalar ``frozen.rvs()`` clipped at 0."""
        sampler = self._sampler
        if sampler is None:
            value = self.frozen.rvs(random_state=rng)
        else:
            standard, loc, scale = sampler
            value = loc if scale == 0 else standard(rng, None) * scale + loc
        return float(max(0.0, value))

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
