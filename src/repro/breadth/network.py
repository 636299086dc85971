"""In-breadth network modeling (Feitelson; Sengupta et al.).

Characterizes and models the request-arrival stream at a server:
KS-selected interarrival distribution fitting, request-size modeling,
burstiness / self-similarity characterization, and synthetic arrival
generation.  ``poissonness`` quantifies how far the stream diverges
from Poisson (Sengupta et al.'s headline observation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..markov import MarkovChain, QuantileDiscretizer
from ..queueing import (
    DistributionArrivals,
    EmpiricalArrivals,
    FittedDistribution,
    fit_distribution,
)
from ..stats import (
    arrivals_to_counts,
    hurst_rs,
    index_of_dispersion,
    interarrival_cov,
)
from ..tracing import NetworkRecord

__all__ = ["NetworkCharacterization", "NetworkTrafficModel"]


@dataclass(frozen=True)
class NetworkCharacterization:
    """Feitelson-style fingerprint of an arrival stream."""

    n_messages: int
    mean_rate: float
    interarrival_cov: float
    index_of_dispersion: float
    hurst: Optional[float]
    mean_size: float
    best_fit_family: Optional[str]
    ks_statistic: Optional[float]

    @property
    def poissonness(self) -> float:
        """How Poisson the stream looks: 1.0 = exactly (CoV and IDC
        both 1); larger values = burstier."""
        return max(self.interarrival_cov, self.index_of_dispersion)


class NetworkTrafficModel:
    """Fit + generate model for one server's arrival stream."""

    def __init__(self, size_bins: int = 6):
        self.size_bins = size_bins
        self.size_discretizer = QuantileDiscretizer(size_bins)
        self.size_chain: Optional[MarkovChain] = None
        self.interarrival_fit: Optional[FittedDistribution] = None
        self._interarrivals: Optional[np.ndarray] = None
        self.characterization: Optional[NetworkCharacterization] = None

    @staticmethod
    def _arrival_records(
        records: Sequence[NetworkRecord],
    ) -> list[NetworkRecord]:
        arrivals = [r for r in records if r.direction == "rx"]
        return sorted(arrivals, key=lambda r: r.timestamp)

    def fit(self, records: Sequence[NetworkRecord]) -> "NetworkTrafficModel":
        """Train on a network trace (uses the rx/arrival direction)."""
        arrivals = self._arrival_records(records)
        if len(arrivals) < 16:
            raise ValueError(f"need >= 16 arrivals, got {len(arrivals)}")
        times = np.array([r.timestamp for r in arrivals])
        gaps = np.diff(times)
        gaps = gaps[gaps >= 0]
        self._interarrivals = gaps[gaps > 0]
        sizes = [r.size_bytes for r in arrivals]
        self.size_discretizer.fit(sizes)
        states = [int(s) for s in self.size_discretizer.transform(sizes)]
        self.size_chain = MarkovChain.from_sequence(states)

        try:
            self.interarrival_fit = fit_distribution(self._interarrivals)
        except ValueError:
            self.interarrival_fit = None

        span = times[-1] - times[0]
        bin_width = max(span / 64.0, float(np.median(gaps)) * 4 if gaps.size else 1.0)
        hurst = None
        try:
            counts = arrivals_to_counts(times, span / 256.0 if span > 0 else 1.0)
            hurst = hurst_rs(counts)
        except ValueError:
            pass
        self.characterization = NetworkCharacterization(
            n_messages=len(arrivals),
            mean_rate=len(arrivals) / span if span > 0 else 0.0,
            interarrival_cov=interarrival_cov(self._interarrivals),
            index_of_dispersion=index_of_dispersion(times, bin_width),
            hurst=hurst,
            mean_size=float(np.mean(sizes)),
            best_fit_family=(
                self.interarrival_fit.family if self.interarrival_fit else None
            ),
            ks_statistic=(
                self.interarrival_fit.ks_statistic if self.interarrival_fit else None
            ),
        )
        return self

    def _check_fitted(self) -> None:
        if self.size_chain is None:
            raise RuntimeError("model is not fitted; call fit() first")

    def arrival_process(self, rng: np.random.Generator):
        """An :class:`ArrivalProcess` reproducing the fitted stream.

        Uses the KS-selected distribution when one converged, falling
        back to empirical bootstrap.
        """
        self._check_fitted()
        if self.interarrival_fit is not None:
            return DistributionArrivals(self.interarrival_fit, rng)
        return EmpiricalArrivals(self._interarrivals, rng)

    def generate(
        self, n: int, rng: np.random.Generator
    ) -> list[tuple[float, int]]:
        """Synthetic (arrival_time, size_bytes) pairs."""
        self._check_fitted()
        process = self.arrival_process(rng)
        path = self.size_chain.sample_path(n, rng)
        out = []
        t = 0.0
        for state in path:
            t += process.next_interarrival()
            size = max(1, int(self.size_discretizer.representative(state)))
            out.append((t, size))
        return out
