"""Arrival processes for open-loop workload generation.

The paper's network model is "a simple queueing model to represent the
arrival-rate of user-requests"; Sengupta et al. (its network-modeling
survey) stress that real DC traffic often diverges from Poisson.  This
module provides the spectrum used in the benches: deterministic,
Poisson, empirical (trace bootstrap), Markov-modulated Poisson (bursty)
and a multiplicative-cascade self-similar process.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "ArrivalProcess",
    "BModelArrivals",
    "DeterministicArrivals",
    "DistributionArrivals",
    "EmpiricalArrivals",
    "MMPPArrivals",
    "PoissonArrivals",
]


class ArrivalProcess:
    """Base class: a stream of interarrival times.

    Subclasses implement :meth:`next_interarrival`; :meth:`sample`
    vectorizes it for fitting and analysis.
    """

    def next_interarrival(self) -> float:
        raise NotImplementedError

    def sample(self, n: int) -> np.ndarray:
        """Draw ``n`` consecutive interarrival times."""
        return np.array([self.next_interarrival() for _ in range(n)])

    @property
    def mean_rate(self) -> float:
        """Long-run arrivals per unit time."""
        raise NotImplementedError


class DeterministicArrivals(ArrivalProcess):
    """Evenly spaced arrivals at a fixed rate."""

    def __init__(self, rate: float):
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        self.rate = rate

    def next_interarrival(self) -> float:
        return 1.0 / self.rate

    @property
    def mean_rate(self) -> float:
        return self.rate


class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals: exponential interarrival times."""

    def __init__(self, rate: float, rng: np.random.Generator):
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        self.rate = rate
        self.rng = rng

    def next_interarrival(self) -> float:
        return float(self.rng.exponential(1.0 / self.rate))

    @property
    def mean_rate(self) -> float:
        return self.rate


class DistributionArrivals(ArrivalProcess):
    """Interarrivals drawn i.i.d. from a fitted or scipy distribution.

    A :class:`~repro.queueing.fitting.FittedDistribution` draws each gap
    with :meth:`~repro.queueing.fitting.FittedDistribution.draw`: the
    value and generator state scipy's scalar ``rvs()`` would give,
    without its per-call checks.  Any other distribution (a scipy
    frozen one) draws with its ``rvs``.
    """

    def __init__(self, distribution, rng: np.random.Generator):
        # At call time: collect loads this module and never fits.
        from .fitting import FittedDistribution

        self.distribution = distribution
        self.rng = rng
        if isinstance(distribution, FittedDistribution):
            self._draw = distribution.draw
            self._mean = distribution.mean
        else:
            self._draw = lambda rng: float(
                max(0.0, distribution.rvs(random_state=rng))
            )
            self._mean = float(distribution.mean())
        if not np.isfinite(self._mean) or self._mean <= 0:
            raise ValueError("distribution must have a positive finite mean")

    def next_interarrival(self) -> float:
        return self._draw(self.rng)

    @property
    def mean_rate(self) -> float:
        return 1.0 / self._mean


class EmpiricalArrivals(ArrivalProcess):
    """Bootstrap resampling of observed interarrival times."""

    def __init__(self, interarrivals: Sequence[float], rng: np.random.Generator):
        samples = np.asarray(interarrivals, dtype=float)
        if samples.size == 0:
            raise ValueError("need at least one observed interarrival")
        if np.any(samples < 0):
            raise ValueError("interarrival times must be non-negative")
        self.samples = samples
        self.rng = rng

    def next_interarrival(self) -> float:
        return float(self.samples[self.rng.integers(0, self.samples.size)])

    @property
    def mean_rate(self) -> float:
        return 1.0 / float(self.samples.mean())


class MMPPArrivals(ArrivalProcess):
    """Two-state Markov-modulated Poisson process.

    Alternates between a quiet and a bursty phase with exponentially
    distributed sojourns — the standard parsimonious model for the
    bursty, non-Poisson traffic Sengupta et al. observe.
    """

    def __init__(
        self,
        rates: Sequence[float],
        mean_sojourns: Sequence[float],
        rng: np.random.Generator,
    ):
        self.rates = [float(r) for r in rates]
        self.mean_sojourns = [float(s) for s in mean_sojourns]
        if len(self.rates) != 2 or len(self.mean_sojourns) != 2:
            raise ValueError("MMPP here is two-state: pass 2 rates, 2 sojourns")
        if min(self.rates) <= 0 or min(self.mean_sojourns) <= 0:
            raise ValueError("rates and sojourns must be positive")
        self.rng = rng
        self._state = 0
        self._time_to_switch = float(rng.exponential(self.mean_sojourns[0]))

    def next_interarrival(self) -> float:
        elapsed = 0.0
        while True:
            gap = float(self.rng.exponential(1.0 / self.rates[self._state]))
            if gap < self._time_to_switch:
                self._time_to_switch -= gap
                return elapsed + gap
            # Phase switches before the next arrival: spend the
            # remaining sojourn, flip state, redraw in the new phase.
            elapsed += self._time_to_switch
            self._state = 1 - self._state
            self._time_to_switch = float(
                self.rng.exponential(self.mean_sojourns[self._state])
            )

    @property
    def mean_rate(self) -> float:
        s0, s1 = self.mean_sojourns
        p0 = s0 / (s0 + s1)
        return p0 * self.rates[0] + (1 - p0) * self.rates[1]


class BModelArrivals(ArrivalProcess):
    """Self-similar arrivals via a multiplicative b-model cascade.

    A horizon of ``horizon`` seconds carrying ``rate * horizon``
    arrivals is split recursively, each split sending fraction ``bias``
    of the mass to a random half.  ``bias = 0.5`` degenerates to
    near-uniform traffic; values toward 0.9 produce strong burstiness
    and long-range dependence, matching the self-similarity reported
    for DC request streams.
    """

    def __init__(
        self,
        rate: float,
        rng: np.random.Generator,
        bias: float = 0.75,
        horizon: float = 60.0,
        depth: int = 12,
    ):
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        if not 0.5 <= bias < 1.0:
            raise ValueError(f"bias must be in [0.5, 1), got {bias}")
        self.rate = rate
        self.bias = bias
        self.horizon = horizon
        self.depth = depth
        self.rng = rng
        self._pending: list[float] = []
        self._last_arrival = 0.0
        self._epoch_start = 0.0

    def _generate_epoch(self) -> None:
        total = max(1, int(round(self.rate * self.horizon)))
        counts = np.array([float(total)])
        for _ in range(self.depth):
            left = np.where(
                self.rng.random(counts.size) < 0.5, self.bias, 1.0 - self.bias
            )
            counts = np.concatenate([counts * left, counts * (1.0 - left)])
            # Interleave so left/right halves alternate correctly.
            counts = counts.reshape(2, -1).T.ravel()
        cell = self.horizon / counts.size
        arrivals = []
        for i, c in enumerate(self.rng.poisson(counts)):
            if c > 0:
                offsets = self.rng.random(c) * cell
                arrivals.extend(self._epoch_start + i * cell + np.sort(offsets))
        self._epoch_start += self.horizon
        if not arrivals:
            # Degenerate epoch with zero arrivals: recurse into the next.
            self._generate_epoch()
            return
        self._pending = list(arrivals)

    def next_interarrival(self) -> float:
        while not self._pending:
            self._generate_epoch()
        arrival = self._pending.pop(0)
        gap = arrival - self._last_arrival
        self._last_arrival = arrival
        return max(0.0, gap)

    @property
    def mean_rate(self) -> float:
        return self.rate
