"""Stochastic Queueing Simulation (Meisner et al., surveyed in §2.2).

SQS "is based on queuing theory and statistical sampling to derive
system models that scale well to thousands of machines": an online
characterization phase builds empirical workload models (task arrival
rate and duration), and an evaluation phase simulates the queueing
network *just long enough* — stopping when the metric's confidence
interval converges, instead of running a fixed horizon.

:class:`SqsEvaluator` implements that loop with the batch-means method
on top of the repository's queueing-network simulator: batches of
requests are simulated until the 95% confidence half-width of the mean
latency falls below a relative tolerance, and per-server sampling
covers large clusters by simulating a machine sample rather than every
machine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..queueing import EmpiricalArrivals, QueueingNetwork, Station
from ..simulation import Environment
from ..tracing import TraceSet

__all__ = ["SqsEvaluator", "SqsResult", "SqsWorkloadModel"]


@dataclass
class SqsWorkloadModel:
    """Phase 1: the empirical workload model (arrivals + service).

    Both distributions are kept as raw samples and bootstrapped, the
    "empirical workload models constructed in an online manner" of the
    paper's description.
    """

    interarrivals: np.ndarray
    service_times: np.ndarray

    @classmethod
    def characterize(cls, traces: TraceSet) -> "SqsWorkloadModel":
        """Build the model from request records (arrival + duration)."""
        requests = traces.completed_requests()
        if len(requests) < 16:
            raise ValueError(f"need >= 16 requests, got {len(requests)}")
        arrivals = np.sort([r.arrival_time for r in requests])
        gaps = np.diff(arrivals)
        gaps = gaps[gaps > 0]
        # Service demand approximated by low-queueing latencies: the
        # fastest half of requests are the least queued observations.
        latencies = np.sort([r.latency for r in requests])
        services = latencies[: max(8, latencies.size // 2)]
        return cls(interarrivals=gaps, service_times=services)

    @property
    def arrival_rate(self) -> float:
        return 1.0 / float(self.interarrivals.mean())

    @property
    def mean_service(self) -> float:
        return float(self.service_times.mean())


@dataclass
class SqsResult:
    """Converged estimate with its confidence interval."""

    mean_latency: float
    ci_halfwidth: float
    batches: int
    requests_simulated: int
    converged: bool

    @property
    def relative_halfwidth(self) -> float:
        return self.ci_halfwidth / self.mean_latency if self.mean_latency else 0.0


class SqsEvaluator:
    """Phase 2: simulate until the latency estimate converges."""

    def __init__(
        self,
        model: SqsWorkloadModel,
        servers_per_machine: int = 1,
        batch_size: int = 400,
        relative_tolerance: float = 0.05,
        confidence: float = 0.95,
        max_batches: int = 50,
        min_batches: int = 4,
    ):
        if batch_size < 10:
            raise ValueError(f"batch size must be >= 10, got {batch_size}")
        if not 0.0 < relative_tolerance < 1.0:
            raise ValueError("relative tolerance must be in (0, 1)")
        if not 0.5 < confidence < 1.0:
            raise ValueError("confidence must be in (0.5, 1)")
        if min_batches < 2:
            raise ValueError("need >= 2 batches for a variance estimate")
        self.model = model
        self.servers_per_machine = servers_per_machine
        self.batch_size = batch_size
        self.relative_tolerance = relative_tolerance
        self.confidence = confidence
        self.max_batches = max_batches
        self.min_batches = min_batches

    def _simulate_batch(self, rng: np.random.Generator) -> float:
        """One independent replication; returns its mean latency."""
        env = Environment()
        services = self.model.service_times

        def sampler(_cls: str, r: np.random.Generator) -> float:
            return float(services[r.integers(0, services.size)])

        network = QueueingNetwork(
            env,
            [Station("machine", self.servers_per_machine, sampler)],
            {"request": ["machine"]},
            rng,
        )
        arrivals = EmpiricalArrivals(self.model.interarrivals, rng)
        results = network.run_open(
            arrivals, lambda _r: "request", self.batch_size
        )
        return float(np.mean([r.latency for r in results]))

    def evaluate(self, rng: np.random.Generator) -> SqsResult:
        """Run replications until the CI half-width converges.

        Uses independent replications (a clean variant of batch means:
        no serial correlation between batches to correct for).
        """
        from scipy.stats import t

        batch_means: list[float] = []
        while len(batch_means) < self.max_batches:
            batch_means.append(self._simulate_batch(rng))
            if len(batch_means) < self.min_batches:
                continue
            n = len(batch_means)
            mean = float(np.mean(batch_means))
            sem = float(np.std(batch_means, ddof=1) / np.sqrt(n))
            t_crit = float(t.ppf(0.5 + self.confidence / 2.0, df=n - 1))
            halfwidth = t_crit * sem
            if mean > 0 and halfwidth / mean <= self.relative_tolerance:
                return SqsResult(
                    mean_latency=mean,
                    ci_halfwidth=halfwidth,
                    batches=n,
                    requests_simulated=n * self.batch_size,
                    converged=True,
                )
        n = len(batch_means)
        mean = float(np.mean(batch_means))
        sem = float(np.std(batch_means, ddof=1) / np.sqrt(n))
        t_crit = float(t.ppf(0.5 + self.confidence / 2.0, df=n - 1))
        return SqsResult(
            mean_latency=mean,
            ci_halfwidth=t_crit * sem,
            batches=n,
            requests_simulated=n * self.batch_size,
            converged=False,
        )
