"""The pure in-depth model (the paper's second column).

In the style of Liu et al.'s 3-tier analytical model: the request flow
is a route through service stations, each station's service time
fitted from traced span durations, arrivals fitted from the request
stream.  The model captures the application's control flow and arrival
dynamics but — by construction — carries *no request features*: it
cannot say what block sizes, memory banks or CPU utilization a request
produces, only how long it queues where ("it does not capture the
features of the workload in various subsystems", §3.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.dependency import WALK_COLUMNS, trace_walks
from ..queueing import (
    DistributionArrivals,
    EmpiricalArrivals,
    QueueingNetwork,
    Station,
    fit_distribution,
)
from ..simulation import Environment
from ..tracing import TraceSource, source_columns

__all__ = ["InDepthModel"]

#: Mapping from span names to service stations (devices).
_STATION_OF = {
    "network_rx": "nic",
    "network_tx": "nic",
    "cpu_lookup": "cpu",
    "cpu_aggregate": "cpu",
    "memory": "memory",
    "storage": "disk",
}

#: Servers per station in the simulated network (one server's devices).
_STATION_SERVERS = {"nic": 1, "cpu": 8, "memory": 2, "disk": 1}


@dataclass
class _StationFit:
    """Fitted service-time statistics for one station."""

    mean: float
    samples: np.ndarray


class InDepthModel:
    """Queueing-network request-flow model trained from span traces."""

    def __init__(self, exponential_services: bool = True):
        #: When True (the classic analytic assumption), services are
        #: exponential with the fitted mean; when False, service times
        #: are bootstrapped from the observed durations.
        self.exponential_services = exponential_services
        self.route: Optional[list[str]] = None
        self.station_fits: dict[str, _StationFit] = {}
        self._interarrivals: Optional[np.ndarray] = None
        self._arrival_fit = None

    def fit(self, source: TraceSource) -> "InDepthModel":
        """Train from a source's request arrivals and sampled span traces."""
        requests = source_columns(
            source, "requests", ("arrival_time", "completion_time")
        )
        done = requests["completion_time"] > requests["arrival_time"]
        if done.sum() < 16:
            raise ValueError(f"need >= 16 requests, got {done.sum()}")
        gaps = np.diff(np.sort(requests["arrival_time"][done]))
        self._interarrivals = gaps[gaps > 0]
        try:
            self._arrival_fit = fit_distribution(self._interarrivals)
        except ValueError:
            self._arrival_fit = None

        walks = trace_walks(source_columns(source, "spans", WALK_COLUMNS))
        if not walks:
            raise ValueError("in-depth training requires span traces")
        durations: dict[str, list[float]] = {}
        routes: dict[tuple[str, ...], int] = {}
        for _, names, seconds in walks:
            visited = []
            for name, duration in zip(names, seconds):
                station = _STATION_OF.get(name)
                if station is not None and np.isfinite(duration) and duration >= 0:
                    durations.setdefault(station, []).append(duration)
                    visited.append(station)
            if visited:
                key = tuple(visited)
                routes[key] = routes.get(key, 0) + 1
        if not routes:
            raise ValueError("no usable spans for route mining")
        self.route = list(max(routes, key=routes.get))
        self.station_fits = {
            name: _StationFit(
                mean=float(np.mean(values)), samples=np.array(values)
            )
            for name, values in durations.items()
        }
        return self

    def _check_fitted(self) -> None:
        if self.route is None:
            raise RuntimeError("model is not fitted; call fit() first")

    def _service_sampler(self, station: str):
        fit = self.station_fits[station]
        if self.exponential_services:
            return lambda _cls, rng: float(rng.exponential(fit.mean))
        samples = fit.samples

        def bootstrap(_cls: str, rng: np.random.Generator) -> float:
            return float(samples[rng.integers(0, samples.size)])

        return bootstrap

    def build_network(
        self, rng: np.random.Generator
    ) -> QueueingNetwork:
        """Instantiate the fitted queueing network (fresh environment)."""
        self._check_fitted()
        stations = [
            Station(
                name=name,
                servers=_STATION_SERVERS.get(name, 1),
                service_sampler=self._service_sampler(name),
            )
            for name in self.station_fits
        ]
        env = Environment()
        return QueueingNetwork(env, stations, {"request": self.route}, rng)

    def predict_latencies(
        self, n: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Simulate ``n`` requests through the network; their latencies.

        This is the in-depth model's entire output: a latency (and
        queueing) distribution, with no per-request features.
        """
        self._check_fitted()
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        network = self.build_network(rng)
        if self._arrival_fit is not None:
            arrivals = DistributionArrivals(self._arrival_fit.frozen, rng)
        else:
            arrivals = EmpiricalArrivals(self._interarrivals, rng)
        results = network.run_open(arrivals, lambda _rng: "request", n)
        return np.array([r.latency for r in results])

    def mean_service_demand(self) -> dict[str, float]:
        """Fitted mean service time per station (the model summary)."""
        self._check_fitted()
        return {name: fit.mean for name, fit in self.station_fits.items()}
