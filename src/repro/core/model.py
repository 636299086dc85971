"""KOOZA: the combined in-breadth / in-depth workload model.

The model for each server comprises four simple models — Markov chains
for storage, processor and memory, and a queueing (arrival) model for
the network — plus the *time-dependency queue* giving the order in
which each model becomes active for a request (paper §4, Figure 2).

Two design points go beyond the four marginals:

* **Subsystem coupling.**  Because every trace record carries the
  global request id, the trainer also learns the cross-subsystem
  conditional distributions P(storage state | network state) etc. —
  the "correlations that emerge between individual models" of §5.
  Coupling is configurable (and is what the A2/A1 ablations switch
  off to recover a pure in-breadth model).
* **Configurable detail.**  Bin counts per feature set the state-space
  size, and the storage chain can be swapped for a hierarchical
  representation (§4's "corresponding hierarchical representation").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional

import numpy as np

from ..markov import HierarchicalMarkovChain, MarkovChain, QuantileDiscretizer
from ..queueing import FittedDistribution
from ..simulation.rng import choice_cdf, choice_index
from ..tracing import READ, WRITE
from .dependency import DependencyQueue
from .synthetic import HEADER_BYTES, Stage, SyntheticRequest

__all__ = ["KoozaConfig", "KoozaModel", "SubsystemCoupler"]


@dataclass(frozen=True)
class KoozaConfig:
    """Detail knobs of a KOOZA model.

    "The detail of the model is configurable ... the designer can
    adjust the level of detail to the part of the system that is of
    interest" (§4).
    """

    network_size_bins: int = 8
    storage_size_bins: int = 6
    storage_seek_bins: int = 6
    memory_size_bins: int = 6
    cpu_utilization_bins: int = 8
    couple_subsystems: bool = True
    use_dependency_queue: bool = True
    hierarchical_storage: bool = False
    smoothing: float = 0.0
    #: "renewal" = KS-fitted i.i.d. interarrivals (the paper's simple
    #: queueing model); "empirical" = bootstrap of observed gaps (still
    #: i.i.d.); "autocorrelated" = Gaussian-copula AR(p) matching the
    #: interarrival autocorrelation (Li's phase 2 — needed for bursty /
    #: self-similar traffic, see the A7/A14 benches).
    arrival_model: str = "renewal"

    def __post_init__(self) -> None:
        if self.arrival_model not in ("renewal", "empirical", "autocorrelated"):
            raise ValueError(
                f"unknown arrival_model {self.arrival_model!r}"
            )
        for name in (
            "network_size_bins",
            "storage_size_bins",
            "storage_seek_bins",
            "memory_size_bins",
            "cpu_utilization_bins",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


class SubsystemCoupler:
    """Empirical conditional P(subsystem state | network state)."""

    def __init__(self):
        self._counts: dict[Hashable, dict[Hashable, float]] = {}
        self._tables: Optional[dict[Hashable, tuple[list, np.ndarray]]] = None

    def observe(self, net_state: Hashable, state: Hashable) -> None:
        bucket = self._counts.setdefault(net_state, {})
        bucket[state] = bucket.get(state, 0.0) + 1.0
        self._tables = None

    def _build(self) -> dict[Hashable, tuple[list, np.ndarray]]:
        if self._tables is None:
            self._tables = {}
            for net_state, bucket in self._counts.items():
                states = list(bucket)
                probs = np.array([bucket[s] for s in states])
                cdf = choice_cdf(probs / probs.sum())
                self._tables[net_state] = (states, cdf)
        return self._tables

    def known(self, net_state: Hashable) -> bool:
        return net_state in self._counts

    def sample(self, net_state: Hashable, rng: np.random.Generator) -> Hashable:
        """Draw a subsystem state conditioned on the network state."""
        tables = self._build()
        if net_state not in tables:
            raise KeyError(f"network state {net_state!r} never observed")
        states, cdf = tables[net_state]
        return states[choice_index(cdf, rng)]

    def mode(self, net_state: Hashable) -> Hashable:
        """Most frequent subsystem state for a network state."""
        bucket = self._counts[net_state]
        return max(bucket, key=bucket.get)


@dataclass
class CpuBinStats:
    """Decode information for one CPU-utilization state."""

    mean_lookup_busy: float
    mean_aggregate_busy: float


class KoozaModel:
    """A trained KOOZA model: four subsystem models + dependency queue.

    Build one with :class:`repro.core.trainer.KoozaTrainer`; generate
    synthetic workloads with :meth:`synthesize`.
    """

    def __init__(self, config: KoozaConfig):
        self.config = config
        # Network model: arrival process + request-size chain.
        self.arrival_fit: Optional[FittedDistribution] = None
        self.arrival_gaps: Optional[np.ndarray] = None
        self.network_sizes = QuantileDiscretizer(config.network_size_bins)
        self.network_chain: Optional[MarkovChain] = None
        # Storage model.
        self.storage_sizes = QuantileDiscretizer(config.storage_size_bins)
        self.storage_seeks = QuantileDiscretizer(config.storage_seek_bins)
        self.storage_chain: Optional[MarkovChain] = None
        self.storage_hierarchy: Optional[HierarchicalMarkovChain] = None
        # Memory model.
        self.memory_sizes = QuantileDiscretizer(config.memory_size_bins)
        self.memory_chain: Optional[MarkovChain] = None
        self.memory_interleave: int = 4096
        # Processor model.
        self.cpu_utilization = QuantileDiscretizer(config.cpu_utilization_bins)
        self.cpu_chain: Optional[MarkovChain] = None
        self.cpu_bin_stats: dict[int, CpuBinStats] = {}
        # Structure + coupling.
        self.dependency_queue: Optional[DependencyQueue] = None
        self.couplers: dict[str, SubsystemCoupler] = {
            "storage": SubsystemCoupler(),
            "memory": SubsystemCoupler(),
            "cpu": SubsystemCoupler(),
        }
        self.n_training_requests: int = 0

    # -- introspection -----------------------------------------------------

    def is_fitted(self) -> bool:
        return self.network_chain is not None

    def _check_fitted(self) -> None:
        if not self.is_fitted():
            raise RuntimeError("KoozaModel is not fitted; use KoozaTrainer")

    @property
    def n_parameters(self) -> int:
        """Free transition parameters across the four models."""
        self._check_fitted()
        total = 0
        for chain in (self.network_chain, self.memory_chain, self.cpu_chain):
            total += chain.n_states * (chain.n_states - 1)
        if self.storage_hierarchy is not None:
            total += self.storage_hierarchy.n_parameters
        else:
            n = self.storage_chain.n_states
            total += n * (n - 1)
        return total

    def describe(self) -> str:
        """Figure-2 style rendering of the trained model structure."""
        self._check_fitted()
        lines = [
            "KOOZA model (four subsystem models + dependency queue)",
            f"trained on {self.n_training_requests} requests, "
            f"{self.n_parameters} transition parameters",
            "",
            "[network] arrival model: "
            + (
                self.arrival_fit.describe()
                if self.arrival_fit is not None
                else f"empirical ({len(self.arrival_gaps)} gaps)"
            ),
            f"[network] size chain: {self.network_chain.n_states} states",
            "[cpu] " + self.cpu_chain.describe().replace("\n", "\n[cpu] "),
            "[memory] " + self.memory_chain.describe().replace("\n", "\n[memory] "),
        ]
        if self.storage_hierarchy is not None:
            lines.append(
                "[storage] "
                + self.storage_hierarchy.describe().replace("\n", "\n[storage] ")
            )
        else:
            lines.append(
                "[storage] "
                + self.storage_chain.describe().replace("\n", "\n[storage] ")
            )
        lines.append("")
        lines.append(self.dependency_queue.describe())
        return "\n".join(lines)

    # -- generation ----------------------------------------------------------

    def _make_arrival_sampler(self, rng: np.random.Generator):
        """Interarrival sampler per the configured arrival model."""
        gaps = self.arrival_gaps
        if self.config.arrival_model == "autocorrelated":
            from ..queueing import CopulaArrivals

            process = CopulaArrivals(gaps, rng)
            return process.next_interarrival
        if self.config.arrival_model == "renewal" and self.arrival_fit is not None:
            fit = self.arrival_fit
            return lambda: float(fit.sample(1, rng)[0])
        # Empirical bootstrap (also the renewal fallback when no
        # distribution family converged).
        return lambda: float(gaps[rng.integers(0, gaps.size)])

    def _storage_state(self, net_state, previous, rng):
        if self.config.couple_subsystems and self.couplers["storage"].known(
            net_state
        ):
            return self.couplers["storage"].sample(net_state, rng)
        chain = self.storage_chain
        if previous is None:
            return chain.sample_path(1, rng)[0]
        return chain.sample_path(2, rng, start=previous)[1]

    def _memory_state(self, net_state, previous, rng):
        if self.config.couple_subsystems and self.couplers["memory"].known(
            net_state
        ):
            return self.couplers["memory"].sample(net_state, rng)
        chain = self.memory_chain
        if previous is None:
            return chain.sample_path(1, rng)[0]
        return chain.sample_path(2, rng, start=previous)[1]

    def _cpu_state(self, net_state, previous, rng):
        if self.config.couple_subsystems and self.couplers["cpu"].known(net_state):
            return self.couplers["cpu"].sample(net_state, rng)
        chain = self.cpu_chain
        if previous is None:
            return chain.sample_path(1, rng)[0]
        return chain.sample_path(2, rng, start=previous)[1]

    #: Stage order used when the dependency queue is disabled (an
    #: in-breadth model has no structural information, so it activates
    #: subsystem models in an arbitrary fixed order).
    FALLBACK_SEQUENCE = (
        "cpu_lookup",
        "network_rx",
        "storage",
        "memory",
        "cpu_aggregate",
        "network_tx",
    )

    def synthesize(
        self,
        n: int,
        rng: np.random.Generator,
        start_time: float = 0.0,
    ) -> list[SyntheticRequest]:
        """Generate ``n`` synthetic requests.

        Walks the network chain for arrival dynamics, conditions the
        other three subsystem models on the network state (when
        coupling is enabled), decodes states to concrete features, and
        orders stage activations by the dependency queue.
        """
        self._check_fitted()
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        requests = []
        t = start_time
        sample_gap = self._make_arrival_sampler(rng)
        net_path = self.network_chain.sample_path(n, rng)
        sto_prev = mem_prev = cpu_prev = None
        lbn_cursor = 0
        # Activation counts per distinct stage sequence (a handful per
        # model), computed on first use instead of once per request.
        counts_by_sequence: dict[tuple[str, ...], dict[str, int]] = {}
        for net_state in net_path:
            t += sample_gap()
            net_bytes = max(
                1, int(self.network_sizes.representative(net_state))
            )
            sto_state = self._storage_state(net_state, sto_prev, rng)
            mem_state = self._memory_state(net_state, mem_prev, rng)
            cpu_state = self._cpu_state(net_state, cpu_prev, rng)
            sto_prev, mem_prev, cpu_prev = sto_state, mem_state, cpu_state

            sto_op, sto_size_bin, sto_seek_bin = sto_state
            sto_size = max(
                1, int(self.storage_sizes.representative(sto_size_bin))
            )
            seek = int(self.storage_seeks.representative(sto_seek_bin))
            lbn_cursor = max(0, lbn_cursor + seek)
            lbn = lbn_cursor
            lbn_cursor += max(1, -(-sto_size // 4096))

            mem_op, mem_size_bin, bank = mem_state
            mem_size = max(1, int(self.memory_sizes.representative(mem_size_bin)))
            address = bank * self.memory_interleave

            stats = self.cpu_bin_stats[cpu_state]

            if self.config.use_dependency_queue:
                sequence = self.dependency_queue.sequence_for(net_state)
            else:
                sequence = self.FALLBACK_SEQUENCE

            # Multi-tier applications activate a subsystem several times
            # per request (e.g. one cpu_lookup per tier); per-request
            # budgets learned from traces are spread over those
            # activations.
            counts = counts_by_sequence.get(sequence)
            if counts is None:
                counts = counts_by_sequence[sequence] = {
                    name: max(1, sum(1 for s in sequence if s == name))
                    for name in set(sequence)
                }
            stages = []
            for name in sequence:
                if name == "network_rx":
                    size = net_bytes if sto_op == WRITE else HEADER_BYTES
                    stages.append(Stage("network_rx", size_bytes=size))
                elif name == "network_tx":
                    size = net_bytes if sto_op == READ else HEADER_BYTES
                    stages.append(Stage("network_tx", size_bytes=size))
                elif name == "cpu_lookup":
                    stages.append(
                        Stage(
                            "cpu",
                            busy_seconds=stats.mean_lookup_busy
                            / counts["cpu_lookup"],
                        )
                    )
                elif name == "cpu_aggregate":
                    stages.append(
                        Stage(
                            "cpu",
                            busy_seconds=stats.mean_aggregate_busy
                            / counts["cpu_aggregate"],
                        )
                    )
                elif name == "memory":
                    stages.append(
                        Stage(
                            "memory",
                            op=mem_op,
                            size_bytes=max(1, mem_size // counts["memory"]),
                            address=address,
                        )
                    )
                elif name == "storage":
                    stages.append(
                        Stage(
                            "storage",
                            op=sto_op,
                            size_bytes=max(1, sto_size // counts["storage"]),
                            lbn=lbn,
                        )
                    )
                # Unknown span names (application-specific hops) are
                # skipped: the four models cover the four subsystems.
            requests.append(
                SyntheticRequest(
                    arrival_time=t,
                    stages=stages,
                    label=f"{sto_op}_{net_bytes}",
                )
            )
        return requests
