"""Training a KOOZA model from collected traces.

"Each one of the four models is trained using traces from the
corresponding subsystem" and "creating the time-dependencies-queue
requires tracing the complete round trip of a request through the
system from issue to response" (§4).  The trainer consumes any
:class:`~repro.tracing.TraceSource` containing both.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..markov import HierarchicalMarkovChain, MarkovChain
from ..queueing import fit_distribution
from ..tracing import TraceSource, build_trace_trees
from .dependency import mine_dependency_queue
from .features import RequestFeatures, extract_request_features
from .model import CpuBinStats, KoozaConfig, KoozaModel

__all__ = ["InsufficientTrainingData", "KoozaTrainer"]

#: Fewest complete feature vectors a model can be fitted from.
MIN_TRAINING_REQUESTS = 16


class InsufficientTrainingData(ValueError):
    """Too few complete requests to fit a model.

    A request is complete when every subsystem record it needs is in
    the trace; ``n_complete`` is how many the source held.
    """

    def __init__(self, n_complete: int):
        super().__init__(
            f"need >= {MIN_TRAINING_REQUESTS} complete requests to train, "
            f"got {n_complete}"
        )
        self.n_complete = n_complete


class KoozaTrainer:
    """Fits the four subsystem models, couplers and dependency queue."""

    def __init__(self, config: Optional[KoozaConfig] = None):
        self.config = config or KoozaConfig()

    def fit(self, source: TraceSource) -> KoozaModel:
        """Train a :class:`KoozaModel` on any trace source.

        ``source`` may be an in-memory :class:`~repro.tracing.TraceSet`,
        a lazy :class:`repro.store.ShardStore`, or a
        :class:`~repro.tracing.FlatTraceDump`.
        """
        features = extract_request_features(source)
        if len(features) < MIN_TRAINING_REQUESTS:
            raise InsufficientTrainingData(len(features))
        model = KoozaModel(self.config)
        model.n_training_requests = len(features)
        self._fit_network(model, features)
        self._fit_storage(model, features)
        self._fit_memory(model, features)
        self._fit_cpu(model, features)
        self._fit_couplers(model, features)
        self._fit_dependency_queue(model, source, features)
        return model

    # -- subsystem fits ------------------------------------------------------

    def _fit_network(self, model: KoozaModel, features: list[RequestFeatures]):
        sizes = [f.network_bytes for f in features]
        model.network_sizes.fit(sizes)
        states = [int(s) for s in model.network_sizes.transform(sizes)]
        model.network_chain = MarkovChain.from_sequence(
            states, smoothing=self.config.smoothing
        )
        arrivals = np.array([f.arrival_time for f in features])
        gaps = np.diff(arrivals)
        gaps = gaps[gaps > 0]
        model.arrival_gaps = gaps
        try:
            model.arrival_fit = fit_distribution(gaps)
        except ValueError:
            model.arrival_fit = None

    def _storage_states(self, model: KoozaModel, features):
        size_states = model.storage_sizes.transform(
            [f.storage_bytes for f in features]
        )
        seek_states = model.storage_seeks.transform(
            [f.storage_delta for f in features]
        )
        return [
            (f.storage_op, int(sb), int(kb))
            for f, sb, kb in zip(features, size_states, seek_states)
        ]

    def _fit_storage(self, model: KoozaModel, features: list[RequestFeatures]):
        model.storage_sizes.fit([f.storage_bytes for f in features])
        model.storage_seeks.fit([f.storage_delta for f in features])
        states = self._storage_states(model, features)
        model.storage_chain = MarkovChain.from_sequence(
            states, smoothing=self.config.smoothing
        )
        if self.config.hierarchical_storage:
            model.storage_hierarchy = HierarchicalMarkovChain.from_sequence(
                states,
                group_of=lambda s: s[0],  # top level: operation type
                smoothing=self.config.smoothing,
            )

    def _memory_states(self, model: KoozaModel, features):
        size_states = model.memory_sizes.transform(
            [f.memory_bytes for f in features]
        )
        return [
            (f.memory_op, int(sb), f.memory_bank)
            for f, sb in zip(features, size_states)
        ]

    def _fit_memory(self, model: KoozaModel, features: list[RequestFeatures]):
        model.memory_sizes.fit([f.memory_bytes for f in features])
        model.memory_chain = MarkovChain.from_sequence(
            self._memory_states(model, features), smoothing=self.config.smoothing
        )

    def _cpu_states(self, model: KoozaModel, features):
        utils = [f.cpu_utilization for f in features]
        return [int(s) for s in model.cpu_utilization.transform(utils)]

    def _fit_cpu(self, model: KoozaModel, features: list[RequestFeatures]):
        model.cpu_utilization.fit([f.cpu_utilization for f in features])
        states = self._cpu_states(model, features)
        model.cpu_chain = MarkovChain.from_sequence(
            states, smoothing=self.config.smoothing
        )
        # Decode statistics: mean per-phase busy time per utilization bin.
        lookup: dict[int, list[float]] = {}
        aggregate: dict[int, list[float]] = {}
        for f, s in zip(features, states):
            lookup.setdefault(s, []).append(f.cpu_lookup_busy)
            aggregate.setdefault(s, []).append(f.cpu_aggregate_busy)
        model.cpu_bin_stats = {
            s: CpuBinStats(
                mean_lookup_busy=float(np.mean(lookup[s])),
                mean_aggregate_busy=float(np.mean(aggregate[s])),
            )
            for s in lookup
        }

    def _fit_couplers(self, model: KoozaModel, features: list[RequestFeatures]):
        net_states = [
            int(s)
            for s in model.network_sizes.transform(
                [f.network_bytes for f in features]
            )
        ]
        storage_states = self._storage_states(model, features)
        memory_states = self._memory_states(model, features)
        cpu_states = self._cpu_states(model, features)
        for net, sto, mem, cpu in zip(
            net_states, storage_states, memory_states, cpu_states
        ):
            model.couplers["storage"].observe(net, sto)
            model.couplers["memory"].observe(net, mem)
            model.couplers["cpu"].observe(net, cpu)

    def _fit_dependency_queue(
        self,
        model: KoozaModel,
        source: TraceSource,
        features: list[RequestFeatures],
    ):
        trees = build_trace_trees(list(source.iter_records("spans")))
        profile_of = {
            f.request_id: int(model.network_sizes.transform_one(f.network_bytes))
            for f in features
        }
        model.dependency_queue = mine_dependency_queue(trees, profile_of)
