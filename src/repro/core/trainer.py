"""Training a KOOZA model from collected traces.

"Each one of the four models is trained using traces from the
corresponding subsystem" and "creating the time-dependencies-queue
requires tracing the complete round trip of a request through the
system from issue to response" (§4).  The trainer reads both from any
:class:`~repro.tracing.TraceSource` once (:func:`read_training_input`):
the five feature streams and the spans, all as stitched columns.  The
subsystem models and couplers are fitted straight from the columns of
the per-request feature join
(:func:`~repro.core.features.request_feature_columns`); the dependency
queue is mined from each trace's stage sequence, which
:func:`~repro.core.dependency.stage_sequences` reads off the span
columns.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Sequence

import numpy as np

from ..markov import HierarchicalMarkovChain, MarkovChain
from ..queueing import fit_distribution
from ..tracing import TraceSource, source_columns
from .dependency import STAGE_COLUMNS, mine_dependency_queue, stage_sequences
from .features import request_feature_columns, source_feature_streams
from .model import CpuBinStats, KoozaConfig, KoozaModel

__all__ = ["InsufficientTrainingData", "KoozaTrainer", "read_training_input"]

#: Fewest complete feature vectors a model can be fitted from.
MIN_TRAINING_REQUESTS = 16


class InsufficientTrainingData(ValueError):
    """Too little training data to fit a model.

    A fit needs :data:`MIN_TRAINING_REQUESTS` complete requests (every
    subsystem record the request needs is in the trace) and a traced
    request to mine the dependency queue from.  Dapper-style 1-in-N
    sampling keeps every request's subsystem records but spans only for
    sampled requests, so a request class can have no trace.
    """

    def __init__(self, n_complete: int, n_trees: int):
        if n_complete < MIN_TRAINING_REQUESTS:
            super().__init__(
                f"need >= {MIN_TRAINING_REQUESTS} complete requests to "
                f"train, got {n_complete}"
            )
        else:
            super().__init__(
                f"no traced request to mine among {n_complete} complete requests"
            )
        self.n_complete = n_complete
        self.n_trees = n_trees


def read_training_input(
    source: TraceSource,
) -> tuple[dict[str, dict[str, Any]], list[tuple[int, tuple[str, ...]]]]:
    """Everything a fit reads from ``source``, read once.

    The :data:`~repro.core.features.FEATURE_COLUMNS` of the five
    feature streams as stitched columns, and each traced request's
    ``(trace_id, stage names)`` mined from the span columns
    (:func:`~repro.core.dependency.stage_sequences`).
    :func:`repro.tracing.columnar.class_columns` splits both by request
    class.
    """
    sequences = stage_sequences(source_columns(source, "spans", STAGE_COLUMNS))
    return source_feature_streams(source), sequences


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
        streams, sequences = read_training_input(source)
        return self.fit_columns(request_feature_columns(streams), sequences)

    def fit_columns(
        self,
        features: Mapping[str, Any],
        sequences: Sequence[tuple[int, Sequence[str]]],
    ) -> KoozaModel:
        """Train on the feature join's columns and the stage sequences.

        ``features`` is :func:`~repro.core.features.request_feature_columns`
        output and ``sequences`` :func:`~repro.core.dependency.stage_sequences`
        output.  Chain states are built from plain Python ``str``/``int``
        values, so the model serializes the same whatever the source.
        """
        n = features["n"]
        if n < MIN_TRAINING_REQUESTS or not sequences:
            raise InsufficientTrainingData(n, len(sequences))
        model = KoozaModel(self.config)
        model.n_training_requests = n
        net_states = self._fit_network(model, features)
        storage_states = self._fit_storage(model, features)
        memory_states = self._fit_memory(model, features)
        cpu_states = self._fit_cpu(model, features)
        for net, sto, mem, cpu in zip(
            net_states, storage_states, memory_states, cpu_states
        ):
            model.couplers["storage"].observe(net, sto)
            model.couplers["memory"].observe(net, mem)
            model.couplers["cpu"].observe(net, cpu)
        profile_of = dict(zip(features["request_id"].tolist(), net_states))
        model.dependency_queue = mine_dependency_queue(sequences, profile_of)
        return model

    # -- subsystem fits ------------------------------------------------------

    def _fit_network(self, model: KoozaModel, features) -> list[int]:
        sizes = features["network_bytes"]
        model.network_sizes.fit(sizes)
        states = model.network_sizes.transform(sizes).tolist()
        model.network_chain = MarkovChain.from_sequence(
            states, smoothing=self.config.smoothing
        )
        gaps = np.diff(features["arrival_time"])
        gaps = gaps[gaps > 0]
        model.arrival_gaps = gaps
        try:
            model.arrival_fit = fit_distribution(gaps)
        except ValueError:
            model.arrival_fit = None
        return states

    def _fit_storage(self, model: KoozaModel, features) -> list[tuple]:
        sizes = features["storage_bytes"]
        seeks = features["storage_delta"]
        model.storage_sizes.fit(sizes)
        model.storage_seeks.fit(seeks)
        states = list(
            zip(
                features["storage_op"].tolist(),
                model.storage_sizes.transform(sizes).tolist(),
                model.storage_seeks.transform(seeks).tolist(),
            )
        )
        model.storage_chain = MarkovChain.from_sequence(
            states, smoothing=self.config.smoothing
        )
        if self.config.hierarchical_storage:
            model.storage_hierarchy = HierarchicalMarkovChain.from_sequence(
                states,
                group_of=lambda s: s[0],  # top level: operation type
                smoothing=self.config.smoothing,
            )
        return states

    def _fit_memory(self, model: KoozaModel, features) -> list[tuple]:
        sizes = features["memory_bytes"]
        model.memory_sizes.fit(sizes)
        states = list(
            zip(
                features["memory_op"].tolist(),
                model.memory_sizes.transform(sizes).tolist(),
                features["memory_bank"].tolist(),
            )
        )
        model.memory_chain = MarkovChain.from_sequence(
            states, smoothing=self.config.smoothing
        )
        return states

    def _fit_cpu(self, model: KoozaModel, features) -> list[int]:
        utils = features["cpu_utilization"]
        model.cpu_utilization.fit(utils)
        bins = model.cpu_utilization.transform(utils)
        states = bins.tolist()
        model.cpu_chain = MarkovChain.from_sequence(
            states, smoothing=self.config.smoothing
        )
        # Decode statistics: mean per-phase busy time per utilization
        # bin, bins in order of first appearance.
        lookup = features["cpu_lookup_busy"]
        aggregate = features["cpu_aggregate_busy"]
        model.cpu_bin_stats = {
            s: CpuBinStats(
                mean_lookup_busy=float(np.mean(lookup[bins == s])),
                mean_aggregate_busy=float(np.mean(aggregate[bins == s])),
            )
            for s in dict.fromkeys(states)
        }
        return states
