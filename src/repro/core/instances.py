"""Per-server model instances for multi-server clusters.

"Scaling to multiple servers in order to simulate real-application
scenarios requires multiple instances of the model" (§4).
:class:`MultiServerKooza` partitions a cluster's traces by server,
trains one :class:`KoozaModel` per server, and synthesizes/replays each
server's workload against its own simulated hardware.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from ..tracing import TraceSet
from .model import KoozaConfig, KoozaModel
from .replay import ReplayHarness
from .trainer import KoozaTrainer
from .validation import ValidationReport, compare_workloads

if TYPE_CHECKING:
    from ..datacenter.machine import MachineSpec

__all__ = ["MultiServerKooza", "split_traces_by_class", "split_traces_by_server"]


def _split_traces_by(traces: TraceSet, key) -> dict[str, TraceSet]:
    """Partition a TraceSet by ``key(request_record)``.

    All of a request's records (including remote hops) travel with it,
    so each partition is a self-contained training input.
    """
    group_of: dict[int, str] = {
        r.request_id: key(r) for r in traces.requests
    }
    out: dict[str, TraceSet] = {}

    def bucket(group: str) -> TraceSet:
        if group not in out:
            out[group] = TraceSet()
        return out[group]

    for record in traces.requests:
        bucket(key(record)).requests.append(record)
    for stream in ("network", "cpu", "memory", "storage"):
        for record in getattr(traces, stream):
            group = group_of.get(record.request_id)
            if group is not None:
                getattr(bucket(group), stream).append(record)
    for span in traces.spans:
        group = group_of.get(span.trace_id)
        if group is not None:
            bucket(group).spans.append(span)
    return out


def split_traces_by_server(traces: TraceSet) -> dict[str, TraceSet]:
    """Partition a TraceSet by the server each request ran on."""
    return _split_traces_by(traces, lambda r: r.server)


def split_traces_by_class(traces: TraceSet) -> dict[str, TraceSet]:
    """Partition a TraceSet by request class.

    The record-object counterpart of
    :func:`repro.tracing.columnar.class_columns`, the split per-class
    training uses: per class, both keep the same records in the same
    order, so a fit on either produces the same model — the
    equivalence the per-class trainer's tests assert.
    """
    return _split_traces_by(traces, lambda r: r.request_class)


class MultiServerKooza:
    """One KOOZA instance per server, trained and validated together."""

    def __init__(
        self,
        config: Optional[KoozaConfig] = None,
        min_requests: int = 64,
    ):
        self.config = config or KoozaConfig()
        self.min_requests = min_requests
        self.models: dict[str, KoozaModel] = {}
        self.skipped: list[str] = []

    def fit(self, traces: TraceSet) -> "MultiServerKooza":
        """Train one model per server with enough completed requests."""
        per_server = split_traces_by_server(traces)
        if not per_server:
            raise ValueError("no requests to train on")
        trainer = KoozaTrainer(self.config)
        self.models.clear()
        self.skipped.clear()
        for server, server_traces in sorted(per_server.items()):
            if len(server_traces.completed_requests()) < self.min_requests:
                self.skipped.append(server)
                continue
            self.models[server] = trainer.fit(server_traces)
        if not self.models:
            raise ValueError(
                f"no server reached {self.min_requests} completed requests"
            )
        return self

    @property
    def n_instances(self) -> int:
        return len(self.models)

    def synthesize(
        self, per_server: int, rng: np.random.Generator
    ) -> dict[str, list]:
        """Synthesize ``per_server`` requests from each instance."""
        if not self.models:
            raise RuntimeError("not fitted; call fit() first")
        return {
            server: model.synthesize(per_server, rng)
            for server, model in self.models.items()
        }

    def validate(
        self,
        traces: TraceSet,
        rng: np.random.Generator,
        machine_spec: Optional[MachineSpec] = None,
        seed: int = 1000,
    ) -> dict[str, ValidationReport]:
        """Per-server replay validation against the original traces."""
        if not self.models:
            raise RuntimeError("not fitted; call fit() first")
        per_server = split_traces_by_server(traces)
        reports = {}
        for index, (server, model) in enumerate(sorted(self.models.items())):
            server_traces = per_server[server]
            n = len(server_traces.completed_requests())
            synthetic = model.synthesize(n, rng)
            harness = ReplayHarness(
                machine_spec=machine_spec, seed=seed + index
            )
            reports[server] = compare_workloads(
                server_traces, harness.replay(synthetic)
            )
        return reports
