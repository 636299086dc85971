"""Per-request joint feature vectors assembled from subsystem traces.

The Dapper-style global request id ties every subsystem record to its
originating request ("the model relies on ... a unique global
identifier that ties each message to the originating request"), which
is what lets KOOZA learn *joint* per-request behaviour — the
correlations between individual subsystem models the paper highlights
(§5) — rather than four unrelated marginals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional

import numpy as np

from ..tracing import TraceSource, build_trace_trees
from ..tracing.columnar import StringColumn

__all__ = [
    "RequestFeatures",
    "extract_request_features",
    "request_feature_columns",
]

#: Servers whose records are control-plane, not data-path.
_CONTROL_SERVERS = ("master",)


@dataclass
class RequestFeatures:
    """Joint per-request features across the four subsystems."""

    request_id: int
    request_class: str  # ground-truth label, used only for evaluation
    server: str
    arrival_time: float
    latency: float
    network_bytes: int
    cpu_lookup_busy: float
    cpu_aggregate_busy: float
    memory_op: str
    memory_bytes: int
    memory_bank: int
    storage_op: str
    storage_bytes: int
    storage_lbn: int
    storage_delta: int = 0  # seek gap vs the previous request on this server
    stage_sequence: Optional[list[str]] = None

    @property
    def cpu_busy(self) -> float:
        return self.cpu_lookup_busy + self.cpu_aggregate_busy

    @property
    def cpu_utilization(self) -> float:
        """Fraction of one core busy over the request lifetime."""
        return self.cpu_busy / self.latency if self.latency > 0 else 0.0


def extract_request_features(source: TraceSource) -> list[RequestFeatures]:
    """Assemble per-request feature vectors, sorted by arrival time.

    Accepts any :class:`~repro.tracing.TraceSource` — an in-memory
    :class:`~repro.tracing.TraceSet`, a lazy
    :class:`repro.store.ShardStore`, or a
    :class:`~repro.tracing.FlatTraceDump` — and folds over its streams
    without requiring list attributes.  Control-plane records (master
    lookups) are excluded from the data-path features.  Requests
    missing any subsystem record (e.g. cut off at simulation end) are
    dropped.
    """
    storage_by_request: dict[int, list] = {}
    for r in source.iter_records("storage"):
        storage_by_request.setdefault(r.request_id, []).append(r)
    memory_by_request: dict[int, list] = {}
    for r in source.iter_records("memory"):
        memory_by_request.setdefault(r.request_id, []).append(r)
    cpu_by_request: dict[int, list] = {}
    for r in source.iter_records("cpu"):
        if r.server not in _CONTROL_SERVERS:
            cpu_by_request.setdefault(r.request_id, []).append(r)
    network_by_request: dict[int, list] = {}
    for r in source.iter_records("network"):
        if r.server not in _CONTROL_SERVERS:
            network_by_request.setdefault(r.request_id, []).append(r)
    stage_by_request: dict[int, list[str]] = {}
    for tree in build_trace_trees(list(source.iter_records("spans"))):
        stage_by_request[tree.trace_id] = tree.stage_sequence()

    completed = (
        r
        for r in source.iter_records("requests")
        if r.completion_time > r.arrival_time
    )
    features = []
    for record in completed:
        rid = record.request_id
        storage = sorted(
            storage_by_request.get(rid, []), key=lambda r: r.timestamp
        )
        memory = sorted(memory_by_request.get(rid, []), key=lambda r: r.timestamp)
        cpu = cpu_by_request.get(rid, [])
        network = network_by_request.get(rid, [])
        if not storage or not memory or not cpu or not network:
            continue
        lookup = sum(r.busy_seconds for r in cpu if r.phase == "lookup")
        aggregate = sum(r.busy_seconds for r in cpu if r.phase != "lookup")
        features.append(
            RequestFeatures(
                request_id=rid,
                request_class=record.request_class,
                server=record.server,
                arrival_time=record.arrival_time,
                latency=record.latency,
                network_bytes=max(r.size_bytes for r in network),
                cpu_lookup_busy=lookup,
                cpu_aggregate_busy=aggregate,
                memory_op=memory[0].op,
                memory_bytes=sum(r.size_bytes for r in memory),
                memory_bank=memory[0].bank,
                storage_op=storage[0].op,
                storage_bytes=sum(r.size_bytes for r in storage),
                storage_lbn=storage[0].lbn,
                stage_sequence=stage_by_request.get(rid),
            )
        )
    features.sort(key=lambda f: f.arrival_time)

    # Seek deltas between consecutive requests on the same server.
    block = 4096
    last_end: dict[str, int] = {}
    for f in features:
        blocks = max(1, -(-f.storage_bytes // block))
        if f.server in last_end:
            f.storage_delta = f.storage_lbn - last_end[f.server]
        f.storage_delta = int(f.storage_delta)
        last_end[f.server] = f.storage_lbn + blocks
    return features


def _group_boundaries(sorted_ids: np.ndarray) -> np.ndarray:
    """Start offsets of each run in an id-sorted array."""
    if sorted_ids.size == 0:
        return np.zeros(0, dtype=np.int64)
    return np.flatnonzero(
        np.concatenate(([True], sorted_ids[1:] != sorted_ids[:-1]))
    )


def _membership(sorted_unique: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Boolean mask: which ``ids`` appear in ``sorted_unique``."""
    if sorted_unique.size == 0:
        return np.zeros(ids.size, dtype=bool)
    pos = np.minimum(
        np.searchsorted(sorted_unique, ids), sorted_unique.size - 1
    )
    return sorted_unique[pos] == ids


def request_feature_columns(
    streams: Mapping[str, Mapping[str, Any]],
) -> dict[str, Any]:
    """Vectorized :func:`extract_request_features` over column dicts.

    ``streams`` maps stream name → (shifted) column dict for
    ``storage``, ``memory``, ``cpu``, ``network`` and ``requests``;
    the result holds one column per feature the downstream statistics
    consume (``request_class``, ``arrival_time``, ``latency``,
    ``network_bytes``, ``cpu_utilization``, ``memory_op``,
    ``memory_bytes``, ``storage_op``, ``storage_bytes``), rows in the
    same arrival-sorted order the record path produces.

    Equivalence to the record path is exact, not approximate: integer
    sums/maxima are order-free; the CPU lookup/aggregate busy sums use
    ``np.add.at``, which performs the same scalar float adds in the
    same stream order as the per-record ``sum``; first-by-timestamp
    selections replicate Python's stable sort tie-breaking; and the
    final ordering is a stable argsort on arrival time over rows in
    requests-stream order — the record path's ``list.sort``.
    (``storage_delta`` and ``stage_sequence`` are not assembled here:
    no feature statistic consumes them.)
    """
    storage = streams["storage"]
    memory = streams["memory"]
    cpu = streams["cpu"]
    network = streams["network"]
    requests = streams["requests"]

    # storage / memory: group by request id, first record by timestamp
    # (stable on stream order), integer byte sums.
    def first_and_sum(cols: Mapping[str, Any]):
        rid = np.asarray(cols["request_id"])
        ts = np.asarray(cols["timestamp"])
        order = np.lexsort((np.arange(rid.size), ts, rid))
        sorted_rid = rid[order]
        starts = _group_boundaries(sorted_rid)
        uniq = sorted_rid[starts]
        first = order[starts]
        sums = (
            np.add.reduceat(cols["size_bytes"][order], starts)
            if starts.size
            else np.zeros(0, dtype=np.int64)
        )
        return uniq, first, sums

    sto_uniq, sto_first, sto_sums = first_and_sum(storage)
    mem_uniq, mem_first, mem_sums = first_and_sum(memory)

    # network: data-path records only; per-request max message size.
    net_keep = ~network["server"].mask_in(_CONTROL_SERVERS)
    net_rid = np.asarray(network["request_id"])[net_keep]
    net_size = np.asarray(network["size_bytes"])[net_keep]
    net_order = np.argsort(net_rid, kind="stable")
    net_sorted = net_rid[net_order]
    net_starts = _group_boundaries(net_sorted)
    net_uniq = net_sorted[net_starts]
    net_max = (
        np.maximum.reduceat(net_size[net_order], net_starts)
        if net_starts.size
        else np.zeros(0, dtype=np.int64)
    )

    # cpu: data-path records only; lookup/aggregate busy sums folded
    # with np.add.at in stream order (bit-identical to Python's sum).
    cpu_keep = ~cpu["server"].mask_in(_CONTROL_SERVERS)
    cpu_rid = np.asarray(cpu["request_id"])[cpu_keep]
    cpu_busy = np.asarray(cpu["busy_seconds"])[cpu_keep]
    cpu_lookup = cpu["phase"].mask("lookup")[cpu_keep]
    cpu_uniq, cpu_inverse = np.unique(cpu_rid, return_inverse=True)
    lookup_sums = np.zeros(cpu_uniq.size)
    np.add.at(lookup_sums, cpu_inverse[cpu_lookup], cpu_busy[cpu_lookup])
    aggregate_sums = np.zeros(cpu_uniq.size)
    np.add.at(
        aggregate_sums, cpu_inverse[~cpu_lookup], cpu_busy[~cpu_lookup]
    )

    # requests: completed, present in all four subsystem groups.
    req_rid = np.asarray(requests["request_id"])
    arrival = np.asarray(requests["arrival_time"])
    completion = np.asarray(requests["completion_time"])
    keep = (
        (completion > arrival)
        & _membership(sto_uniq, req_rid)
        & _membership(mem_uniq, req_rid)
        & _membership(cpu_uniq, req_rid)
        & _membership(net_uniq, req_rid)
    )
    kept = np.flatnonzero(keep)
    final = kept[np.argsort(arrival[kept], kind="stable")]
    rid_final = req_rid[final]

    latency = (completion - arrival)[final]
    sto_at = np.searchsorted(sto_uniq, rid_final)
    mem_at = np.searchsorted(mem_uniq, rid_final)
    cpu_at = np.searchsorted(cpu_uniq, rid_final)
    net_at = np.searchsorted(net_uniq, rid_final)
    busy = lookup_sums[cpu_at] + aggregate_sums[cpu_at]
    with np.errstate(divide="ignore", invalid="ignore"):
        utilization = np.where(latency > 0, busy / latency, 0.0)

    mem_op = memory["op"]
    sto_op = storage["op"]
    return {
        "n": int(final.size),
        "request_class": requests["request_class"].take(final),
        "arrival_time": arrival[final],
        "latency": latency,
        "network_bytes": net_max[net_at],
        "cpu_utilization": utilization,
        "memory_op": StringColumn(
            mem_op.codes[mem_first[mem_at]], mem_op.values
        ),
        "memory_bytes": mem_sums[mem_at],
        "storage_op": StringColumn(
            sto_op.codes[sto_first[sto_at]], sto_op.values
        ),
        "storage_bytes": sto_sums[sto_at],
    }
