"""Per-request joint feature vectors assembled from subsystem traces.

The Dapper-style global request id ties every subsystem record to its
originating request ("the model relies on ... a unique global
identifier that ties each message to the originating request"), which
is what lets KOOZA learn *joint* per-request behaviour — the
correlations between individual subsystem models the paper highlights
(§5) — rather than four unrelated marginals.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Mapping

import numpy as np

from ..tracing import TraceSource, source_columns
from ..tracing.columnar import StringColumn

__all__ = [
    "FEATURE_COLUMNS",
    "RequestFeatures",
    "extract_request_features",
    "request_feature_columns",
    "source_feature_columns",
    "source_feature_streams",
]

#: Servers whose records are control-plane, not data-path.
_CONTROL_SERVERS = ("master",)

#: Storage block size the seek gaps are measured in.
_BLOCK = 4096

#: The columns :func:`request_feature_columns` reads, per stream.
FEATURE_COLUMNS: dict[str, tuple[str, ...]] = {
    "network": ("request_id", "server", "size_bytes"),
    "cpu": ("request_id", "server", "busy_seconds", "phase"),
    "memory": ("request_id", "timestamp", "bank", "size_bytes", "op"),
    "storage": ("request_id", "timestamp", "lbn", "size_bytes", "op"),
    "requests": (
        "request_id",
        "request_class",
        "server",
        "arrival_time",
        "completion_time",
    ),
}


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

    @property
    def cpu_busy(self) -> float:
        return self.cpu_lookup_busy + self.cpu_aggregate_busy

    @property
    def cpu_utilization(self) -> float:
        """Fraction of one core busy over the request lifetime."""
        return self.cpu_busy / self.latency if self.latency > 0 else 0.0


_FIELDS = tuple(f.name for f in fields(RequestFeatures))


def source_feature_streams(source: TraceSource) -> dict[str, dict[str, Any]]:
    """Any source's :data:`FEATURE_COLUMNS`, per stream, as stitched
    columns (see :func:`repro.tracing.source_columns`)."""
    return {
        stream: source_columns(source, stream, names)
        for stream, names in FEATURE_COLUMNS.items()
    }


def source_feature_columns(source: TraceSource) -> dict[str, Any]:
    """:func:`request_feature_columns` over any source's stitched
    columns."""
    return request_feature_columns(source_feature_streams(source))


def extract_request_features(source: TraceSource) -> list[RequestFeatures]:
    """Per-request feature vectors, sorted by arrival time.

    The rows of :func:`source_feature_columns` as
    :class:`RequestFeatures` of plain Python scalars.  Control-plane
    records (master lookups) are excluded from the data-path features;
    requests missing any subsystem record (e.g. cut off at simulation
    end) are dropped.
    """
    cols = source_feature_columns(source)
    return [
        RequestFeatures(*row)
        for row in zip(*(cols[name].tolist() for name in _FIELDS))
    ]


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
    """The request-feature join, over column dicts.

    ``streams`` maps stream name → (stitched or shifted) column dict
    for ``storage``, ``memory``, ``cpu``, ``network`` and ``requests``,
    holding at least the :data:`FEATURE_COLUMNS`.  The result holds
    one column per :class:`RequestFeatures` field plus
    ``cpu_utilization``, one row per complete request, sorted by
    arrival time.

    The join is exact, so the rows equal the per-record walk it
    replaced: integer sums/maxima are order-free; the CPU
    lookup/aggregate busy sums use ``np.add.at``, which performs the
    same scalar float adds in the same stream order as a per-record
    ``sum``; first-by-timestamp selections replicate Python's stable
    sort tie-breaking; the final ordering is a stable argsort on
    arrival time over rows in requests-stream order; and
    ``storage_delta`` — the seek gap to where the previous request on
    the same server ended — follows that arrival order, so on stitched
    columns it carries across shard seams.
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

    # Seek gaps: each request's first lbn minus where the previous
    # request on the same server (in arrival order) ended.
    server = requests["server"].take(final)
    storage_lbn = np.asarray(storage["lbn"])[sto_first[sto_at]]
    storage_bytes = sto_sums[sto_at]
    ends = storage_lbn + np.maximum(1, -(-storage_bytes // _BLOCK))
    by_server = np.argsort(server.codes, kind="stable")
    same = server.codes[by_server[1:]] == server.codes[by_server[:-1]]
    storage_delta = np.zeros(final.size, dtype=np.int64)
    storage_delta[by_server[1:][same]] = (
        storage_lbn[by_server[1:]] - ends[by_server[:-1]]
    )[same]

    mem_op = memory["op"]
    sto_op = storage["op"]
    return {
        "n": int(final.size),
        "request_id": rid_final,
        "request_class": requests["request_class"].take(final),
        "server": server,
        "arrival_time": arrival[final],
        "latency": latency,
        "network_bytes": net_max[net_at],
        "cpu_lookup_busy": lookup_sums[cpu_at],
        "cpu_aggregate_busy": aggregate_sums[cpu_at],
        "cpu_utilization": utilization,
        "memory_op": StringColumn(
            mem_op.codes[mem_first[mem_at]], mem_op.values
        ),
        "memory_bytes": mem_sums[mem_at],
        "memory_bank": np.asarray(memory["bank"])[mem_first[mem_at]],
        "storage_op": StringColumn(
            sto_op.codes[sto_first[sto_at]], sto_op.values
        ),
        "storage_bytes": storage_bytes,
        "storage_lbn": storage_lbn,
        "storage_delta": storage_delta,
    }
