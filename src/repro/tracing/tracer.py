"""The trace collector instrumented into the simulated datacenter.

Combines the two tracing regimes the paper describes:

* **subsystem tracing** (always on): the four per-subsystem record
  streams that in-breadth models train on — "training the four models
  requires collecting traces for the corresponding part of the system,
  a standard procedure for any DC configuration study";
* **request tracing** (Dapper-style, sampled 1-in-N): nested spans
  that capture the complete round trip of a request, from which the
  KOOZA time-dependency queue is extracted.

A :class:`TraceSet` bundles everything a model trainer consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .records import (
    CpuRecord,
    MemoryRecord,
    NetworkRecord,
    RequestRecord,
    StorageRecord,
)
from .span import Annotation, Span

__all__ = [
    "STREAM_NAMES",
    "TraceSet",
    "Tracer",
    "records_extent",
    "shift_request",
    "shift_span",
    "shift_subsystem_record",
]

#: Canonical stream order (mirrors ``repro.tracing.store.STREAM_TYPES``,
#: which cannot be imported here without a cycle).
STREAM_NAMES = ("network", "cpu", "memory", "storage", "requests", "spans")


# The shift functions build their copies with the record constructor
# (positional, in field order): ``dataclasses.replace`` costs 3-5x as
# much per record.  The unshifted fields are the same objects either
# way, a request's ``extra`` dict included.
_SUBSYSTEM_SHIFTS = {
    NetworkRecord: lambda r, t, i: NetworkRecord(
        r.request_id + i, r.server, r.timestamp + t, r.size_bytes, r.direction
    ),
    CpuRecord: lambda r, t, i: CpuRecord(
        r.request_id + i, r.server, r.timestamp + t, r.busy_seconds, r.phase
    ),
    MemoryRecord: lambda r, t, i: MemoryRecord(
        r.request_id + i, r.server, r.timestamp + t, r.bank, r.size_bytes,
        r.op, r.duration,
    ),
    StorageRecord: lambda r, t, i: StorageRecord(
        r.request_id + i, r.server, r.timestamp + t, r.lbn, r.size_bytes,
        r.op, r.duration, r.queue_depth,
    ),
}


def shift_subsystem_record(record, time_offset: float = 0.0, request_id_offset: int = 0):
    """A copy of a network/cpu/memory/storage record with offsets applied."""
    return _SUBSYSTEM_SHIFTS[type(record)](record, time_offset, request_id_offset)


def shift_request(
    record: RequestRecord, time_offset: float = 0.0, request_id_offset: int = 0
) -> RequestRecord:
    """A copy of a request record with its id and both times offset."""
    return RequestRecord(
        record.request_id + request_id_offset,
        record.request_class,
        record.server,
        record.arrival_time + time_offset,
        record.completion_time + time_offset,
        record.network_bytes,
        record.cpu_busy_seconds,
        record.memory_bytes,
        record.memory_op,
        record.storage_bytes,
        record.storage_op,
        record.extra,
    )


def shift_span(
    span: Span,
    time_offset: float = 0.0,
    request_id_offset: int = 0,
    span_id_offset: int = 0,
) -> Span:
    """A copy of a span with trace/span ids and all timestamps offset."""
    parent_id = span.parent_id
    return Span(
        span.trace_id + request_id_offset,
        span.span_id + span_id_offset,
        None if parent_id is None else parent_id + span_id_offset,
        span.name,
        span.server,
        span.start + time_offset,
        span.end + time_offset,
        [
            Annotation(a.timestamp + time_offset, a.message)
            for a in span.annotations
        ],
    )


def records_extent(source) -> float:
    """Latest timestamp in any stream of a ``TraceSource``."""
    extent = 0.0
    for stream in ("network", "cpu", "memory", "storage"):
        for record in source.iter_records(stream):
            extent = max(extent, record.timestamp)
    for record in source.iter_records("requests"):
        extent = max(extent, record.arrival_time, record.completion_time)
    for span in source.iter_records("spans"):
        extent = max(extent, span.start)
        if not math.isnan(span.end):
            extent = max(extent, span.end)
        for annotation in span.annotations:
            extent = max(extent, annotation.timestamp)
    return extent


@dataclass
class TraceSet:
    """Everything collected from one simulation run.

    The training input for every modeling technique in the repository.
    """

    network: list[NetworkRecord] = field(default_factory=list)
    cpu: list[CpuRecord] = field(default_factory=list)
    memory: list[MemoryRecord] = field(default_factory=list)
    storage: list[StorageRecord] = field(default_factory=list)
    requests: list[RequestRecord] = field(default_factory=list)
    spans: list[Span] = field(default_factory=list)

    def completed_requests(self) -> list[RequestRecord]:
        """Requests that finished before the simulation ended."""
        return [r for r in self.requests if r.completion_time > r.arrival_time]

    def requests_by_class(self) -> dict[str, list[RequestRecord]]:
        """Completed requests grouped by request class."""
        grouped: dict[str, list[RequestRecord]] = {}
        for record in self.completed_requests():
            grouped.setdefault(record.request_class, []).append(record)
        return grouped

    # -- TraceSource protocol ------------------------------------------------

    def streams(self) -> tuple[str, ...]:
        """Stream names carried by this set, in canonical order."""
        return STREAM_NAMES

    def iter_records(self, stream: str) -> Iterator:
        """Yield one stream's records (``TraceSource`` protocol)."""
        if stream not in STREAM_NAMES:
            raise ValueError(f"unknown stream {stream!r}")
        return iter(getattr(self, stream))

    def extent(self) -> float:
        """Latest timestamp in any stream (stitch-extent semantics)."""
        return records_extent(self)

    def classes(self) -> dict[str, int]:
        """Completed-request counts per request class, sorted by name."""
        return dict(
            sorted(
                (cls, len(records))
                for cls, records in self.requests_by_class().items()
            )
        )

    def shifted(
        self,
        time_offset: float = 0.0,
        request_id_offset: int = 0,
        span_id_offset: int = 0,
    ) -> "TraceSet":
        """A copy with all timestamps and identifiers offset.

        Used when merging independent runs (e.g. fleet replicas) into
        one trace timeline: each run's clock starts at zero and its
        tracer numbers requests/spans from one, so a later run must be
        shifted past its predecessors to keep merged timestamps
        monotone per replica and identifiers globally unique.

        The per-record transforms live at module level
        (:func:`shift_subsystem_record`, :func:`shift_request`,
        :func:`shift_span`) so the on-disk shard store can apply the
        exact same arithmetic one record at a time without
        materializing whole trace sets.
        """

        def req(r: RequestRecord) -> RequestRecord:
            return shift_request(r, time_offset, request_id_offset)

        def span(s: Span) -> Span:
            return shift_span(s, time_offset, request_id_offset, span_id_offset)

        def rec(r):
            return shift_subsystem_record(r, time_offset, request_id_offset)

        return TraceSet(
            network=[rec(r) for r in self.network],
            cpu=[rec(r) for r in self.cpu],
            memory=[rec(r) for r in self.memory],
            storage=[rec(r) for r in self.storage],
            requests=[req(r) for r in self.requests],
            spans=[span(s) for s in self.spans],
        )

    def merge(self, other: "TraceSet") -> "TraceSet":
        """A new TraceSet containing this set's and ``other``'s records."""
        return TraceSet(
            network=self.network + other.network,
            cpu=self.cpu + other.cpu,
            memory=self.memory + other.memory,
            storage=self.storage + other.storage,
            requests=self.requests + other.requests,
            spans=self.spans + other.spans,
        )

    def summary(self) -> dict[str, int]:
        """Record counts per stream (for logging and sanity checks)."""
        return {
            "network": len(self.network),
            "cpu": len(self.cpu),
            "memory": len(self.memory),
            "storage": len(self.storage),
            "requests": len(self.requests),
            "spans": len(self.spans),
        }


class Tracer:
    """Collects subsystem records always, spans for sampled requests.

    ``sample_every`` mirrors Dapper's 1-in-N trace sampling (the paper
    quotes 1/1000 with <1.5% overhead); ``sample_every=1`` traces every
    request, which the small simulated clusters can afford.

    A ``sink`` (any object with ``write(stream, record)``, e.g. a
    :class:`repro.store.ShardWriter`) receives every record as it is
    collected, so a fleet replica can stream its traces straight to
    disk.  Network/cpu/memory/storage/request records are final when
    recorded and are forwarded immediately; spans are mutated until
    :meth:`end_span` (their ``end`` is backfilled), so they are held in
    memory and flushed to the sink, in collection order, by
    :meth:`flush_spans` / :meth:`close`.  With ``keep_records=False``
    the forwarded streams are *not* also accumulated in :attr:`traces`,
    bounding memory to the (sampled) span set no matter how long the
    run is.

    Windowed collection swaps :attr:`sink` between windows and calls
    :meth:`flush_spans` at each boundary; :attr:`emitted` counts every
    record forwarded per stream, which engine checkpoints record and
    replays validate against.
    """

    def __init__(self, sample_every: int = 1, sink=None, keep_records: bool = True):
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")
        if sink is None and not keep_records:
            raise ValueError("keep_records=False requires a sink")
        self.sample_every = sample_every
        self.traces = TraceSet()
        self.sink = sink
        self.keep_records = keep_records
        #: Records forwarded so far, per stream (spans count when flushed).
        self.emitted: dict[str, int] = {name: 0 for name in STREAM_NAMES}
        self._closed = False
        self._next_span_id = 0
        self._sampled: set[int] = set()
        self._request_counter = 0
        #: Spans written to a sink so far (prefix of collection order).
        self._spans_flushed = 0
        #: Flushed spans dropped from the front of ``traces.spans``
        #: (non-zero only with ``keep_records=False``).
        self._spans_base = 0

    # -- request lifecycle -------------------------------------------------

    def new_request_id(self) -> int:
        """Allocate a globally unique request id (the Dapper trace id)."""
        self._request_counter += 1
        request_id = self._request_counter
        if (request_id - 1) % self.sample_every == 0:
            self._sampled.add(request_id)
        return request_id

    def is_sampled(self, request_id: int) -> bool:
        """Whether this request's spans are being recorded."""
        return request_id in self._sampled

    def record_request(self, record: RequestRecord) -> None:
        """Register an end-to-end request record (always collected)."""
        self.emitted["requests"] += 1
        if self.keep_records:
            self.traces.requests.append(record)
        if self.sink is not None:
            self.sink.write("requests", record)

    # -- span API (sampled) --------------------------------------------------

    def start_span(
        self,
        request_id: int,
        name: str,
        server: str,
        start: float,
        parent: Optional[Span] = None,
    ) -> Optional[Span]:
        """Open a span for a sampled request; returns None if unsampled."""
        if request_id not in self._sampled:
            return None
        self._next_span_id += 1
        span = Span(
            trace_id=request_id,
            span_id=self._next_span_id,
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            server=server,
            start=start,
        )
        self.traces.spans.append(span)
        return span

    def end_span(self, span: Optional[Span], end: float) -> None:
        """Close a span (no-op for unsampled requests)."""
        if span is not None:
            span.end = end

    # -- subsystem record API (always on) -----------------------------------

    # Each recorder inlines its emit (counter bump, optional in-memory
    # append, optional sink forward) rather than dispatching through a
    # stream-name-keyed helper: these five calls are the per-record hot
    # path, and the string-keyed getattr plus the extra frame showed up
    # in collect profiles.  ``sink`` is re-read every call because
    # windowed collection swaps it between windows.

    def record_network(self, record: NetworkRecord) -> None:
        self.emitted["network"] += 1
        if self.keep_records:
            self.traces.network.append(record)
        if self.sink is not None:
            self.sink.write("network", record)

    def record_cpu(self, record: CpuRecord) -> None:
        self.emitted["cpu"] += 1
        if self.keep_records:
            self.traces.cpu.append(record)
        if self.sink is not None:
            self.sink.write("cpu", record)

    def record_memory(self, record: MemoryRecord) -> None:
        self.emitted["memory"] += 1
        if self.keep_records:
            self.traces.memory.append(record)
        if self.sink is not None:
            self.sink.write("memory", record)

    def record_storage(self, record: StorageRecord) -> None:
        self.emitted["storage"] += 1
        if self.keep_records:
            self.traces.storage.append(record)
        if self.sink is not None:
            self.sink.write("storage", record)

    # -- streaming ----------------------------------------------------------

    def flush_spans(self, final: bool = False) -> int:
        """Forward unflushed spans to the sink; returns how many.

        Spans cannot be streamed eagerly because ``end`` is backfilled,
        and they must reach sinks in *collection order* (the order
        :attr:`traces` holds them in, and the order a single-shot run's
        :meth:`close` writes) for on-disk shards to stay
        record-for-record identical to the in-memory stream.  So a
        non-``final`` flush — a window boundary, where later windows
        write to a *different* sink — forwards only the longest prefix
        of completed spans: a still-open span holds back every span
        collected after it, however finished, because those must land
        behind it in a later shard.  ``final`` flushes everything,
        open spans included (end-of-run semantics, identical to what
        :meth:`close` always wrote).

        With ``keep_records=False`` flushed spans are dropped from
        memory, keeping long windowed runs bounded.
        """
        spans = self.traces.spans
        start = self._spans_flushed - self._spans_base
        stop = len(spans) if final else start
        if not final:
            while stop < len(spans) and not math.isnan(spans[stop].end):
                stop += 1
        if self.sink is not None:
            for span in spans[start:stop]:
                self.sink.write("spans", span)
        count = stop - start
        self._spans_flushed += count
        self.emitted["spans"] += count
        if not self.keep_records:
            del spans[:stop]
            self._spans_base = self._spans_flushed
        return count

    def close(self) -> None:
        """Flush all remaining spans to the sink (idempotent)."""
        if self._closed or self.sink is None:
            self._closed = True
            return
        self._closed = True
        self.flush_spans(final=True)
