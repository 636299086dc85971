"""The :class:`TraceSource` protocol: uniform read access to traces.

Every consumer of collected traces — trainers, characterization,
validation — historically took an in-memory :class:`TraceSet`.  That
forced the sharded on-disk store to materialize its full stitched
merge before any analysis could run.  ``TraceSource`` is the common
read interface that breaks that coupling:

* :meth:`~TraceSource.streams` — the stream names the source carries,
  in canonical order;
* :meth:`~TraceSource.iter_records` — the records of one stream, in
  merged (stitched) order;
* :meth:`~TraceSource.extent` — the end of the trace timeline, with
  the same semantics as :func:`repro.store.trace_extent`;
* :meth:`~TraceSource.classes` — completed-request counts per request
  class.

Three implementations ship: :class:`~repro.tracing.TraceSet` (in
memory), :class:`repro.store.ShardStore` (sharded on disk, stitched
lazily), and :class:`FlatTraceDump` (a flat v1/v2 dump directory, read
lazily).  :func:`as_trace_set` materializes any source for the batch
paths that genuinely need random access; :func:`source_columns` reads
one stream of any source as stitched column arrays.
"""

from __future__ import annotations

from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterator,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from .columnar import (
    columns_from_records,
    concat_columns,
    read_columnar_header,
    read_stream_columns,
    shift_columns,
)
from .store import (
    STREAM_TYPES,
    find_stream_file,
    holds_stream_files,
    iter_directory_records,
    open_trace_read,
    record_lines,
)
from .tracer import TraceSet, records_extent

__all__ = ["FlatTraceDump", "TraceSource", "as_trace_set", "source_columns"]


@runtime_checkable
class TraceSource(Protocol):
    """Read-only access to one logical trace timeline.

    Implementations must yield each stream's records in the order the
    merged in-memory ``TraceSet`` would hold them, so order-dependent
    statistics (interarrival gaps, storage seek distances) agree across
    sources byte for byte.
    """

    def streams(self) -> Tuple[str, ...]:
        """Stream names carried by this source, in canonical order."""
        ...

    def iter_records(self, stream: str) -> Iterator:
        """Yield one stream's records in merged (stitched) order."""
        ...

    def extent(self) -> float:
        """End of the trace timeline (latest timestamp, any stream)."""
        ...

    def classes(self) -> Dict[str, int]:
        """Completed-request counts per request class, sorted by name."""
        ...


def as_trace_set(source: TraceSource) -> TraceSet:
    """Materialize any :class:`TraceSource` into a :class:`TraceSet`.

    A ``TraceSet`` passes through unchanged; anything else is read
    stream by stream.  This is the explicit escape hatch for batch
    consumers — streaming paths should fold over
    :meth:`~TraceSource.iter_records` instead.
    """
    if isinstance(source, TraceSet):
        return source
    traces = TraceSet()
    for stream in source.streams():
        getattr(traces, stream).extend(source.iter_records(stream))
    return traces


def source_columns(
    source: TraceSource, stream: str, names: Optional[Sequence[str]] = None
) -> Dict[str, Any]:
    """One stream of any :class:`TraceSource` as stitched column arrays.

    A :class:`repro.store.ShardStore` loads each shard's columns
    (columnar buffers directly, jsonl decoded straight to columns),
    shifts them by the shard's stitch offsets and concatenates them in
    shard order; a :class:`FlatTraceDump` reads its one directory the
    same way (:func:`~repro.tracing.columnar.read_stream_columns`); any
    other source pivots its records through
    :func:`~repro.tracing.columnar.columns_from_records`.  Either way
    the rows are the stream's records in merged order.  ``names``
    restricts which columns are materialized.
    """
    # Deferred: repro.store imports this package at module level.
    from ..store.shards import ShardStore

    if isinstance(source, FlatTraceDump):
        if stream not in STREAM_TYPES:
            raise ValueError(f"unknown stream {stream!r}")
        return read_stream_columns(source.directory, stream, names)
    if not isinstance(source, ShardStore):
        return columns_from_records(stream, list(source.iter_records(stream)), names)
    parts = []
    for manifest, offsets in zip(source.manifests, source.offsets()):
        cols = source.load_shard_stream_columns(manifest, stream, names)
        parts.append(
            shift_columns(
                stream, cols, offsets.time, offsets.request_id, offsets.span_id
            )
        )
    return concat_columns(parts)


class FlatTraceDump:
    """Lazy :class:`TraceSource` over a flat v1/v2 trace dump directory.

    Reads nothing at construction beyond an existence check; records
    are parsed on iteration, :meth:`extent` scans the records once and
    :meth:`classes` the request columns once, and both cache.  Missing
    stream files iterate as empty, matching
    :func:`repro.tracing.load_traces` on partial dumps.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        if not self.directory.is_dir():
            raise FileNotFoundError(f"not a directory: {self.directory}")
        if not holds_stream_files(self.directory):
            raise FileNotFoundError(
                f"no trace stream files under {self.directory} "
                f"(expected <stream>.jsonl[.gz] or <stream>.columns.json)"
            )
        self._extent: float | None = None
        self._classes: Dict[str, int] | None = None

    def streams(self) -> Tuple[str, ...]:
        return tuple(STREAM_TYPES)

    def iter_records(self, stream: str) -> Iterator:
        return iter_directory_records(self.directory, stream)

    def extent(self) -> float:
        if self._extent is None:
            self._extent = records_extent(self)
        return self._extent

    def classes(self) -> Dict[str, int]:
        if self._classes is None:
            cols = read_stream_columns(
                self.directory,
                "requests",
                ("request_class", "arrival_time", "completion_time"),
            )
            classes = cols["request_class"]
            done = cols["completion_time"] > cols["arrival_time"]
            counts = zip(classes.values, classes.take(done).bincount().tolist())
            self._classes = {c: n for c, n in sorted(counts) if n}
        return dict(self._classes)

    def has_records(self) -> bool:
        """Whether any stream holds a record, decoding none of them.

        A jsonl stream counts once it has a non-blank line past its
        header; a columnar stream once its header's row count is
        positive.
        """
        for stream in STREAM_TYPES:
            path = find_stream_file(self.directory, stream)
            if path is not None:
                with open_trace_read(path) as fh:
                    lines = record_lines(path, fh)
                    if any(line and not line.isspace() for line in lines):
                        return True
                continue
            header = read_columnar_header(self.directory, stream)
            if header is not None and int(header["n"]) > 0:
                return True
        return False
