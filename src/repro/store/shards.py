"""Reading a sharded trace store: manifest-stitched, lazily iterated.

A store directory looks like::

    store/
      shard-00000/
        manifest.json
        network.jsonl[.gz]  cpu.jsonl[.gz]  ...  spans.jsonl[.gz]
      shard-00001/
        ...

:class:`ShardStore` reads only the manifests up front.  Records are
iterated stream-by-stream in shard-index order with the same monotonic
time / identifier shifts :func:`repro.datacenter.fleet.merge_replicas`
applies — computed purely from manifest fields, so stitching N shards
costs one pass over the records of interest and never materializes more
than the caller keeps.  :meth:`merged` is therefore byte-identical to
the in-memory merge for any worker count that produced the shards.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Iterator

from ..tracing import TraceSet, shift_request, shift_span, shift_subsystem_record
from ..tracing.columnar import (
    class_columns,
    read_stream_columns,
    records_from_columns,
)
from ..tracing.source import as_trace_set, source_columns
from ..tracing.store import STREAM_TYPES, iter_directory_records
from .manifest import MANIFEST_FILENAME, ShardManifest, shard_manifest_paths
from .stitch import StitchOffsets, offsets_for, total_extent

__all__ = ["ShardStore", "is_shard_store", "shifter_for"]


def is_shard_store(directory: str | Path) -> bool:
    """Whether ``directory`` holds at least one shard manifest."""
    return any(Path(directory).glob(f"shard-*/{MANIFEST_FILENAME}"))


#: Stream name -> (record, offsets) shifter.  A dispatch table instead
#: of a per-record conditional chain: hot loops look the shifter up
#: once per (shard, stream) and then call it per record.
_SHIFTERS = {
    "requests": lambda record, o: shift_request(record, o.time, o.request_id),
    "spans": lambda record, o: shift_span(
        record, o.time, o.request_id, o.span_id
    ),
}
_SHIFT_SUBSYSTEM = lambda record, o: shift_subsystem_record(  # noqa: E731
    record, o.time, o.request_id
)


def shifter_for(stream: str, offsets: StitchOffsets):
    """Bound one-argument shifter for a (stream, offsets) pair.

    Hoist this out of record loops: the stream dispatch and offset
    attribute lookups happen once, the returned callable does only the
    shift arithmetic per record.
    """
    shift = _SHIFTERS.get(stream, _SHIFT_SUBSYSTEM)
    return lambda record: shift(record, offsets)


class ShardStore:
    """Lazy, stitch-aware view over an on-disk shard directory."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        manifest_paths = shard_manifest_paths(self.directory)
        if not manifest_paths:
            raise FileNotFoundError(
                f"no shard manifests under {self.directory} "
                f"(expected shard-*/{MANIFEST_FILENAME})"
            )
        manifests: list[ShardManifest] = []
        shard_dirs: dict[int, Path] = {}
        for path in manifest_paths:
            manifest = ShardManifest.load(path)
            if manifest.index in shard_dirs:
                raise ValueError(
                    f"duplicate shard index {manifest.index} in {self.directory}"
                )
            manifests.append(manifest)
            shard_dirs[manifest.index] = path.parent
        manifests.sort(key=lambda m: m.index)
        self.manifests = manifests
        self._shard_dirs = shard_dirs

    @classmethod
    def for_shard(
        cls, directory: str | Path, manifest: ShardManifest, shard_dir: str | Path
    ) -> "ShardStore":
        """A one-shard view from a manifest already read.

        Opening it reads nothing, so a worker that folds one shard of a
        large store does not load every manifest to find its own.
        """
        store = cls.__new__(cls)
        store.directory = Path(directory)
        store.manifests = [manifest]
        store._shard_dirs = {manifest.index: Path(shard_dir)}
        return store

    # -- metadata ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.manifests)

    def shard_dir(self, manifest: ShardManifest) -> Path:
        return self._shard_dirs[manifest.index]

    def offsets(self) -> list[StitchOffsets]:
        """Per-shard stitch offsets, computed from manifests alone."""
        return offsets_for([m.stitch_part() for m in self.manifests])

    def counts(self) -> dict[str, int]:
        """Total record counts per stream across all shards."""
        totals = {stream: 0 for stream in STREAM_TYPES}
        for manifest in self.manifests:
            for stream, n in manifest.counts.items():
                totals[stream] = totals.get(stream, 0) + n
        return totals

    def request_class_counts(self) -> dict[str, int]:
        """Completed requests per request class across all shards."""
        totals: dict[str, int] = {}
        for manifest in self.manifests:
            for cls, n in manifest.request_classes.items():
                totals[cls] = totals.get(cls, 0) + n
        return dict(sorted(totals.items()))

    def rounds(self) -> dict[int, list[ShardManifest]]:
        """Shard manifests grouped by collection round, both sorted.

        Pre-round stores (version-1 manifests) report everything as
        round 0.
        """
        grouped: dict[int, list[ShardManifest]] = {}
        for manifest in self.manifests:
            grouped.setdefault(manifest.round, []).append(manifest)
        return dict(sorted(grouped.items()))

    def verify(self) -> dict[int, list[str]]:
        """Re-hash every stream file against its manifest content hash.

        Returns ``{shard index: [mismatching stream names]}`` for shards
        whose bytes no longer match what :class:`ShardWriter` recorded —
        edits, truncation, corruption.  Hashless version-1 shards verify
        trivially.  An empty dict means the store is intact.

        Legacy jsonl digests (a plain sha256 of the single stream file)
        and columnar digests (a combined digest over header + column
        buffers) both flow through
        :func:`repro.store.stream_content_hash`, so stores written by
        any version verify with the same code path.
        """
        from .cache import stream_content_hash

        bad: dict[int, list[str]] = {}
        for manifest in self.manifests:
            shard_dir = self.shard_dir(manifest)
            for stream, expected in manifest.content_hashes.items():
                if stream_content_hash(shard_dir, stream) != expected:
                    bad.setdefault(manifest.index, []).append(stream)
        return bad

    def group_by(self, key: str) -> dict[Any, list[ShardManifest]]:
        """Group shard manifests by a spec parameter (sweep analysis).

        ``key`` may be a manifest field (``app``, ``seed``, ...) or any
        parameter recorded in ``params`` (``arrival_rate``,
        ``n_requests``, ...).
        """
        groups: dict[Any, list[ShardManifest]] = {}
        for manifest in self.manifests:
            groups.setdefault(manifest.param(key), []).append(manifest)
        return groups

    # -- TraceSource protocol ------------------------------------------------

    def streams(self) -> tuple[str, ...]:
        """Stream names in canonical order (``TraceSource`` protocol)."""
        return tuple(STREAM_TYPES)

    def iter_records(self, stream: str) -> Iterator:
        """Yield one stream's records, stitched (``TraceSource`` protocol)."""
        return self.iter_stream(stream)

    def extent(self) -> float:
        """Total stitched timeline length, from manifests alone.

        Each shard (or windowed continuation group, which occupies one
        slot) is shifted past the cumulative extent of its predecessors,
        so the merged timeline ends where the last group's shifted
        extent does.
        """
        return total_extent([m.stitch_part() for m in self.manifests])

    def classes(self) -> dict[str, int]:
        """Completed-request counts per class (``TraceSource`` protocol)."""
        return self.request_class_counts()

    # -- records -------------------------------------------------------------

    def iter_shard_stream(self, manifest: ShardManifest, stream: str) -> Iterator:
        """Yield one shard's records for ``stream``, unshifted."""
        return iter_directory_records(self.shard_dir(manifest), stream)

    def load_shard_stream_columns(
        self,
        manifest: ShardManifest,
        stream: str,
        names: "list[str] | None" = None,
    ) -> "dict[str, Any]":
        """One shard's stream as full (unshifted) column arrays.

        The analyzer's entry point
        (:func:`repro.tracing.columnar.read_stream_columns`): columnar
        shards serve their buffers directly; jsonl shards decode straight
        to columns.  Both codecs hand back the identical representation,
        which is what makes cross-codec analyses byte-identical.  A
        stream with no file (empty stream) loads as zero-length columns.
        """
        return read_stream_columns(self.shard_dir(manifest), stream, names)

    def iter_stream(self, stream: str) -> Iterator:
        """Yield all shards' records for ``stream``, stitched.

        Shards are visited in index order and every record is shifted by
        the manifest-derived offsets, so the concatenation across shards
        is exactly the stream of the in-memory merged ``TraceSet``.
        """
        if stream not in STREAM_TYPES:
            raise ValueError(f"unknown stream {stream!r}")
        for manifest, offsets in zip(self.manifests, self.offsets()):
            yield from map(
                shifter_for(stream, offsets),
                self.iter_shard_stream(manifest, stream),
            )

    def merged(self) -> TraceSet:
        """Materialize the stitched merge of all shards."""
        return as_trace_set(self)

    def class_traces(self, request_class: str) -> TraceSet:
        """The stitched records belonging to one request class.

        The record view of :func:`~repro.tracing.columnar.class_columns`
        — the class split training uses — over every stream's stitched
        columns (:func:`repro.tracing.source_columns`).
        """
        streams = {
            stream: source_columns(self, stream) for stream in STREAM_TYPES
        }
        part, _ = class_columns(streams, request_class)
        traces = TraceSet()
        for stream, cols in part.items():
            getattr(traces, stream).extend(records_from_columns(stream, cols))
        return traces

    def summary(self) -> dict[str, int]:
        """Record counts per stream (same shape as ``TraceSet.summary``)."""
        return self.counts()
