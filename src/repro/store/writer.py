"""Incremental shard writer: the streaming end of the trace store.

A :class:`ShardWriter` is the sink a fleet replica's
:class:`~repro.tracing.Tracer` streams into: every record goes to its
stream file through :func:`repro.tracing.store.open_stream_writer` (the
writer flat dumps use) the moment it is collected, and the stitch
bookkeeping (extent, max ids, per-class request counts) is tracked
incrementally with exactly the semantics of :mod:`repro.store.stitch` —
so the manifest written by :meth:`finalize` describes the shard without
ever re-reading it, and a merge driven purely by manifests reproduces
the in-memory merge byte for byte.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Any, Mapping, Optional

from .._version import tool_version
from ..tracing.store import STREAM_TYPES, check_codec, open_stream_writer
from .manifest import ShardManifest

__all__ = ["ShardWriter", "shard_dirname"]


def shard_dirname(index: int) -> str:
    """Canonical shard directory name.

    Zero-padded to 8 digits so lexicographic order matches index order
    up to 100M shards.  Readers sort by the *parsed* index
    (:func:`repro.store.parse_shard_index`) rather than name order, so
    stores mixing this pad with the historic 5-digit one still merge
    in index order.
    """
    return f"shard-{index:08d}"


class ShardWriter:
    """Streams one replica's records to disk and distills its manifest.

    Satisfies the ``Tracer`` sink protocol (``write(stream, record)``).
    Stream files are opened lazily, so an empty stream leaves no file —
    the reader treats a missing file as an empty stream, same as the
    flat-dump loader.
    """

    def __init__(
        self,
        directory: str | Path,
        index: int,
        app: str = "",
        seed: int = 0,
        params: Optional[Mapping[str, Any]] = None,
        compress: bool = False,
        round: int = 0,
        codec: str = "jsonl",
        continues: bool = False,
    ):
        check_codec(codec, compress)
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.index = index
        self.app = app
        self.seed = seed
        self.params = dict(params or {})
        self.compress = compress
        self.codec = codec
        self.round = round
        self.continues = continues
        self._writers: dict[str, Any] = {}
        self._finalized = False
        # Stitch bookkeeping, incremental mirror of repro.store.stitch.
        self._extent = 0.0
        self._max_request_id = 0
        self._max_span_id = 0
        self._counts = {stream: 0 for stream in STREAM_TYPES}
        self._request_classes: dict[str, int] = {}

    # -- sink protocol -------------------------------------------------------

    def write(self, stream: str, record) -> None:
        """Append one record to its stream file and update bookkeeping."""
        if self._finalized:
            raise RuntimeError("shard already finalized")
        writer = self._writers.get(stream)
        if writer is None:
            writer = self._writers[stream] = open_stream_writer(
                self.directory, stream, self.codec, self.compress
            )
        writer.write(record)
        self._track(stream, record)

    def _track(self, stream: str, record) -> None:
        self._counts[stream] += 1
        if stream == "spans":
            self._max_request_id = max(self._max_request_id, record.trace_id)
            self._max_span_id = max(self._max_span_id, record.span_id)
            self._extent = max(self._extent, record.start)
            if not math.isnan(record.end):
                self._extent = max(self._extent, record.end)
            for annotation in record.annotations:
                self._extent = max(self._extent, annotation.timestamp)
            return
        self._max_request_id = max(self._max_request_id, record.request_id)
        if stream == "requests":
            self._extent = max(
                self._extent, record.arrival_time, record.completion_time
            )
            cls = record.request_class
            self._request_classes[cls] = self._request_classes.get(cls, 0) + 1
        else:
            self._extent = max(self._extent, record.timestamp)

    # -- introspection -------------------------------------------------------

    @property
    def extent(self) -> float:
        """Latest timestamp streamed so far (stitch-extent semantics)."""
        return self._extent

    @property
    def counts(self) -> dict[str, int]:
        return dict(self._counts)

    # -- lifecycle -----------------------------------------------------------

    def finalize(
        self, duration: float = 0.0, extent_floor: Optional[float] = None
    ) -> ShardManifest:
        """Close stream files, write ``manifest.json``, return the manifest.

        ``duration`` is the replica's simulated duration when the caller
        knows it (e.g. ``env.now``); the manifest extent is its max with
        the streamed-record extent, so even a shard with zero records
        keeps its slot on the merged timeline.  A windowed collection
        passes ``extent_floor`` separately — the *absolute* window
        boundary — while ``duration`` stays the per-window delta, since
        window shards carry absolute timestamps but report incremental
        durations.
        """
        if self._finalized:
            raise RuntimeError("shard already finalized")
        self._finalized = True
        for writer in self._writers.values():
            writer.close()
        # Hash the raw stream-file bytes after close: the digest covers
        # exactly what a reader will see — one file per jsonl stream, a
        # combined digest over a columnar stream's header + column
        # buffers — so any later edit or corruption is detectable.
        from .cache import stream_content_hash

        content_hashes = {
            stream: stream_content_hash(self.directory, stream)
            for stream in sorted(self._writers)
        }
        self._writers.clear()
        manifest = ShardManifest(
            index=self.index,
            app=self.app,
            seed=self.seed,
            params=dict(self.params),
            duration=duration,
            extent=max(
                duration if extent_floor is None else extent_floor,
                self._extent,
            ),
            counts=dict(self._counts),
            max_request_id=self._max_request_id,
            max_span_id=self._max_span_id,
            request_classes=dict(sorted(self._request_classes.items())),
            compress=self.compress,
            codec=self.codec,
            round=self.round,
            continues=self.continues,
            content_hashes=content_hashes,
            tool_version=tool_version(),
        )
        manifest.save(self.directory)
        return manifest

    def __enter__(self) -> "ShardWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self._finalized:
            if exc_type is None:
                self.finalize()
            else:  # leave no half-valid shard behind a failed replica
                for writer in self._writers.values():
                    writer.abort()
                self._writers.clear()
