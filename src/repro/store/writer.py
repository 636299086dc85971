"""Incremental shard writer: the streaming end of the trace store.

A :class:`ShardWriter` is the sink a fleet replica's
:class:`~repro.tracing.Tracer` streams into: every record is appended
to ``<shard-dir>/<stream>.jsonl[.gz]`` the moment it is collected, and
the stitch bookkeeping (extent, max ids, per-class request counts) is
tracked incrementally with exactly the semantics of
:mod:`repro.store.stitch` — so the manifest written by
:meth:`finalize` describes the shard without ever re-reading it, and a
merge driven purely by manifests reproduces the in-memory merge
byte for byte.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Any, Mapping, Optional, TextIO

from .._version import tool_version
from ..tracing.codec import dumps
from ..tracing.columnar import ColumnarStreamWriter
from ..tracing.store import STREAM_TYPES, open_trace_write, stream_header
from .manifest import SHARD_CODECS, ShardManifest

__all__ = ["ShardWriter", "shard_dirname"]

#: Lines buffered per jsonl stream before hitting the file object.  The
#: buffered bytes are identical to per-record writes (flushes are pure
#: concatenation), but gzip streams see ~2 orders of magnitude fewer
#: write calls.
_BUFFER_LINES = 256


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
        if codec not in SHARD_CODECS:
            raise ValueError(f"unknown shard codec {codec!r}")
        if codec == "columnar" and compress:
            raise ValueError(
                "columnar shards do not support compress "
                "(column buffers are raw binary)"
            )
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
        self._suffix = ".jsonl.gz" if compress else ".jsonl"
        self._files: dict[str, TextIO] = {}
        self._buffers: dict[str, list[str]] = {}
        self._columns: dict[str, ColumnarStreamWriter] = {}
        self._finalized = False
        # Stitch bookkeeping, incremental mirror of repro.store.stitch.
        self._extent = 0.0
        self._max_request_id = 0
        self._max_span_id = 0
        self._counts = {stream: 0 for stream in STREAM_TYPES}
        self._request_classes: dict[str, int] = {}

    # -- sink protocol -------------------------------------------------------

    def write(self, stream: str, record) -> None:
        """Append one record to its stream file and update bookkeeping.

        jsonl records are staged in a per-stream line buffer and flushed
        in batches (and at :meth:`finalize`); the flushed bytes are
        identical to unbuffered per-record writes.
        """
        if self._finalized:
            raise RuntimeError("shard already finalized")
        if self.codec == "columnar":
            writer = self._columns.get(stream)
            if writer is None:
                if stream not in STREAM_TYPES:
                    raise ValueError(f"unknown stream {stream!r}")
                writer = ColumnarStreamWriter(self.directory, stream)
                self._columns[stream] = writer
            writer.write(record)
        else:
            buffer = self._buffers.get(stream)
            if buffer is None:
                if stream not in STREAM_TYPES:
                    raise ValueError(f"unknown stream {stream!r}")
                fh = open_trace_write(
                    self.directory / f"{stream}{self._suffix}"
                )
                fh.write(dumps(stream_header(stream)) + "\n")
                self._files[stream] = fh
                buffer = self._buffers[stream] = []
            buffer.append(dumps(record.to_dict()))
            if len(buffer) >= _BUFFER_LINES:
                self._files[stream].write("\n".join(buffer) + "\n")
                buffer.clear()
        self._track(stream, record)

    def _flush_buffers(self) -> None:
        for stream, buffer in self._buffers.items():
            if buffer:
                self._files[stream].write("\n".join(buffer) + "\n")
                buffer.clear()

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
        self._flush_buffers()
        for fh in self._files.values():
            fh.close()
        self._files.clear()
        self._buffers.clear()
        for writer in self._columns.values():
            writer.close()
        self._columns.clear()
        # Hash the raw stream-file bytes after close: the digest covers
        # exactly what a reader will see — one file per jsonl stream, a
        # combined digest over a columnar stream's header + column
        # buffers — so any later edit or corruption is detectable.
        from .cache import stream_content_hash

        content_hashes = {}
        for stream in sorted(self._counts):
            if not self._counts[stream]:
                continue
            digest = stream_content_hash(self.directory, stream)
            if digest is not None:
                content_hashes[stream] = digest
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
                self._buffers.clear()
                for fh in self._files.values():
                    fh.close()
                self._files.clear()
                for writer in self._columns.values():
                    writer.abort()
                self._columns.clear()
