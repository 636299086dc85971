"""Trace persistence: the stream files of a trace directory.

Traces collected from a simulation run can be written to a directory
(one ``.jsonl`` file per stream, optionally gzipped, or the columnar
layout) and reloaded later, so model training can be decoupled from
trace collection — the workflow the paper assumes ("each one of the
four models is trained using traces from the corresponding
subsystem").

Format versions:

* **v1** (legacy): bare record lines, no header, never compressed.
* **v2**: the first line of each stream file is a header object
  ``{"format": "repro-traces", "version": 2, "stream": <name>}`` and
  files may carry a ``.jsonl.gz`` suffix.  Readers accept both — the
  header is recognized by its ``format`` key, so v1 dumps keep loading.

Every stream file, under either codec, is written by
:func:`open_stream_writer` and read by :func:`iter_directory_records`.
:func:`save_traces` (flat dumps, ``repro merge``, ``repro convert``)
and :class:`repro.store.ShardWriter` both write through it, so a flat
dump and a shard of the same records hold the same stream bytes (a
shard just leaves no file for an empty stream).
:func:`load_traces` additionally recognizes a shard-store
directory (``shard-*/manifest.json``) and opens it as a lazy
:class:`repro.store.ShardStore` rather than stitching it eagerly.
"""

from __future__ import annotations

import gzip
import io
import json
from itertools import chain
from pathlib import Path
from typing import Iterator, TextIO

from .codec import dumps
from .records import (
    CpuRecord,
    MemoryRecord,
    NetworkRecord,
    RequestRecord,
    StorageRecord,
)
from .span import Span
from .tracer import TraceSet

__all__ = [
    "STREAM_TYPES",
    "TRACES_FORMAT",
    "TRACES_VERSION",
    "check_codec",
    "find_stream_file",
    "holds_stream_files",
    "iter_directory_records",
    "iter_record_batches",
    "iter_stream_records",
    "load_traces",
    "open_stream_writer",
    "open_trace_read",
    "open_trace_write",
    "record_lines",
    "refuse_stream_files",
    "save_traces",
    "stream_header",
]

#: Record class for each stream, in canonical stream order.
STREAM_TYPES = {
    "network": NetworkRecord,
    "cpu": CpuRecord,
    "memory": MemoryRecord,
    "storage": StorageRecord,
    "requests": RequestRecord,
    "spans": Span,
}

TRACES_FORMAT = "repro-traces"
TRACES_VERSION = 2


def stream_header(stream: str) -> dict:
    """The v2 header object written as the first line of a stream file."""
    return {"format": TRACES_FORMAT, "version": TRACES_VERSION, "stream": stream}


class _CanonicalGzipFile(gzip.GzipFile):
    """Gzip writer with a canonical member header.

    ``GzipFile(filename=...)`` embeds the file's basename (FNAME field)
    and, unless overridden, the wall-clock mtime — so byte-identical
    record streams could hash differently across paths or runs.  This
    writer pins ``mtime=0`` and omits FNAME entirely, making the
    compressed bytes a pure function of the uncompressed bytes.  It
    owns the underlying raw file (``GzipFile.close`` never closes an
    external ``fileobj``, so ``close`` is extended to do it).
    """

    def __init__(self, path: str | Path):
        self._raw = Path(path).open("wb")
        try:
            super().__init__(
                filename="", fileobj=self._raw, mode="wb", mtime=0
            )
        except Exception:
            self._raw.close()
            raise

    def close(self) -> None:
        try:
            super().close()
        finally:
            self._raw.close()


def open_trace_write(path: str | Path) -> TextIO:
    """Open a trace stream file for writing; ``.gz`` suffix gzips.

    Gzip members are written with a canonical header (``mtime=0``, no
    embedded filename) so identical records produce byte-identical
    files — the reproducibility contract the sharded fleet tests
    assert at the file level.
    """
    path = Path(path)
    if path.suffix == ".gz":
        return io.TextIOWrapper(_CanonicalGzipFile(path), encoding="utf-8")
    return path.open("w", encoding="utf-8")


def open_trace_read(path: str | Path) -> TextIO:
    """Open a (possibly gzipped) trace stream file for reading."""
    path = Path(path)
    if path.suffix == ".gz":
        return io.TextIOWrapper(gzip.GzipFile(str(path), "rb"), encoding="utf-8")
    return path.open("r", encoding="utf-8")


def find_stream_file(directory: str | Path, stream: str) -> Path | None:
    """Locate ``<stream>.jsonl`` or ``<stream>.jsonl.gz`` in a directory."""
    directory = Path(directory)
    for suffix in (".jsonl", ".jsonl.gz"):
        path = directory / f"{stream}{suffix}"
        if path.exists():
            return path
    return None


def holds_stream_files(directory: str | Path) -> bool:
    """Whether ``directory`` holds any stream file, jsonl or columnar."""
    from .columnar import find_columnar_stream

    return any(
        find_stream_file(directory, stream) is not None
        or find_columnar_stream(directory, stream) is not None
        for stream in STREAM_TYPES
    )


def refuse_stream_files(directory: str | Path) -> None:
    """Raise :class:`FileExistsError` if ``directory`` holds a stream file.

    A flat dump written into such a directory would overwrite an older
    dump, or sit next to one in the other codec.
    """
    if holds_stream_files(directory):
        raise FileExistsError(
            f"{directory} already holds trace stream files; choose a "
            "fresh directory"
        )


def _is_header(data: dict) -> bool:
    return isinstance(data, dict) and data.get("format") == TRACES_FORMAT


#: Memoized header detection: path -> ((mtime_ns, size, inode), has_header).
#: Stream files are opened once per shard per analysis stream, and an
#: incremental workflow re-opens the same (immutable) shard files across
#: many characterize/validate calls — caching the decoded-and-validated
#: verdict skips a json.loads per open.  Keyed on stat identity so an
#: edited file re-validates; the inode is part of the key because the
#: usual rewrite pattern (write a temp file, ``os.replace`` over the
#: original) can leave mtime and size unchanged within filesystem
#: timestamp granularity while swapping in different bytes.
_HEADER_CACHE: dict[str, tuple[tuple[int, int, int], bool]] = {}
_HEADER_CACHE_MAX = 4096


def _first_line_is_header(path: Path, line: str) -> bool:
    """Whether the first non-blank line is a (validated) v2 header."""
    key = str(path)
    try:
        stat = path.stat()
        signature = (stat.st_mtime_ns, stat.st_size, stat.st_ino)
    except OSError:
        signature = None
    if signature is not None:
        cached = _HEADER_CACHE.get(key)
        if cached is not None and cached[0] == signature:
            return cached[1]
    data = json.loads(line)
    has_header = _is_header(data)
    if has_header:
        version = data.get("version")
        if not isinstance(version, int) or version > TRACES_VERSION:
            raise ValueError(
                f"{path}: unsupported trace format version {version!r}"
            )
    if signature is not None:
        if len(_HEADER_CACHE) >= _HEADER_CACHE_MAX:
            _HEADER_CACHE.clear()
        _HEADER_CACHE[key] = (signature, has_header)
    return has_header


def iter_record_batches(
    path: str | Path, record_cls, batch_size: int = 1024
) -> Iterator[list]:
    """Yield records from one stream file in lists of ``batch_size``.

    The JSONL hot path: header handling happens once up front (memoized
    across opens of the same unchanged file), then the loop body is a
    single dispatch — ``from_dict(loads(line))`` with both callables
    bound locally — with no per-record conditionals.  Blank lines are
    skipped without allocating a stripped copy (``json.loads`` accepts
    surrounding whitespace).
    """
    path = Path(path)
    with open_trace_read(path) as fh:
        loads = json.loads
        from_dict = record_cls.from_dict
        batch: list = []
        append = batch.append
        for line in record_lines(path, fh):
            if line and not line.isspace():
                append(from_dict(loads(line)))
                if len(batch) >= batch_size:
                    yield batch
                    batch = []
                    append = batch.append
        if batch:
            yield batch


def record_lines(path: Path, fh: TextIO) -> Iterator[str]:
    """The record lines of an open stream file, blank lines included.

    Consumes the leading blank lines and the v2 header (validated and
    memoized per unchanged file); a v1 file's first line is a record
    and is yielded.
    """
    first = fh.readline()
    while first and first.isspace():
        first = fh.readline()
    if first and not _first_line_is_header(path, first):
        yield first  # v1 file: the first line is a record
    yield from fh


def iter_stream_records(path: str | Path, record_cls) -> Iterator:
    """Yield records from one stream file, v1 (headerless) or v2.

    A header newer than :data:`TRACES_VERSION` is rejected rather than
    misread; anything else on the first line must be a record.  Thin
    wrapper over the batched fast path (:func:`iter_record_batches`).
    """
    return chain.from_iterable(iter_record_batches(path, record_cls))


def iter_directory_records(directory: str | Path, stream: str) -> Iterator:
    """Yield one stream's records from a directory, under either codec.

    The one reader of stream files: ``<stream>.jsonl[.gz]`` when
    present, else the columnar layout; a stream with neither yields
    nothing (a missing file is an empty stream).
    """
    record_cls = STREAM_TYPES.get(stream)
    if record_cls is None:
        raise ValueError(f"unknown stream {stream!r}")
    path = find_stream_file(directory, stream)
    if path is not None:
        return iter_stream_records(path, record_cls)
    from .columnar import iter_columnar_records

    return iter_columnar_records(directory, stream)


#: Lines buffered per jsonl stream before hitting the file object.  The
#: buffered bytes are identical to per-record writes (flushes are pure
#: concatenation), but gzip streams see ~2 orders of magnitude fewer
#: write calls.
_BUFFER_LINES = 256


class _JsonlStreamWriter:
    """One jsonl stream file: the v2 header, then one record per line."""

    def __init__(self, path: Path, stream: str):
        self._fh = open_trace_write(path)
        self._fh.write(dumps(stream_header(stream)) + "\n")
        self._lines: list[str] = []

    def write(self, record) -> None:
        lines = self._lines
        lines.append(dumps(record.to_dict()))
        if len(lines) >= _BUFFER_LINES:
            self._fh.write("\n".join(lines) + "\n")
            lines.clear()

    def close(self) -> None:
        if self._lines:
            self._fh.write("\n".join(self._lines) + "\n")
            self._lines.clear()
        self._fh.close()

    def abort(self) -> None:
        """Close the file, dropping the lines not yet written."""
        self._lines.clear()
        self._fh.close()


def check_codec(codec: str, compress: bool = False) -> None:
    """Reject an unknown codec, and ``compress`` with ``"columnar"``."""
    if codec not in ("jsonl", "columnar"):
        raise ValueError(f"unknown trace codec {codec!r}")
    if codec == "columnar" and compress:
        raise ValueError("columnar traces do not support compress")


def open_stream_writer(
    directory: str | Path,
    stream: str,
    codec: str = "jsonl",
    compress: bool = False,
):
    """The one writer of stream files: ``<stream>.jsonl[.gz]`` or columnar.

    Returns an object with ``write(record)``, ``close()`` and
    ``abort()`` (close without finishing the stream).
    """
    check_codec(codec, compress)
    if codec == "columnar":
        from .columnar import ColumnarStreamWriter

        return ColumnarStreamWriter(directory, stream)
    if stream not in STREAM_TYPES:
        raise ValueError(f"unknown stream {stream!r}")
    suffix = ".jsonl.gz" if compress else ".jsonl"
    return _JsonlStreamWriter(Path(directory) / f"{stream}{suffix}", stream)


def save_traces(
    source,
    directory: str | Path,
    compress: bool = False,
    codec: str = "jsonl",
) -> Path:
    """Stream every stream of a ``TraceSource`` into ``directory``.

    A :class:`repro.store.ShardStore` source writes its stitched merge.
    Every stream gets a file, empty ones included.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for stream in STREAM_TYPES:
        writer = open_stream_writer(directory, stream, codec, compress)
        try:
            for record in source.iter_records(stream):
                writer.write(record)
        except BaseException:
            writer.abort()
            raise
        writer.close()
    return directory


def load_traces(directory: str | Path):
    """Open any on-disk trace layout as a ``TraceSource``.

    Auto-detects the layout:

    * a sharded store (``shard-*/manifest.json`` present) opens as a
      lazy :class:`repro.store.ShardStore` — records stay on disk and
      are stitched on iteration;
    * a flat v1/v2 dump (plain or gzipped, header optional) loads as an
      in-memory :class:`TraceSet`; missing stream files load as empty
      streams, so partial dumps (e.g. storage-only characterization
      runs) are usable.

    Both returns satisfy the :class:`repro.tracing.TraceSource`
    protocol.  Callers that need the materialized merge of a shard
    store should pass the result through
    :func:`repro.tracing.as_trace_set` (the pre-0.3 behavior, which
    stitched stores eagerly).
    """
    directory = Path(directory)
    if any(directory.glob("shard-*/manifest.json")):
        from ..store.shards import ShardStore

        return ShardStore(directory)
    traces = TraceSet()
    for stream in STREAM_TYPES:
        getattr(traces, stream).extend(iter_directory_records(directory, stream))
    return traces
