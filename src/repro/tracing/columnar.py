"""Binary columnar trace codec: struct-of-arrays stream storage.

The vectorizable counterpart of the ``.jsonl[.gz]`` stream files: each
stream is stored as one small JSON column header
(``<stream>.columns.json``) plus one raw little-endian binary buffer
per column (``<stream>.<column>.bin``), so a reader can hand whole
numpy arrays to the streaming accumulators without ever JSON-decoding
a record.  Cold characterization over a shard store is dominated by
JSONL decode (see ``BENCH_incremental_analyze.json``); this layout
removes that cost.

Column kinds:

* ``i8`` / ``f8`` — ``<i8`` / ``<f8`` numpy buffers, one value per
  record.  ``Span.parent_id`` is stored as ``f8`` with ``NaN`` for
  ``None`` (ids are small integers, exactly representable).
* ``dict`` — dictionary-encoded strings: ``<i4`` codes into a value
  table kept in the header (server names, operation types, ...).
* ``json`` — dictionary-encoded ``json.dumps`` strings for the two
  nested fields (``RequestRecord.extra``, ``Span.annotations``); rows
  decode to fresh Python objects, exactly like the JSONL reader.

Codecs are interchangeable: ``records_from_columns`` round-trips to
the same record objects the JSONL path produces, so analyses over the
two layouts are byte-identical, and converting a shard between codecs
reproduces the other layout's files exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter
from pathlib import Path
from typing import Any, Iterator, Mapping, Optional, Sequence

import numpy as np

from .codec import CHUNK_LINES, dumps_sorted, parse_record_lines
from .records import (
    CpuRecord,
    MemoryRecord,
    NetworkRecord,
    RequestRecord,
    StorageRecord,
)
from .span import Annotation, Span
from .store import (
    STREAM_TYPES,
    find_stream_file,
    iter_stream_records,
    open_trace_read,
    record_lines,
)

__all__ = [
    "COLUMNAR_FORMAT",
    "COLUMNAR_VERSION",
    "STREAM_COLUMNS",
    "ColumnarStreamWriter",
    "StringColumn",
    "class_columns",
    "columnar_stream_files",
    "columnar_header_path",
    "columns_from_jsonl",
    "columns_from_records",
    "concat_columns",
    "find_columnar_stream",
    "iter_columnar_records",
    "read_columnar_columns",
    "read_columnar_header",
    "read_stream_columns",
    "records_from_columns",
    "shift_columns",
    "take_columns",
]

COLUMNAR_FORMAT = "repro-traces-columnar"
COLUMNAR_VERSION = 1

#: numpy dtype per numeric column kind; ``dict``/``json`` codes are i4.
_KIND_DTYPES = {"i8": np.dtype("<i8"), "f8": np.dtype("<f8")}
_CODE_DTYPE = np.dtype("<i4")

#: (column name, kind) per stream, in record-dataclass field order —
#: ``records_from_columns`` relies on positional construction.
STREAM_COLUMNS: dict[str, tuple[tuple[str, str], ...]] = {
    "network": (
        ("request_id", "i8"),
        ("server", "dict"),
        ("timestamp", "f8"),
        ("size_bytes", "i8"),
        ("direction", "dict"),
    ),
    "cpu": (
        ("request_id", "i8"),
        ("server", "dict"),
        ("timestamp", "f8"),
        ("busy_seconds", "f8"),
        ("phase", "dict"),
    ),
    "memory": (
        ("request_id", "i8"),
        ("server", "dict"),
        ("timestamp", "f8"),
        ("bank", "i8"),
        ("size_bytes", "i8"),
        ("op", "dict"),
        ("duration", "f8"),
    ),
    "storage": (
        ("request_id", "i8"),
        ("server", "dict"),
        ("timestamp", "f8"),
        ("lbn", "i8"),
        ("size_bytes", "i8"),
        ("op", "dict"),
        ("duration", "f8"),
        ("queue_depth", "i8"),
    ),
    "requests": (
        ("request_id", "i8"),
        ("request_class", "dict"),
        ("server", "dict"),
        ("arrival_time", "f8"),
        ("completion_time", "f8"),
        ("network_bytes", "i8"),
        ("cpu_busy_seconds", "f8"),
        ("memory_bytes", "i8"),
        ("memory_op", "dict"),
        ("storage_bytes", "i8"),
        ("storage_op", "dict"),
        ("extra", "json"),
    ),
    "spans": (
        ("trace_id", "i8"),
        ("span_id", "i8"),
        ("parent_id", "f8"),  # NaN encodes None
        ("name", "dict"),
        ("server", "dict"),
        ("start", "f8"),
        ("end", "f8"),
        ("annotations", "json"),
    ),
}


@dataclass
class StringColumn:
    """A dictionary-encoded string column: integer codes + value table."""

    codes: np.ndarray
    values: list[str]

    def __len__(self) -> int:
        return int(self.codes.size)

    def mask(self, value: str) -> np.ndarray:
        """Boolean mask of rows equal to ``value``."""
        try:
            code = self.values.index(value)
        except ValueError:
            return np.zeros(self.codes.size, dtype=bool)
        return self.codes == code

    def mask_in(self, values: Sequence[str]) -> np.ndarray:
        """Boolean mask of rows whose value is in ``values``."""
        mask = np.zeros(self.codes.size, dtype=bool)
        for value in values:
            mask |= self.mask(value)
        return mask

    def take(self, indices) -> "StringColumn":
        """Row subset (fancy index or boolean mask); shares the table."""
        return StringColumn(self.codes[indices], self.values)

    def bincount(self) -> np.ndarray:
        """Occurrences of each table entry, aligned with ``values``."""
        return np.bincount(self.codes, minlength=len(self.values))

    def tolist(self) -> list[str]:
        values = self.values
        return [values[c] for c in self.codes.tolist()]


def columnar_header_path(directory: str | Path, stream: str) -> Path:
    return Path(directory) / f"{stream}.columns.json"


def find_columnar_stream(directory: str | Path, stream: str) -> Optional[Path]:
    """The stream's column header path, if the columnar layout is present."""
    path = columnar_header_path(directory, stream)
    return path if path.exists() else None


def read_columnar_header(directory: str | Path, stream: str) -> Optional[dict]:
    """Load and validate one stream's column header (None when absent)."""
    path = find_columnar_stream(directory, stream)
    if path is None:
        return None
    header = json.loads(path.read_text())
    if header.get("format") != COLUMNAR_FORMAT:
        raise ValueError(f"{path}: not a columnar stream header")
    version = header.get("version")
    if not isinstance(version, int) or version > COLUMNAR_VERSION:
        raise ValueError(f"{path}: unsupported columnar version {version!r}")
    if header.get("stream") != stream:
        raise ValueError(
            f"{path}: header names stream {header.get('stream')!r}"
        )
    return header


def columnar_stream_files(directory: str | Path, stream: str) -> list[Path]:
    """Every file belonging to one columnar stream (header first)."""
    header = read_columnar_header(directory, stream)
    if header is None:
        return []
    directory = Path(directory)
    files = [columnar_header_path(directory, stream)]
    files.extend(directory / c["file"] for c in header["columns"])
    return files


def _decode_column(directory: Path, spec: Mapping[str, Any], n: int):
    kind = spec["kind"]
    path = directory / spec["file"]
    if kind in _KIND_DTYPES:
        dtype = _KIND_DTYPES[kind]
    elif kind in ("dict", "json"):
        dtype = _CODE_DTYPE
    else:
        raise ValueError(f"unknown column kind {kind!r} in {path}")
    if n == 0:
        array = np.zeros(0, dtype=dtype)
    else:
        array = np.fromfile(path, dtype=dtype)
        if array.size != n:
            raise ValueError(
                f"{path}: expected {n} values, found {array.size}"
            )
    if kind in _KIND_DTYPES:
        return array
    if kind == "dict":
        return StringColumn(array, [str(v) for v in spec["values"]])
    # json: decode each row to a fresh Python object, like json.loads
    # on a record line does — rows must never alias a shared object.
    table = [str(v) for v in spec["values"]]
    return [json.loads(table[c]) for c in array.tolist()]


def read_columnar_columns(
    directory: str | Path,
    stream: str,
    names: Optional[Sequence[str]] = None,
) -> Optional[dict[str, Any]]:
    """Load one columnar stream as full column arrays.

    ``names`` restricts which columns are read (and which ``.bin``
    files are opened at all) — the analysis fold needs only a subset.
    Returns ``None`` when the stream has no columnar file; the ``"n"``
    key carries the row count.
    """
    directory = Path(directory)
    header = read_columnar_header(directory, stream)
    if header is None:
        return None
    n = int(header["n"])
    wanted = None if names is None else set(names)
    cols: dict[str, Any] = {"n": n}
    for spec in header["columns"]:
        if wanted is not None and spec["name"] not in wanted:
            continue
        cols[spec["name"]] = _decode_column(directory, spec, n)
    if wanted is not None:
        missing = wanted - set(cols)
        if missing:
            raise ValueError(
                f"{stream} columnar stream lacks columns {sorted(missing)}"
            )
    return cols


def read_stream_columns(
    directory: str | Path,
    stream: str,
    names: Optional[Sequence[str]] = None,
) -> dict[str, Any]:
    """One stream of a trace directory as column arrays, either codec.

    A ``<stream>.jsonl[.gz]`` file decodes through
    :func:`columns_from_jsonl`, a columnar stream serves its buffers,
    and a stream with neither loads as zero-length columns.  Shard
    stores and flat dumps read their streams through this one function.
    """
    path = find_stream_file(directory, stream)
    if path is not None:
        return columns_from_jsonl(path, stream, names)
    cols = read_columnar_columns(directory, stream, names)
    return cols if cols is not None else columns_from_records(stream, [], names)


def take_columns(cols: Mapping[str, Any], indices) -> dict[str, Any]:
    """Row subset of a column dict (fancy index or boolean mask)."""
    out: dict[str, Any] = {}
    for name, col in cols.items():
        if name == "n":
            continue
        if isinstance(col, StringColumn):
            out[name] = col.take(indices)
        elif isinstance(col, np.ndarray):
            out[name] = col[indices]
        else:  # json column: plain list
            if isinstance(indices, np.ndarray) and indices.dtype == bool:
                indices = np.flatnonzero(indices)
            out[name] = [col[i] for i in np.asarray(indices).tolist()]
    first = next(iter(out.values()), None)
    out["n"] = 0 if first is None else len(first)
    return out


def class_columns(
    streams: Mapping[str, Mapping[str, Any]],
    request_class: str,
    sequences: Sequence[tuple[int, Any]] = (),
) -> tuple[dict[str, dict[str, Any]], list[tuple[int, Any]]]:
    """One request class's rows of every stream, and its stage sequences.

    ``streams`` maps stream name to a column dict; ``requests`` must
    carry ``request_id`` and ``request_class``.  Every other stream
    keeps, in stream order, the rows whose ``request_id`` (``trace_id``
    for spans) belongs to one of the class's requests, and
    ``sequences`` — ``(trace_id, stage names)`` pairs
    (:func:`repro.core.dependency.stage_sequences`) — keeps those
    requests' pairs, in order.  Request ids are unique on a stitched
    timeline, so this is the same partition
    :func:`repro.core.split_traces_by_class` makes of records.
    """
    requests = streams["requests"]
    keep = requests["request_class"].mask(request_class)
    ids = np.asarray(requests["request_id"])[keep]
    part = {}
    for stream, cols in streams.items():
        if stream == "requests":
            rows = keep
        else:
            key = "trace_id" if stream == "spans" else "request_id"
            rows = np.isin(cols[key], ids)
        part[stream] = take_columns(cols, rows)
    wanted = set(ids.tolist())
    return part, [pair for pair in sequences if pair[0] in wanted]


def concat_columns(parts: Sequence[Mapping[str, Any]]) -> dict[str, Any]:
    """Concatenate column dicts row-wise (re-encoding string tables).

    Empty parts are skipped; when every part is empty the result keeps
    the first part's (zero-length) columns, so it still carries the
    stream's schema.
    """
    if not parts:
        return {"n": 0}
    parts = [p for p in parts if p["n"]] or list(parts[:1])
    names = [k for k in parts[0] if k != "n"]
    out: dict[str, Any] = {"n": sum(p["n"] for p in parts)}
    for name in names:
        first = parts[0][name]
        if isinstance(first, StringColumn):
            table: list[str] = []
            mapping: dict[str, int] = {}
            chunks = []
            for part in parts:
                col = part[name]
                remap = np.empty(len(col.values), dtype=_CODE_DTYPE)
                for i, value in enumerate(col.values):
                    code = mapping.get(value)
                    if code is None:
                        code = mapping[value] = len(table)
                        table.append(value)
                    remap[i] = code
                chunks.append(remap[col.codes])
            out[name] = StringColumn(np.concatenate(chunks), table)
        elif isinstance(first, np.ndarray):
            out[name] = np.concatenate([p[name] for p in parts])
        else:
            merged: list[Any] = []
            for part in parts:
                merged.extend(part[name])
            out[name] = merged
    return out


def columns_from_records(
    stream: str,
    records: Sequence,
    names: Optional[Sequence[str]] = None,
) -> dict[str, Any]:
    """Build column arrays from decoded records (the record bridge).

    Produces exactly the representation ``read_columnar_columns``
    returns, so analyses accept either codec through one code path.
    ``names`` restricts which columns are materialized.
    """
    values: dict[str, list] = {}
    for name in _wanted_columns(stream, names):
        if stream == "spans" and name == "annotations":
            values[name] = [
                [{"timestamp": a.timestamp, "message": a.message} for a in r.annotations]
                for r in records
            ]
        else:
            values[name] = [getattr(r, name) for r in records]
    return _columns_from_values(stream, values, len(records))


def columns_from_jsonl(
    path: str | Path,
    stream: str,
    names: Optional[Sequence[str]] = None,
) -> dict[str, Any]:
    """One jsonl stream file as column arrays, without record objects.

    Equal to ``columns_from_records(stream, records, names)`` over the
    file's records.  Lines are parsed :data:`~repro.tracing.codec.CHUNK_LINES`
    at a time (:func:`~repro.tracing.codec.parse_record_lines`) and each
    row's values go straight into per-column lists.  A stream with any
    chunk that is not regular is decoded by the record path instead,
    which yields the same columns or raises its own typed error.  A
    chunk is regular when it parses to one object per line, every
    object has exactly the record's fields (an omitted defaulted field
    is not regular), and every span annotation is exactly
    ``{timestamp, message}``.
    """
    try:
        decoded = _jsonl_column_values(
            Path(path), stream, _wanted_columns(stream, names)
        )
    except Exception:
        # Unreadable or malformed (a non-object row fails ``dict.keys``):
        # the record path re-reads the file and raises its own error.
        decoded = None
    if decoded is None:
        records = list(iter_stream_records(path, STREAM_TYPES[stream]))
        return columns_from_records(stream, records, names)
    values, n = decoded
    return _columns_from_values(stream, values, n)


def _wanted_columns(stream: str, names: Optional[Sequence[str]]) -> list[str]:
    schema = STREAM_COLUMNS[stream]
    if names is None:
        return [name for name, _ in schema]
    wanted = set(names)
    return [name for name, _ in schema if name in wanted]


_ANNOTATION_KEYS = {"timestamp": None, "message": None}.keys()


def _jsonl_column_values(
    path: Path, stream: str, wanted: list[str]
) -> Optional[tuple[dict[str, list], int]]:
    """Per-column value lists and the row count, or None if irregular."""
    fields = {name: None for name, _ in STREAM_COLUMNS[stream]}.keys()
    spans = stream == "spans"
    # Annotations are checked even when not wanted: the record path
    # rejects a malformed one whatever columns are asked for.
    extract = list(wanted)
    if spans and "annotations" not in extract:
        extract.append("annotations")
    values: dict[str, list] = {name: [] for name in extract}
    n = 0
    getters = [(values[name].extend, itemgetter(name)) for name in extract]
    with open_trace_read(path) as fh:
        lines = record_lines(path, fh)
        while chunk := list(islice(lines, CHUNK_LINES)):
            chunk = [line for line in chunk if not line.isspace()]
            if not chunk:
                continue
            rows = parse_record_lines(chunk)
            if rows is None or not all(map(fields.__eq__, map(dict.keys, rows))):
                return None
            for extend, get in getters:
                extend(map(get, rows))
            n += len(rows)
    if spans:
        annotations = _canonical_annotations(values["annotations"])
        if annotations is None:
            return None
        if "annotations" in wanted:
            values["annotations"] = annotations
        else:
            del values["annotations"]
    return values, n


def _canonical_annotations(rows: list) -> Optional[list]:
    """Span annotation lists as the record path rebuilds them, or None.

    Every annotation must be an object with exactly ``timestamp`` and
    ``message``; each is rebuilt in that key order, as
    ``Span.from_dict`` followed by :func:`columns_from_records` does.
    """
    out = []
    for annotations in rows:
        if type(annotations) is not list:
            return None
        if annotations:
            rebuilt = []
            for a in annotations:
                if type(a) is not dict or a.keys() != _ANNOTATION_KEYS:
                    return None
                rebuilt.append({"timestamp": a["timestamp"], "message": a["message"]})
            annotations = rebuilt
        out.append(annotations)
    return out


def _columns_from_values(
    stream: str, values: Mapping[str, list], n: int
) -> dict[str, Any]:
    """Column arrays from per-column value lists (schema order kept)."""
    cols: dict[str, Any] = {"n": n}
    for name, kind in STREAM_COLUMNS[stream]:
        if name not in values:
            continue
        column = values[name]
        if stream == "spans" and name == "parent_id":
            cols[name] = np.array(
                [np.nan if v is None else float(v) for v in column],
                dtype=_KIND_DTYPES["f8"],
            )
        elif kind in _KIND_DTYPES:
            cols[name] = np.array(column, dtype=_KIND_DTYPES[kind])
        elif kind == "dict":
            mapping: dict[str, int] = {}
            codes = [mapping.setdefault(v, len(mapping)) for v in column]
            cols[name] = StringColumn(
                np.array(codes, dtype=_CODE_DTYPE), list(mapping)
            )
        else:  # json
            cols[name] = column
    return cols


def records_from_columns(stream: str, cols: Mapping[str, Any]) -> list:
    """Materialize record objects from full column arrays.

    The inverse of :func:`columns_from_records`: produces the same
    record objects the JSONL reader yields for the same shard.
    """
    schema = STREAM_COLUMNS[stream]
    n = cols["n"]
    rows: list[list[Any]] = [[] for _ in range(n)]
    for name, kind in schema:
        col = cols[name]
        if isinstance(col, StringColumn):
            values = col.tolist()
        elif isinstance(col, np.ndarray):
            values = col.tolist()
        else:
            values = list(col)
        if stream == "spans" and name == "parent_id":
            values = [None if v != v else int(v) for v in values]
        for row, value in zip(rows, values):
            row.append(value)
    if stream == "spans":
        out = []
        for row in rows:
            annotations = [Annotation(**a) for a in row[-1]]
            out.append(Span(*row[:-1], annotations=annotations))
        return out
    record_cls = {
        "network": NetworkRecord,
        "cpu": CpuRecord,
        "memory": MemoryRecord,
        "storage": StorageRecord,
        "requests": RequestRecord,
    }[stream]
    return [record_cls(*row) for row in rows]


def iter_columnar_records(directory: str | Path, stream: str) -> Iterator:
    """Yield one columnar stream's records, built 4096 rows at a time."""
    cols = read_columnar_columns(directory, stream)
    n = 0 if cols is None else cols["n"]
    for start in range(0, n, 4096):
        rows = np.arange(start, min(start + 4096, n))
        yield from records_from_columns(stream, take_columns(cols, rows))


def shift_columns(
    stream: str,
    cols: Mapping[str, Any],
    time_offset: float = 0.0,
    request_id_offset: int = 0,
    span_id_offset: int = 0,
) -> dict[str, Any]:
    """Column-space stitch shift: the vectorized ``shifter_for``.

    Applies exactly the arithmetic of
    :func:`repro.tracing.shift_subsystem_record` /
    :func:`~repro.tracing.shift_request` /
    :func:`~repro.tracing.shift_span` to whole arrays (IEEE float adds
    are elementwise identical to the scalar path).  ``spans``
    ``parent_id`` shifts through NaN untouched — NaN encodes ``None``;
    annotation timestamps (a ``json`` column) shift row by row.
    """
    out = dict(cols)
    if stream == "requests":
        if "request_id" in out:
            out["request_id"] = out["request_id"] + request_id_offset
        for name in ("arrival_time", "completion_time"):
            if name in out:
                out[name] = out[name] + time_offset
    elif stream == "spans":
        if "trace_id" in out:
            out["trace_id"] = out["trace_id"] + request_id_offset
        if "span_id" in out:
            out["span_id"] = out["span_id"] + span_id_offset
        if "parent_id" in out:
            out["parent_id"] = out["parent_id"] + span_id_offset
        for name in ("start", "end"):
            if name in out:
                out[name] = out[name] + time_offset
        if "annotations" in out:
            out["annotations"] = [
                [
                    {"timestamp": a["timestamp"] + time_offset, "message": a["message"]}
                    for a in row
                ]
                for row in out["annotations"]
            ]
    else:
        if "request_id" in out:
            out["request_id"] = out["request_id"] + request_id_offset
        if "timestamp" in out:
            out["timestamp"] = out["timestamp"] + time_offset
    return out


class ColumnarStreamWriter:
    """Buffered struct-of-arrays writer for one stream of one shard.

    Buffers ``flush_every`` records per column, then appends each
    column's buffer to its ``.bin`` file in one ``tobytes`` write; the
    JSON header lands at :meth:`close`, so a crashed writer leaves no
    readable (header-bearing) stream behind.
    """

    def __init__(
        self, directory: str | Path, stream: str, flush_every: int = 8192
    ):
        if stream not in STREAM_COLUMNS:
            raise ValueError(f"unknown stream {stream!r}")
        self.directory = Path(directory)
        self.stream = stream
        self.flush_every = flush_every
        self.n = 0
        self._schema = STREAM_COLUMNS[stream]
        self._buffers: dict[str, list] = {name: [] for name, _ in self._schema}
        self._tables: dict[str, list[str]] = {}
        self._mappings: dict[str, dict[str, int]] = {}
        self._files = {}
        for name, kind in self._schema:
            if kind in ("dict", "json"):
                self._tables[name] = []
                self._mappings[name] = {}
            path = self.directory / f"{stream}.{name}.bin"
            self._files[name] = path.open("wb")
        self._closed = False

    def _encode(self, name: str, text: str) -> int:
        mapping = self._mappings[name]
        code = mapping.get(text)
        if code is None:
            code = mapping[text] = len(self._tables[name])
            self._tables[name].append(text)
        return code

    def write(self, record) -> None:
        """Buffer one record; flushes automatically at ``flush_every``."""
        if self._closed:
            raise RuntimeError("columnar stream already closed")
        buffers = self._buffers
        for name, kind in self._schema:
            if self.stream == "spans" and name == "parent_id":
                value = record.parent_id
                buffers[name].append(
                    float("nan") if value is None else float(value)
                )
            elif kind == "dict":
                buffers[name].append(self._encode(name, getattr(record, name)))
            elif kind == "json":
                if self.stream == "spans":
                    payload = [
                        {"timestamp": a.timestamp, "message": a.message}
                        for a in record.annotations
                    ]
                else:
                    payload = getattr(record, name)
                buffers[name].append(self._encode(name, dumps_sorted(payload)))
            else:
                buffers[name].append(getattr(record, name))
        self.n += 1
        if self.n % self.flush_every == 0:
            self.flush()

    def flush(self) -> None:
        for name, kind in self._schema:
            buf = self._buffers[name]
            if not buf:
                continue
            dtype = _KIND_DTYPES.get(kind, _CODE_DTYPE)
            self._files[name].write(np.asarray(buf, dtype=dtype).tobytes())
            buf.clear()

    def abort(self) -> None:
        """Close ``.bin`` files without writing the header.

        A headerless column directory is unreadable by design, so an
        aborted (crashed) writer leaves no half-valid stream behind.
        """
        if self._closed:
            return
        for fh in self._files.values():
            fh.close()
        self._closed = True

    def close(self) -> None:
        """Flush buffers, close ``.bin`` files, write the column header."""
        if self._closed:
            return
        self.flush()
        self.abort()  # closes the .bin files; the header follows
        columns = []
        for name, kind in self._schema:
            spec: dict[str, Any] = {
                "name": name,
                "kind": kind,
                "file": f"{self.stream}.{name}.bin",
            }
            if kind in ("dict", "json"):
                spec["values"] = list(self._tables[name])
            columns.append(spec)
        header = {
            "format": COLUMNAR_FORMAT,
            "version": COLUMNAR_VERSION,
            "stream": self.stream,
            "n": self.n,
            "columns": columns,
        }
        columnar_header_path(self.directory, self.stream).write_text(
            json.dumps(header, indent=2, sort_keys=True) + "\n"
        )
