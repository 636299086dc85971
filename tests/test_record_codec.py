"""Property tests of the shared JSON record codec (``repro.tracing.codec``).

Encoding: the built-once encoder must be ``json.dumps`` byte for byte,
raise what ``json.dumps`` raises, and stay usable after it raises.

Decoding: ``columns_from_jsonl`` must equal the record path
(``columns_from_records`` over ``iter_stream_records``) on every input
the record path accepts, raise the record path's error on every input
it refuses, and take the direct path on files as the writers emit them.
"""

import gzip
import importlib.util
import json
import math
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.tracing.codec as codec
import repro.tracing.columnar as columnar
from repro.tracing import FlatTraceDump, load_traces, save_traces, source_columns
from repro.tracing.codec import dumps, dumps_sorted, parse_record_lines
from repro.tracing.columnar import (
    STREAM_COLUMNS,
    ColumnarStreamWriter,
    StringColumn,
    columns_from_jsonl,
    columns_from_records,
    read_columnar_header,
)
from repro.tracing.records import (
    CpuRecord,
    MemoryRecord,
    NetworkRecord,
    RequestRecord,
    StorageRecord,
)
from repro.tracing.span import Annotation, Span
from repro.tracing.store import STREAM_TYPES, iter_stream_records, stream_header

# -- strategies ----------------------------------------------------------------

#: Any JSON-encodable scalar the writers can meet: ints past 2**63,
#: NaN and infinities, non-ASCII and control characters.
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(),
)
json_values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=8), inner, max_size=4),
    ),
    max_leaves=12,
)
annotations = st.lists(
    st.builds(Annotation, st.floats(allow_nan=True), st.text()), max_size=3
)


any_records = {
    "network": st.builds(
        NetworkRecord, request_id=scalars, server=scalars, timestamp=scalars,
        size_bytes=scalars, direction=scalars,
    ),
    "cpu": st.builds(
        CpuRecord, request_id=scalars, server=scalars, timestamp=scalars,
        busy_seconds=scalars, phase=scalars,
    ),
    "memory": st.builds(
        MemoryRecord, request_id=scalars, server=scalars, timestamp=scalars,
        bank=scalars, size_bytes=scalars, op=scalars, duration=scalars,
    ),
    "storage": st.builds(
        StorageRecord, request_id=scalars, server=scalars, timestamp=scalars,
        lbn=scalars, size_bytes=scalars, op=scalars, duration=scalars,
        queue_depth=scalars,
    ),
    "requests": st.builds(
        RequestRecord, request_id=scalars, request_class=scalars,
        server=scalars, arrival_time=scalars, completion_time=scalars,
        network_bytes=scalars, cpu_busy_seconds=scalars, memory_bytes=scalars,
        memory_op=scalars, storage_bytes=scalars, storage_op=scalars,
        extra=st.dictionaries(st.text(max_size=8), json_values, max_size=4),
    ),
    "spans": st.builds(
        Span, trace_id=scalars, span_id=scalars, parent_id=scalars,
        name=scalars, server=scalars, start=scalars, end=scalars,
        annotations=annotations,
    ),
}

#: Text without ``}``: a ``},`` inside a line sends a chunk to the
#: record path (see ``parse_record_lines``), which the direct-path
#: assertions below must not meet by accident.
_texts = st.text(alphabet=st.characters(blacklist_characters="}"), max_size=6)

#: Values each column kind holds in a well-formed trace.
_KIND_VALUES = {
    "i8": st.integers(min_value=-(2**63), max_value=2**63 - 1),
    "f8": st.floats(allow_nan=True, allow_infinity=True),
    "dict": _texts,
}


def _well_formed_rows(stream):
    """Row dicts (record-field order) a collector could have written."""
    fields = {}
    for name, kind in STREAM_COLUMNS[stream]:
        if stream == "spans" and name == "parent_id":
            fields[name] = st.none() | _KIND_VALUES["i8"]
        elif name == "extra":
            fields[name] = st.dictionaries(
                _texts, st.none() | st.booleans() | _KIND_VALUES["f8"] | _texts,
                max_size=3,
            )
        elif name == "annotations":
            fields[name] = st.lists(
                st.fixed_dictionaries(
                    {"timestamp": _KIND_VALUES["f8"], "message": _texts}
                ),
                max_size=1,
            )
        else:
            fields[name] = _KIND_VALUES[kind]
    in_order = st.fixed_dictionaries(fields).map(
        lambda row: {name: row[name] for name in fields}
    )
    return st.lists(in_order, max_size=25)


# -- helpers -------------------------------------------------------------------


def _outcome(fn):
    """``("ok", value)`` or ``("error", type, message)``."""
    try:
        return ("ok", fn())
    except Exception as error:  # noqa: BLE001 - the error is the outcome
        return ("error", type(error), str(error))


def _comparable(cols):
    """Column dict -> plain data, NaN-safe, key order kept."""
    out = {}
    for name, col in cols.items():
        if isinstance(col, StringColumn):
            out[name] = ("dict", col.codes.dtype.str, col.codes.tolist(), json.dumps(col.values))
        elif isinstance(col, np.ndarray):
            out[name] = ("array", col.dtype.str, col.tobytes())
        else:
            out[name] = json.dumps(col)
    return out


def _record_path(path, stream, names):
    records = list(iter_stream_records(path, STREAM_TYPES[stream]))
    return columns_from_records(stream, records, names)


def _assert_decoders_agree(path, stream, names=None):
    expected = _outcome(lambda: _comparable(_record_path(path, stream, names)))
    actual = _outcome(lambda: _comparable(columns_from_jsonl(path, stream, names)))
    assert actual == expected
    return expected


def _write_lines(directory, stream, lines, *, header=True, compress=False,
                 final_newline=True):
    suffix = ".jsonl.gz" if compress else ".jsonl"
    path = Path(directory) / f"{stream}{suffix}"
    text = "".join(
        line + "\n" for line in ([json.dumps(stream_header(stream))] if header else []) + lines
    )
    if not final_newline:
        text = text[:-1]
    if compress:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(text)
    else:
        path.write_text(text, encoding="utf-8")
    return path


class _RecordPathCalls:
    """Counts fallbacks from ``columns_from_jsonl`` to the record path."""

    def __init__(self, monkeypatch):
        self.calls = 0
        original = columnar.iter_stream_records

        def counted(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(columnar, "iter_stream_records", counted)


# -- encoder -------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(any_records)).flatmap(
    lambda stream: st.tuples(st.just(stream), any_records[stream])))
def test_encoder_is_json_dumps(stream_record):
    _, record = stream_record
    payload = record.to_dict()
    assert dumps(payload) == json.dumps(payload)


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    st.dictionaries(st.text(max_size=8), json_values, max_size=5),
    annotations.map(lambda notes: [
        {"timestamp": a.timestamp, "message": a.message} for a in notes
    ]),
    json_values,
))
def test_sorted_encoder_is_json_dumps_sort_keys(payload):
    assert dumps_sorted(payload) == json.dumps(payload, sort_keys=True)


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.text(max_size=8), json_values, max_size=4), annotations)
def test_columnar_json_columns_hold_json_dumps_sort_keys(extra, notes):
    request = RequestRecord(1, "read", "gfs-0", 0.5, extra=extra)
    span = Span(1, 2, None, "request", "gfs-0", 0.0, 1.0, annotations=notes)
    with tempfile.TemporaryDirectory() as tmp:
        for stream, record, payload in (
            ("requests", request, request.extra),
            ("spans", span, span.to_dict()["annotations"]),
        ):
            writer = ColumnarStreamWriter(tmp, stream)
            writer.write(record)
            writer.close()
            header = read_columnar_header(tmp, stream)
            (column,) = [c for c in header["columns"] if c["kind"] == "json"]
            assert column["values"] == [json.dumps(payload, sort_keys=True)]


class _Opaque:
    pass


@pytest.mark.parametrize("encode, reference", [
    (dumps, json.dumps),
    (dumps_sorted, lambda obj: json.dumps(obj, sort_keys=True)),
])
def test_encoder_errors_match_and_markers_do_not_leak(encode, reference):
    record = RequestRecord(1, "read", "gfs-0", 0.5, extra={"x": _Opaque()})
    payload = record.to_dict()
    expected = _outcome(lambda: reference(payload))
    assert expected[0] == "error" and expected[1] is TypeError
    assert _outcome(lambda: encode(payload)) == expected
    # The very containers that were mid-encode when it raised encode
    # again: a leaked cycle marker would call them circular.
    payload["extra"]["x"] = [1, {"y": 2}]
    assert encode(payload) == reference(payload)
    assert encode(RequestRecord(2, "write", "gfs-1", 1.5).to_dict()) == reference(
        RequestRecord(2, "write", "gfs-1", 1.5).to_dict()
    )

    circular = {"a": []}
    circular["a"].append(circular)
    assert _outcome(lambda: encode(circular)) == _outcome(lambda: reference(circular))
    circular["a"].clear()
    assert encode(circular) == reference(circular)


def test_encoder_under_thread_contention():
    """Threads encoding at once, some raising, never disturb each other."""
    good = RequestRecord(1, "read", "gfs-0", 0.5, extra={"k": [1, {"n": 2.5}]}).to_dict()
    bad = RequestRecord(2, "read", "gfs-0", 0.5, extra={"x": _Opaque()}).to_dict()
    outcomes = []

    def work():
        for i in range(900):
            payload = bad if i % 3 == 0 else good
            outcomes.append(_outcome(lambda: (dumps(payload), dumps_sorted(payload))))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    expected_good = ("ok", (json.dumps(good), json.dumps(good, sort_keys=True)))
    expected_bad = _outcome(lambda: json.dumps(bad))
    assert len(outcomes) == 8 * 900
    assert outcomes.count(expected_good) == 8 * 600
    assert outcomes.count(expected_bad) == 8 * 300


def test_encoder_falls_back_to_json_dumps_without_the_c_accelerator(monkeypatch):
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    spec = importlib.util.spec_from_file_location("_codec_pure", codec.__file__)
    pure = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pure)
    payload = {"b": 1, "a": [math.inf, "é"]}
    assert pure.dumps is json.dumps
    assert pure.dumps_sorted(payload) == json.dumps(payload, sort_keys=True)


# -- decoder -------------------------------------------------------------------

blank_lines = st.sampled_from(["", " ", "\t", "   \t "])


@settings(max_examples=120, deadline=None)
@given(
    stream=st.sampled_from(sorted(STREAM_COLUMNS)),
    data=st.data(),
    chunk_lines=st.integers(min_value=1, max_value=7),
    header=st.booleans(),
    compress=st.booleans(),
    final_newline=st.booleans(),
)
def test_jsonl_decoder_equals_record_path(
    stream, data, chunk_lines, header, compress, final_newline
):
    rows = data.draw(_well_formed_rows(stream), label="rows")
    reordered = False
    lines = []
    for row in rows:
        if data.draw(st.booleans(), label="reorder keys"):
            keys = data.draw(st.permutations(list(row)), label="key order")
            reordered |= keys != list(row)
            row = {key: row[key] for key in keys}
        lines.append(json.dumps(row))
        lines.extend(data.draw(st.lists(blank_lines, max_size=2), label="blanks"))
    names = data.draw(
        st.none() | st.lists(st.sampled_from([n for n, _ in STREAM_COLUMNS[stream]]),
                             unique=True),
        label="names",
    )
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(columnar, "CHUNK_LINES", chunk_lines)
        fallbacks = _RecordPathCalls(mp)
        path = _write_lines(tmp, stream, lines, header=header, compress=compress,
                            final_newline=final_newline)
        expected = _assert_decoders_agree(path, stream, names)
    assert expected[0] == "ok"
    # Writers emit fields in record order; reordered rows may put a
    # nested value before a comma and take the record path instead.
    assert fallbacks.calls == 0 or reordered, "a well-formed file fell back"


@pytest.mark.parametrize("stream, omitted", [
    ("memory", "duration"),
    ("storage", "queue_depth"),
    ("storage", "duration"),
    ("spans", "end"),
    ("spans", "annotations"),
    ("requests", "extra"),
])
def test_rows_omitting_defaulted_fields_decode_like_records(tmp_path, stream, omitted):
    full = {
        "memory": MemoryRecord(1, "m-0", 0.1, 3, 4096, "read", 0.002),
        "storage": StorageRecord(1, "d-0", 0.1, 77, 65536, "write", 0.004, 2),
        "spans": Span(1, 2, 1, "storage", "gfs-0", 0.1, 0.3),
        "requests": RequestRecord(1, "read", "gfs-0", 0.1, 0.4, extra={"k": 1.5}),
    }[stream]
    rows = [full.to_dict() for _ in range(3)]
    del rows[1][omitted]
    path = _write_lines(tmp_path, stream, [json.dumps(row) for row in rows])
    expected = _assert_decoders_agree(path, stream)
    assert expected[0] == "ok"
    assert expected[1]["n"] == "3"


def _requests_lines():
    return [
        json.dumps(RequestRecord(i, "read", "gfs-0", 0.1 * i, 0.2 * i).to_dict())
        for i in range(1, 5)
    ]


_REQUEST_PREFIX = json.dumps(RequestRecord(9, "read", "gfs-0", 1.0).to_dict())[:-len('{}}')]

MALFORMED = {
    "bad json": lambda lines: lines[:2] + ['{"request_id": 3,'] + lines[2:],
    "two objects on one line": lambda lines: lines[:1] + [lines[1] + ", " + lines[2]] + lines[3:],
    "two objects, no space": lambda lines: lines[:1] + [lines[1] + "," + lines[2]] + lines[3:],
    "unknown key": lambda lines: lines[:1] + ['{"zz": 1, ' + lines[1][1:]] + lines[2:],
    "unknown key after extra": lambda lines: lines[:1] + [lines[1][:-1] + ', "zz": 1}'] + lines[2:],
    "row is not an object": lambda lines: lines[:2] + ["[1, 2]"] + lines[2:],
    # Each line alone is invalid, yet the joined chunk parses to one
    # object per line: a nested value opened on one line and closed on
    # the next, with a second row on that next line.
    "value split across lines": lambda lines: lines[:1] + [
        _REQUEST_PREFIX + '{"k": [1',
        '2]}}, ' + lines[1],
    ] + lines[3:],
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
@pytest.mark.parametrize("chunk_lines", [1, 2, 4096])
def test_malformed_lines_raise_the_record_paths_error(tmp_path, monkeypatch, case, chunk_lines):
    monkeypatch.setattr(columnar, "CHUNK_LINES", chunk_lines)
    path = _write_lines(tmp_path, "requests", MALFORMED[case](_requests_lines()))
    expected = _assert_decoders_agree(path, "requests")
    assert expected[0] == "error", expected


@pytest.mark.parametrize("annotation", [
    {"timestamp": 1.0},
    {"timestamp": 1.0, "message": "x", "level": 2},
    "not an object",
])
def test_malformed_annotations_raise_the_record_paths_error(tmp_path, annotation):
    row = Span(1, 1, None, "request", "gfs-0", 0.0, 1.0).to_dict()
    row["annotations"] = [annotation]
    path = _write_lines(tmp_path, "spans", [json.dumps(row)])
    for names in (None, ["trace_id"]):
        expected = _assert_decoders_agree(path, "spans", names)
        assert expected[0] == "error", expected


def test_annotations_decode_in_record_key_order(tmp_path):
    row = Span(1, 1, None, "request", "gfs-0", 0.0, 1.0).to_dict()
    row["annotations"] = [{"message": "b", "timestamp": 0.5}, {"timestamp": 0.75, "message": "a"}]
    path = _write_lines(tmp_path, "spans", [json.dumps(row)])
    _assert_decoders_agree(path, "spans")
    cols = columns_from_jsonl(path, "spans")
    assert [list(a) for a in cols["annotations"][0]] == [["timestamp", "message"]] * 2


def test_future_header_version_raises_the_record_paths_error(tmp_path):
    path = tmp_path / "cpu.jsonl"
    header = dict(stream_header("cpu"), version=99)
    path.write_text(
        json.dumps(header) + "\n"
        + json.dumps(CpuRecord(1, "c-0", 0.1, 0.01, "lookup").to_dict()) + "\n"
    )
    expected = _assert_decoders_agree(path, "cpu")
    assert expected[0] == "error" and expected[1] is ValueError


def test_parse_record_lines_rejects_row_boundaries_inside_a_line():
    one = json.dumps({"a": 1})
    assert parse_record_lines([one + "\n", one + "\n"]) == [{"a": 1}, {"a": 1}]
    assert parse_record_lines([one + ", " + one + "\n", one]) is None
    assert parse_record_lines(['{"a": [1\n', '2]}, ' + one]) is None
    assert parse_record_lines(["{]\n"]) is None


def test_strings_with_braces_decode_like_records(tmp_path):
    rows = [CpuRecord(i, "c}, {", 0.1 * i, 0.01, "}").to_dict() for i in range(3)]
    path = _write_lines(tmp_path, "cpu", [json.dumps(row) for row in rows])
    assert _assert_decoders_agree(path, "cpu")[0] == "ok"


def test_written_traces_decode_directly(tmp_path, monkeypatch):
    """Dumps and shard stores as written take the direct path, equal."""
    from repro.datacenter import FleetSpec, collect_fleet_to_store, run_gfs_workload

    fallbacks = _RecordPathCalls(monkeypatch)
    traces = run_gfs_workload(n_requests=60, seed=4).traces
    for compress in (False, True):
        directory = save_traces(traces, tmp_path / f"dump-{compress}", compress=compress)
        dump = FlatTraceDump(directory)
        for stream in STREAM_TYPES:
            assert _comparable(source_columns(dump, stream)) == _comparable(
                columns_from_records(stream, getattr(traces, stream))
            )
    store = tmp_path / "store"
    collect_fleet_to_store(FleetSpec(app="webapp", n_requests=40, replicas=2, seed=5), store)
    store_traces = load_traces(store)
    for stream in STREAM_TYPES:
        assert _comparable(source_columns(store_traces, stream)) == _comparable(
            columns_from_records(stream, list(store_traces.iter_stream(stream)))
        )
    assert fallbacks.calls == 0
