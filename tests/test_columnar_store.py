"""Tests for the columnar shard codec and batched accumulator folds (PR 6).

Pins down the acceptance contract of the codec work: every streaming
accumulator's ``update_batch`` is equivalent to repeated ``add`` (bit
for bit where the implementation promises it, within 1e-9 relative for
the Chan-combined moment folds), including NaN/inf inputs and empty
batches; split folds, shard merges and ``state()``/``from_state()``
round-trips mid-fold equal one unbroken fold (hypothesis properties
over arbitrary split points and 1-8 shards); columnar and JSONL stores produce byte-identical
``characterize`` and ``validate --per-class`` stdout for several
worker counts; ``repro convert`` round-trips a store through the
columnar codec back to byte-identical JSONL stream files; and the
determinism bugfix sweep holds (gzip members carry no wall-clock
mtime or filename, the header-decode memo survives an in-place
``os.replace`` rewrite, and mixed 5-/8-digit shard directory names
merge in parsed index order, not lexicographic).
"""

import json
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.tracing.store as tracing_store
from repro.cli import main
from repro.datacenter import run_gfs_workload, run_webapp_workload
from repro.stats import (
    CategoricalCounter,
    CoMomentsAccumulator,
    ExactQuantiles,
    MomentsAccumulator,
    ReservoirQuantile,
    SeekStats,
    SlidingWindowCounter,
    WindowedCounter,
)
from repro.store import (
    ShardStore,
    ShardWriter,
    convert_flat_dump,
    parse_shard_index,
    shard_dirname,
)
from repro.tracing import (
    Annotation,
    MemoryRecord,
    RequestRecord,
    Span,
    TraceSet,
    save_traces,
    shift_span,
)
from repro.tracing.columnar import (
    STREAM_COLUMNS,
    StringColumn,
    columns_from_records,
    concat_columns,
    records_from_columns,
    shift_columns,
)

# -- update_batch == repeated add --------------------------------------------

# Inputs are drawn in one fixed order.  The two discarded draws keep
# every later input at the value its case has always been checked on.
_RNG = np.random.default_rng(20260807)
_NORMALS = _RNG.normal(3.0, 2.0, size=200)
_TIMES = np.sort(_RNG.uniform(0.0, 25.0, size=150))
_RNG.uniform(0.0, 10.0, size=100)
_RESERVOIR_VALUES = _RNG.normal(0.0, 1.0, size=300)
_KEYS = _RNG.choice(["read", "write", "seek", "open", "close"], size=120)
_WEIGHTS = _RNG.uniform(0.1, 3.0, size=_TIMES.size)
_ADVANCES = _RNG.uniform(0.0, 0.5, size=_TIMES.size)
_RNG.uniform(0.0, 10.0, size=150)
_LBNS = _RNG.integers(0, 10_000, size=150)
_SIZES = _RNG.integers(1, 1 << 22, size=150)
_LIVE_TIMES = _RNG.uniform(0.0, 25.0, size=150)

#: (name, constructor, add-argument tuples, batch is bit-identical?).
#: Batches mix NaN/inf, boundary values and long runs; "exact" cases
#: promise bit-identity to the sequential path, the Chan-combined
#: moment folds promise 1e-9 relative agreement instead.
BATCH_CASES = [
    (
        "moments",
        MomentsAccumulator,
        [(v,) for v in _NORMALS.tolist()
         + [float("inf"), float("-inf"), float("nan"), 0.0]],
        False,
    ),
    (
        "co-moments",
        CoMomentsAccumulator,
        [(v, 2.0 * v - 1.0) for v in _NORMALS.tolist() + [float("nan")]],
        False,
    ),
    (
        "exact-quantiles",
        ExactQuantiles,
        [(v,) for v in _NORMALS.tolist() + [float("inf"), float("nan")]],
        True,
    ),
    (
        "reservoir-quantile",
        lambda: ReservoirQuantile(capacity=16, seed=7),
        [(v,) for v in _RESERVOIR_VALUES.tolist()],
        True,
    ),
    (
        "categorical-counter",
        CategoricalCounter,
        [(k,) for k in _KEYS.tolist()],
        True,
    ),
    (
        "windowed-counter",
        lambda: WindowedCounter(0.5, origin=0.0),
        list(zip(_TIMES.tolist(), _WEIGHTS.tolist(), _ADVANCES.tolist())),
        True,
    ),
    (
        "seek-stats",
        SeekStats,
        [(int(l), int(s)) for l, s in zip(_LBNS, _SIZES)],
        True,
    ),
    (
        # Unsorted, so events arrive behind the kept horizon too.
        "sliding-window-counter",
        lambda: SlidingWindowCounter(0.5, keep=8),
        [(t,) for t in _LIVE_TIMES.tolist()],
        True,
    ),
]

BATCH_IDS = [case[0] for case in BATCH_CASES]

#: How shard folds merged in shard order compare with one unbroken
#: fold: "exact" is an equal ``state()`` JSON, "close" is 1e-9 relative
#: (Chan-merged moments; window weights are float sums associated
#: differently at a seam).  ReservoirQuantile's merge is approximate
#: and SlidingWindowCounter has none, so they are absent.
MERGE_CONTRACT = {
    "moments": "close",
    "co-moments": "close",
    "exact-quantiles": "exact",
    "categorical-counter": "exact",
    "windowed-counter": "close",
    "seek-stats": "exact",
}


def snap(acc) -> str:
    return json.dumps(acc.state(), sort_keys=True)


def restore(acc):
    """JSON round-trip through ``state()``/``from_state()``."""
    return type(acc).from_state(json.loads(snap(acc)))


def _assert_state_close(a, b, path=""):
    """Recursive state comparison: numbers within 1e-9 rel, NaN == NaN."""
    assert type(a) is type(b) or (
        isinstance(a, (int, float)) and isinstance(b, (int, float))
    ), f"{path}: {a!r} vs {b!r}"
    if isinstance(a, dict):
        assert a.keys() == b.keys(), path
        for key in a:
            _assert_state_close(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_state_close(x, y, f"{path}[{i}]")
    elif isinstance(a, float) or isinstance(b, float):
        if math.isnan(float(a)) and math.isnan(float(b)):
            return
        assert float(a) == pytest.approx(float(b), rel=1e-9, abs=1e-12), path
    else:
        assert a == b, path


def _assert_equivalent(batched, sequential, exact: bool):
    if exact:
        assert snap(batched) == snap(sequential)
    else:
        _assert_state_close(batched.state(), sequential.state())


def _batch_args(samples, arity):
    """Transpose add-argument tuples into update_batch column arguments."""
    return [[args[i] for args in samples] for i in range(arity)]


def _fold(make, samples):
    acc = make()
    acc.update_batch(*_batch_args(samples, len(samples[0])))
    return acc


def _draw_chunks(data, samples):
    """Split ``samples`` at 0-7 arbitrary cut points: 1-8 chunks."""
    cuts = sorted(data.draw(
        st.lists(st.integers(0, len(samples)), max_size=7), label="cuts"
    ))
    bounds = [0, *cuts, len(samples)]
    return [samples[a:b] for a, b in zip(bounds, bounds[1:])]


@pytest.mark.parametrize("name,make,samples,exact", BATCH_CASES, ids=BATCH_IDS)
def test_update_batch_matches_repeated_add(name, make, samples, exact):
    sequential = make()
    for args in samples:
        sequential.add(*args)
    _assert_equivalent(_fold(make, samples), sequential, exact)


@pytest.mark.parametrize("name,make,samples,exact", BATCH_CASES, ids=BATCH_IDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_update_batch_split_folds_match(name, make, samples, exact, data):
    # The shard-at-a-time analysis pattern: fold each shard on its own,
    # send some shard states through a JSON round trip (as the analysis
    # cache does), and merge them in shard order.  Accumulators without
    # an exact merge fold the shards through one accumulator instead.
    arity = len(samples[0])
    chunks = _draw_chunks(data, samples)
    whole = _fold(make, samples)
    contract = MERGE_CONTRACT.get(name)
    if contract is None:
        acc = make()
        for chunk in chunks:
            acc.update_batch(*_batch_args(chunk, arity))
        _assert_equivalent(acc, whole, exact)
        return
    shards = []
    for chunk in chunks:
        shard = make()
        shard.update_batch(*_batch_args(chunk, arity))
        if data.draw(st.booleans(), label="round trip"):
            shard = restore(shard)
        shards.append(shard)
    merged = shards[0]
    for shard in shards[1:]:
        merged.merge(shard)
    _assert_equivalent(merged, whole, contract == "exact")


@pytest.mark.parametrize("name,make,samples,exact", BATCH_CASES, ids=BATCH_IDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_state_roundtrip_mid_batch_fold(name, make, samples, exact, data):
    # Snapshot/restore between two batch folds must be invisible: the
    # restored accumulator folds the continuation to the state one
    # unbroken fold reaches (including the reservoir's RNG draws).
    arity = len(samples[0])
    chunks = _draw_chunks(data, samples)
    at = data.draw(st.integers(0, len(chunks) - 1), label="round trip at")
    acc = make()
    for i, chunk in enumerate(chunks):
        if i == at:
            restored = restore(acc)
            assert snap(restored) == snap(acc)
            acc = restored
        acc.update_batch(*_batch_args(chunk, arity))
    _assert_equivalent(acc, _fold(make, samples), exact)


@pytest.mark.parametrize("name,make,samples,exact", BATCH_CASES, ids=BATCH_IDS)
def test_update_batch_empty_is_noop(name, make, samples, exact):
    arity = len(samples[0])
    fresh = make()
    fresh.update_batch(*[[] for _ in range(arity)])
    assert snap(fresh) == snap(make())
    # And after real data: an empty fold must not disturb state.
    acc = _fold(make, samples)
    before = snap(acc)
    acc.update_batch(*[[] for _ in range(arity)])
    assert snap(acc) == before


def test_moments_batch_nan_poisons_mean_not_extrema():
    acc = MomentsAccumulator()
    acc.update_batch([float("nan"), 1.0, 5.0])
    assert acc.n == 3
    assert (acc.min, acc.max) == (1.0, 5.0)
    assert math.isnan(acc.mean)
    reference = MomentsAccumulator()
    for v in (float("nan"), 1.0, 5.0):
        reference.add(v)
    assert (reference.min, reference.max) == (1.0, 5.0)
    assert math.isnan(reference.mean)


@pytest.mark.parametrize(
    "values",
    [[float("inf"), float("-inf"), 1.0], [float("nan"), 2.0]],
    ids=["opposite-infinities", "nan"],
)
def test_moments_batch_non_finite_is_silent_and_matches_add(values):
    batched = MomentsAccumulator()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batched.update_batch(values)
    reference = MomentsAccumulator()
    for v in values:
        reference.add(v)
    # json spells NaN the same way on both sides, where NaN != NaN.
    assert json.dumps(batched.state()) == json.dumps(reference.state())


def test_exact_quantiles_bounded_batch_degrades_identically():
    values = np.linspace(0.0, 1.0, 40).tolist()
    sequential = ExactQuantiles(max_values=8)
    with pytest.warns(RuntimeWarning, match="max_values"):
        for v in values:
            sequential.add(v)
    batched = ExactQuantiles(max_values=8)
    with pytest.warns(RuntimeWarning, match="max_values"):
        batched.update_batch(values)
    assert batched.degraded and sequential.degraded
    # Bit-identical: the batch path falls back to sequential adds so
    # the reservoir RNG consumes the same draws.
    assert snap(batched) == snap(sequential)


def test_categorical_counter_folds_dict_encoded_columns():
    keys = ["read", "write", "read", "seek", "read", "write"]
    table = ["read", "write", "seek"]
    column = StringColumn(
        np.array([table.index(k) for k in keys], dtype=np.int32), table
    )
    from_keys = CategoricalCounter()
    from_keys.update_batch(keys)
    from_column = CategoricalCounter()
    from_column.update_batch(column)
    assert from_column.counts == from_keys.counts
    # Table entries with zero occurrences must not appear as keys.
    sparse = CategoricalCounter()
    sparse.update_batch(StringColumn(np.array([2, 2], dtype=np.int32), table))
    assert sparse.counts == {"seek": 2}


def test_paired_batch_length_mismatch_raises():
    with pytest.raises(ValueError, match="equal length"):
        CoMomentsAccumulator().update_batch([1.0, 2.0], [1.0])
    with pytest.raises(ValueError, match="equal length"):
        SeekStats().update_batch([1, 2], [4096])


def test_windowed_counter_batch_rejects_pre_origin_before_mutating():
    acc = WindowedCounter(0.5, origin=0.0)
    with pytest.raises(ValueError, match="precedes origin"):
        acc.update_batch([5.0, -1.0])
    assert acc.n == 0 and acc.bins == {}


# -- cross-codec CLI byte-identity -------------------------------------------


@pytest.fixture(scope="module")
def codec_stores(tmp_path_factory):
    """One workload, four stores: collected and converted, both codecs."""
    base = tmp_path_factory.mktemp("codec-stores")
    args = ["collect", "--app", "gfs", "--requests", "40", "--replicas", "2"]
    jsonl = base / "jsonl"
    columnar = base / "columnar"
    assert main(args + ["--out", str(jsonl)]) == 0
    assert main(args + ["--codec", "columnar", "--out", str(columnar)]) == 0
    converted = base / "converted"
    assert main([
        "convert", str(jsonl), "--out", str(converted), "--codec", "columnar",
    ]) == 0
    roundtrip = base / "roundtrip"
    assert main([
        "convert", str(converted), "--out", str(roundtrip), "--codec", "jsonl",
    ]) == 0
    return {
        "jsonl": jsonl,
        "columnar": columnar,
        "converted": converted,
        "roundtrip": roundtrip,
    }


def test_convert_roundtrip_restores_byte_identical_stream_files(codec_stores):
    jsonl, roundtrip = codec_stores["jsonl"], codec_stores["roundtrip"]
    shards = sorted(p.name for p in jsonl.iterdir() if p.name.startswith("shard-"))
    assert shards == sorted(
        p.name for p in roundtrip.iterdir() if p.name.startswith("shard-")
    )
    for shard in shards:
        names = sorted(p.name for p in (jsonl / shard).glob("*.jsonl"))
        assert names, shard
        assert names == sorted(p.name for p in (roundtrip / shard).glob("*.jsonl"))
        for name in names:
            assert (roundtrip / shard / name).read_bytes() == (
                jsonl / shard / name
            ).read_bytes(), f"{shard}/{name}"


def test_collected_columnar_store_verifies(codec_stores):
    for key in ("columnar", "converted"):
        store = ShardStore(codec_stores[key])
        assert store.verify() == {}
        for shard_dir in codec_stores[key].glob("shard-*"):
            assert not list(shard_dir.glob("*.jsonl")), (
                "columnar shards must not carry jsonl stream files"
            )
            assert list(shard_dir.glob("*.columns.json"))


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_characterize_stdout_identical_across_codecs(
    codec_stores, workers, capsys
):
    outputs = {}
    for key, path in codec_stores.items():
        assert main([
            "characterize", str(path), "--no-cache", "--workers", str(workers),
        ]) == 0
        outputs[key] = capsys.readouterr().out
    reference = outputs["jsonl"]
    assert "requests" in reference
    for key, out in outputs.items():
        assert out == reference, f"characterize stdout diverged for {key}"


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_validate_per_class_stdout_identical_across_codecs(
    codec_stores, workers, capsys
):
    results = {}
    for key in ("jsonl", "converted"):
        code = main([
            "validate", str(codec_stores[key]), "--per-class", "--no-cache",
            "--workers", str(workers),
        ])
        results[key] = (code, capsys.readouterr().out)
    assert results["converted"] == results["jsonl"]


def test_cli_rejects_gzip_with_columnar(tmp_path):
    with pytest.raises(SystemExit):
        main([
            "collect", "--app", "gfs", "--requests", "5",
            "--codec", "columnar", "--gzip", "--out", str(tmp_path / "a"),
        ])
    with pytest.raises(SystemExit):
        main([
            "convert", str(tmp_path / "missing"), "--out",
            str(tmp_path / "b"), "--codec", "columnar", "--gzip",
        ])


# -- one stream writer for flat dumps and shards -----------------------------


@pytest.fixture(scope="module")
def app_traces():
    return {
        "gfs": run_gfs_workload(n_requests=120, seed=3).traces,
        "webapp": run_webapp_workload(n_requests=120, seed=5),
    }


def _stream_files(directory):
    return {
        p.name: p.read_bytes()
        for p in directory.iterdir()
        if p.name != "manifest.json"
    }


@pytest.mark.parametrize(
    "codec,compress",
    [("jsonl", False), ("jsonl", True), ("columnar", False)],
    ids=["jsonl", "jsonl.gz", "columnar"],
)
@pytest.mark.parametrize("app", ["gfs", "webapp"])
def test_flat_dump_and_shard_hold_identical_stream_bytes(
    app_traces, tmp_path, app, codec, compress
):
    traces = app_traces[app]
    flat = save_traces(traces, tmp_path / "flat", compress=compress, codec=codec)
    with ShardWriter(
        tmp_path / "shard", index=0, compress=compress, codec=codec
    ) as writer:
        for stream in traces.streams():
            for record in traces.iter_records(stream):
                writer.write(stream, record)
    flat_files = _stream_files(flat)
    shard_files = _stream_files(tmp_path / "shard")
    assert shard_files
    for name, data in shard_files.items():
        assert data == flat_files[name], name
    # The shard opens stream files lazily: only empty streams may lack one.
    for name in set(flat_files) - set(shard_files):
        assert not getattr(traces, name.split(".")[0]), name


@pytest.mark.parametrize(
    "codec,gzip",
    [("columnar", False), ("jsonl", True), ("jsonl", False)],
    ids=["to-columnar", "to-gzip", "jsonl-to-jsonl"],
)
def test_convert_refuses_a_flat_dump_in_place(
    app_traces, tmp_path, codec, gzip
):
    flat = save_traces(app_traces["gfs"], tmp_path / "flat")
    before = _stream_files(flat)
    with pytest.raises(FileExistsError, match="already holds"):
        convert_flat_dump(flat, flat, codec, compress=gzip)
    args = ["convert", str(flat), "--out", str(flat), "--codec", codec]
    with pytest.raises(SystemExit) as exc:
        main(args + (["--gzip"] if gzip else []))
    assert "already holds" in str(exc.value.code)
    assert _stream_files(flat) == before


def test_convert_refuses_a_destination_holding_streams(app_traces, tmp_path):
    flat = save_traces(app_traces["gfs"], tmp_path / "flat")
    before = _stream_files(flat)
    for codec in ("jsonl", "columnar"):
        taken = save_traces(TraceSet(), tmp_path / f"taken-{codec}", codec=codec)
        taken_before = _stream_files(taken)
        with pytest.raises(FileExistsError):
            convert_flat_dump(flat, taken, "jsonl")
        assert _stream_files(taken) == taken_before
    # A fresh destination converts, and back again to the source bytes.
    convert_flat_dump(flat, tmp_path / "columnar", "columnar")
    convert_flat_dump(tmp_path / "columnar", tmp_path / "back", "jsonl")
    assert _stream_files(tmp_path / "back") == before == _stream_files(flat)


def test_merge_refuses_a_columnar_dump_destination(
    codec_stores, app_traces, tmp_path
):
    taken = save_traces(app_traces["gfs"], tmp_path / "taken", codec="columnar")
    before = _stream_files(taken)
    with pytest.raises(SystemExit) as exc:
        main(["merge", "--in", str(codec_stores["jsonl"]), "--out", str(taken)])
    assert "already holds trace stream files" in str(exc.value.code)
    assert _stream_files(taken) == before


def test_merge_refuses_to_overwrite_an_earlier_merge(codec_stores, tmp_path):
    merged = tmp_path / "merged"
    assert main(["merge", "--in", str(codec_stores["jsonl"]), "--out", str(merged)]) == 0
    before = _stream_files(merged)
    with pytest.raises(SystemExit) as exc:
        main([
            "merge", "--in", str(codec_stores["columnar"]), "--out", str(merged),
            "--gzip",
        ])
    assert "already holds trace stream files" in str(exc.value.code)
    assert _stream_files(merged) == before


# -- determinism bugfix sweep ------------------------------------------------


def test_gzip_streams_have_canonical_headers(tmp_path):
    # RFC 1952 member header: no FNAME flag, zeroed MTIME — the bytes
    # that previously leaked the writing host's wall clock and path.
    traces = TraceSet()
    traces.requests.append(
        RequestRecord(1, "read", "s0", arrival_time=0.0, completion_time=0.5)
    )
    save_traces(traces, tmp_path / "a", compress=True)
    save_traces(traces, tmp_path / "b", compress=True)
    gz_files = sorted((tmp_path / "a").glob("*.jsonl.gz"))
    assert gz_files
    for path in gz_files:
        raw = path.read_bytes()
        assert raw[:2] == b"\x1f\x8b"
        assert raw[3] & 0x08 == 0, f"{path.name}: FNAME flag set"
        assert raw[4:8] == b"\x00\x00\x00\x00", f"{path.name}: mtime set"
        # Same records, different directory and instant: same bytes.
        assert raw == (tmp_path / "b" / path.name).read_bytes()


def test_header_memo_survives_inplace_rewrite(tmp_path):
    # The usual atomic-rewrite pattern (temp file + os.replace) can
    # leave mtime and size unchanged while swapping the bytes; the
    # header-decode memo must key on the inode too and re-validate.
    path = tmp_path / "requests.jsonl"
    header_line = json.dumps({
        "format": tracing_store.TRACES_FORMAT,
        "version": tracing_store.TRACES_VERSION,
    })
    path.write_text(header_line + "\n")
    assert tracing_store._first_line_is_header(path, header_line) is True
    old = path.stat()
    plain_line = json.dumps({"format": "x"}).ljust(len(header_line))
    replacement = tmp_path / "requests.jsonl.tmp"
    replacement.write_text(plain_line + "\n")
    os.replace(replacement, path)
    os.utime(path, ns=(old.st_atime_ns, old.st_mtime_ns))
    st = path.stat()
    assert (st.st_mtime_ns, st.st_size) == (old.st_mtime_ns, old.st_size)
    assert st.st_ino != old.st_ino
    assert tracing_store._first_line_is_header(path, plain_line) is False


def test_mixed_pad_shard_dirs_merge_in_index_order(tmp_path):
    # Legacy stores used a 5-digit directory pad; new stores use 8.
    # Lexicographic order would put shard-00000010 before shard-00002 —
    # readers must sort by the parsed index instead.
    assert shard_dirname(3) == "shard-00000003"
    assert parse_shard_index("shard-00002") == 2
    assert parse_shard_index("shard-00000010") == 10
    assert parse_shard_index("not-a-shard") is None
    for name, index in (("shard-00002", 2), ("shard-00000010", 10)):
        writer = ShardWriter(tmp_path / name, index=index, app="t", seed=index)
        writer.write(
            "requests",
            RequestRecord(
                1, "read", "s0", arrival_time=0.0, completion_time=0.5
            ),
        )
        writer.finalize(duration=1.0)
    store = ShardStore(tmp_path)
    assert [m.index for m in store.manifests] == [2, 10]


# -- column helpers ------------------------------------------------------------


def test_concat_columns_of_empty_parts_keeps_the_schema():
    empty = columns_from_records("memory", [])
    out = concat_columns([empty, columns_from_records("memory", [])])
    assert out["n"] == 0
    assert set(out) == {"n"} | {name for name, _ in STREAM_COLUMNS["memory"]}
    assert all(len(out[name]) == 0 for name, _ in STREAM_COLUMNS["memory"])
    record = MemoryRecord(4, "s0", 1.5, 2, 4096, "read", 0.25)
    full = concat_columns([empty, columns_from_records("memory", [record])])
    assert records_from_columns("memory", full) == [record]


def test_shift_columns_matches_shift_span_including_annotations():
    spans = [
        Span(3, 10, None, "request", "s0", 1.0, 2.5, [Annotation(1.25, "a")]),
        Span(3, 11, 10, "read", "s1", 1.5, 2.0, []),
    ]
    cols = shift_columns(
        "spans",
        columns_from_records("spans", spans),
        time_offset=7.5,
        request_id_offset=100,
        span_id_offset=40,
    )
    assert records_from_columns("spans", cols) == [
        shift_span(s, 7.5, 100, 40) for s in spans
    ]
