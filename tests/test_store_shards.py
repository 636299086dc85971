"""Tests for the on-disk trace shard store (repro.store).

Covers the acceptance contract of the subsystem: manifest round-trips,
shard-merge byte-identity against the in-memory ``merge_replicas`` path
for several worker counts, sweep-grid replica derivation, empty-replica
stitching, the shared flat/v1/v2/gzip reader path, and per-class KOOZA
training: one read of the source, pooled fits matching single-process
ones.
"""

import json
import math
import shutil

import pytest

from repro.cli import main
from repro.core import (
    InsufficientTrainingData,
    KoozaTrainer,
    model_to_dict,
    split_traces_by_class,
)
from repro.datacenter import (
    FleetSpec,
    collect_fleet,
    collect_fleet_to_store,
    collect_replicas,
    merge_replicas,
    run_gfs_workload,
    sweep_grid,
    sweep_replica_specs,
)
from repro.datacenter.fleet import ReplicaResult
from repro.store import (
    ShardManifest,
    ShardStore,
    ShardWriter,
    is_shard_store,
    load_per_class_models,
    max_request_id,
    max_span_id,
    offsets_for,
    save_per_class_models,
    shard_dirname,
    trace_extent,
    train_per_class,
)
from repro.tracing import (
    READ,
    STREAM_TYPES,
    NetworkRecord,
    RequestRecord,
    StorageRecord,
    Tracer,
    TraceSet,
    as_trace_set,
    load_traces,
    save_traces,
)
from repro.tracing import columnar
from repro.tracing.span import Span

STREAMS = ("network", "cpu", "memory", "storage", "requests", "spans")


def _dicts(traces, stream):
    return [r.to_dict() for r in getattr(traces, stream)]


def _assert_traces_equal(a, b, context=""):
    for stream in STREAMS:
        assert _dicts(a, stream) == _dicts(b, stream), f"{context}:{stream}"


# -- manifest ----------------------------------------------------------------


def test_manifest_round_trip(tmp_path):
    manifest = ShardManifest(
        index=3,
        app="gfs",
        seed=11,
        params={"n_requests": 50, "arrival_rate": 25.0, "sample_every": 1},
        duration=4.25,
        extent=4.5,
        counts={"requests": 50, "spans": 120},
        max_request_id=50,
        max_span_id=120,
        request_classes={"read_64K": 30, "write_4M": 20},
        compress=True,
    )
    manifest.save(tmp_path)
    loaded = ShardManifest.load(tmp_path)
    assert loaded == manifest
    assert loaded.stitch_part() == (4.5, 50, 120, False)
    assert loaded.param("arrival_rate") == 25.0
    assert loaded.param("app") == "gfs"
    assert loaded.n_records == 170


def test_manifest_rejects_foreign_and_future_formats(tmp_path):
    with pytest.raises(ValueError):
        ShardManifest.from_dict({"format": "something-else", "index": 0})
    with pytest.raises(ValueError):
        ShardManifest.from_dict(
            {"format": "repro-shard", "index": 0, "version": 99}
        )


# -- writer ------------------------------------------------------------------


def test_shard_writer_tracks_stitch_quantities(tmp_path):
    writer = ShardWriter(tmp_path / "shard-00000", index=0, app="t", seed=1)
    writer.write("network", NetworkRecord(1, "s0", 0.5, 64, "rx"))
    writer.write(
        "requests",
        RequestRecord(2, "read", "s0", arrival_time=0.6, completion_time=3.5),
    )
    writer.write(
        "spans",
        Span(trace_id=2, span_id=4, parent_id=None, name="a", server="s0",
             start=0.6, end=float("nan")),
    )
    manifest = writer.finalize(duration=1.0)
    # NaN span end is ignored; the request completion dominates.
    assert manifest.extent == 3.5
    assert manifest.max_request_id == 2
    assert manifest.max_span_id == 4
    assert manifest.counts["network"] == 1
    assert manifest.request_classes == {"read": 1}
    # Quantities match the stitch helpers applied to the same records.
    reloaded = load_traces(tmp_path)
    assert trace_extent(reloaded, 1.0) == manifest.extent
    assert max_request_id(reloaded) == manifest.max_request_id
    assert max_span_id(reloaded) == manifest.max_span_id


def test_shard_writer_is_a_tracer_sink(tmp_path):
    writer = ShardWriter(tmp_path / "shard-00000", index=0)
    tracer = Tracer(sample_every=1, sink=writer, keep_records=False)
    rid = tracer.new_request_id()
    tracer.record_storage(StorageRecord(rid, "s0", 0.1, 7, 4096, READ))
    span = tracer.start_span(rid, "req", "s0", 0.0)
    tracer.end_span(span, 0.4)
    tracer.record_request(
        RequestRecord(rid, "read", "s0", arrival_time=0.0, completion_time=0.4)
    )
    # Diverted streams stay out of memory; spans are held until close().
    assert tracer.traces.requests == []
    assert len(tracer.traces.spans) == 1
    tracer.close()
    manifest = writer.finalize(duration=0.4)
    assert manifest.counts["spans"] == 1
    # load_traces opens the store lazily; as_trace_set materializes.
    loaded = as_trace_set(load_traces(tmp_path))
    assert loaded.storage[0].lbn == 7
    assert loaded.spans[0].end == 0.4


def test_tracer_rejects_memoryless_collection_without_sink():
    with pytest.raises(ValueError):
        Tracer(keep_records=False)


# -- store vs in-memory merge ------------------------------------------------


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_store_merge_byte_identical_to_in_memory(tmp_path, workers):
    kwargs = dict(app="gfs", replicas=4, seed=9, n_requests=30)
    reference = collect_fleet(workers=1, **kwargs)
    out = tmp_path / f"w{workers}"
    result = collect_fleet_to_store(
        FleetSpec(**kwargs), directory=out, workers=workers
    )
    assert [m.index for m in result.manifests] == [0, 1, 2, 3]
    store = ShardStore(out)
    _assert_traces_equal(reference.traces, store.merged(), f"workers={workers}")
    # load_traces recognizes the store layout — one reader path.  It
    # returns the store itself (a lazy TraceSource) since 0.3.
    loaded = load_traces(out)
    assert isinstance(loaded, ShardStore)
    _assert_traces_equal(reference.traces, as_trace_set(loaded), "load_traces")


def test_store_merge_matches_for_webapp(tmp_path):
    kwargs = dict(app="webapp", replicas=2, seed=3, n_requests=25)
    reference = collect_fleet(workers=1, **kwargs)
    collect_fleet_to_store(FleetSpec(**kwargs), directory=tmp_path, workers=2)
    _assert_traces_equal(reference.traces, ShardStore(tmp_path).merged())


def test_save_merged_streams_flat_dump(tmp_path):
    kwargs = dict(app="gfs", replicas=2, seed=1, n_requests=25)
    collect_fleet_to_store(FleetSpec(**kwargs), directory=tmp_path / "s")
    store = ShardStore(tmp_path / "s")
    save_traces(store, tmp_path / "flat")
    _assert_traces_equal(store.merged(), load_traces(tmp_path / "flat"))


def test_store_requires_manifests(tmp_path):
    with pytest.raises(FileNotFoundError):
        ShardStore(tmp_path)
    assert not is_shard_store(tmp_path)


def test_collect_clears_a_torn_shard_directory(tmp_path):
    # A collect that crashed before its manifest leaves a shard
    # directory behind; the next collect replaces it instead of
    # writing its streams next to the stale files.
    kwargs = dict(app="gfs", replicas=1, seed=4, n_requests=30)
    collect_fleet_to_store(directory=tmp_path / "clean", **kwargs)
    collect_fleet_to_store(
        directory=tmp_path / "columnar", codec="columnar", **kwargs
    )
    torn = tmp_path / "torn" / shard_dirname(0)
    shutil.copytree(tmp_path / "columnar" / shard_dirname(0), torn)
    (torn / "manifest.json").unlink()
    collect_fleet_to_store(directory=tmp_path / "torn", **kwargs)

    def files(root):
        shard = root / shard_dirname(0)
        return {p.name: p.read_bytes() for p in shard.iterdir()}

    assert files(tmp_path / "torn") == files(tmp_path / "clean")


# -- empty replicas ----------------------------------------------------------


def _replica_with_one_request(index, request_id=1):
    traces = TraceSet(
        network=[NetworkRecord(request_id, "s0", 0.25, 64, "rx")],
        requests=[
            RequestRecord(
                request_id, "read", "s0", arrival_time=0.25, completion_time=2.0
            )
        ],
    )
    return ReplicaResult(index, traces, 2.0)


def test_empty_replica_keeps_timeline_slot_and_ids():
    # An empty replica with a known duration must advance the merged
    # timeline by that duration and burn no identifier space.
    results = [
        _replica_with_one_request(0),
        ReplicaResult(1, TraceSet(), 5.0),
        _replica_with_one_request(2),
    ]
    merged = merge_replicas(results)
    assert [r.request_id for r in merged.requests] == [1, 2]
    # Replica 2 starts after replica 0's extent (2.0) + the empty
    # replica's duration (5.0).
    assert merged.requests[1].arrival_time == pytest.approx(7.25)
    # The store path stitches the same way from manifests alone.
    parts = [(2.0, 1, 0), (5.0, 0, 0), (2.0, 1, 0)]
    offsets = offsets_for(parts)
    assert [o.time for o in offsets] == [0.0, 2.0, 7.0]
    assert [o.request_id for o in offsets] == [0, 1, 1]


def test_incomplete_requests_count_toward_extent():
    # A replica whose requests never completed must still span its
    # arrivals — previously its extent collapsed to zero and the next
    # replica's records interleaved before them.
    never_done = TraceSet(
        requests=[
            RequestRecord(1, "read", "s0", arrival_time=3.0, completion_time=0.0)
        ]
    )
    assert trace_extent(never_done) == 3.0
    merged = merge_replicas(
        [ReplicaResult(0, never_done, 0.0), _replica_with_one_request(1)]
    )
    assert merged.requests[1].arrival_time >= 3.0
    ids = [r.request_id for r in merged.requests]
    assert len(ids) == len(set(ids))


def test_extent_ignores_nan_span_end_but_counts_finite_end():
    open_span = TraceSet(
        spans=[Span(1, 1, None, "a", "s", start=1.0, end=float("nan"))]
    )
    assert trace_extent(open_span) == 1.0
    closed_span = TraceSet(
        spans=[Span(1, 1, None, "a", "s", start=1.0, end=9.0)]
    )
    assert trace_extent(closed_span) == 9.0


def test_empty_shard_round_trips_through_store(tmp_path):
    writer = ShardWriter(tmp_path / "shard-00000", index=0, app="webapp")
    writer.finalize(duration=4.0)
    writer2 = ShardWriter(tmp_path / "shard-00001", index=1, app="webapp")
    writer2.write("network", NetworkRecord(1, "s0", 0.5, 64, "rx"))
    writer2.finalize(duration=1.0)
    store = ShardStore(tmp_path)
    assert store.manifests[0].counts["network"] == 0
    merged = store.merged()
    # The empty shard holds its 4.0s slot: the next shard's record lands
    # at 4.0 + 0.5.
    assert merged.network[0].timestamp == 4.5


# -- sweeps ------------------------------------------------------------------


def test_sweep_grid_cross_product_and_validation():
    grid = sweep_grid(arrival_rate=[10.0, 20.0], n_requests=[100, 200])
    assert grid == [
        {"arrival_rate": 10.0, "n_requests": 100},
        {"arrival_rate": 10.0, "n_requests": 200},
        {"arrival_rate": 20.0, "n_requests": 100},
        {"arrival_rate": 20.0, "n_requests": 200},
    ]
    with pytest.raises(ValueError):
        sweep_grid(seed=[1, 2])  # seed is not sweepable


def test_sweep_replica_specs_enumerate_grid_times_repeats():
    base = FleetSpec(app="gfs", replicas=2, seed=4, n_requests=50)
    specs = sweep_replica_specs(base, [{"arrival_rate": 10.0}, {"arrival_rate": 40.0}])
    assert [s.index for s in specs] == [0, 1, 2, 3]
    assert [s.arrival_rate for s in specs] == [10.0, 10.0, 40.0, 40.0]
    assert all(s.seed == 4 and s.n_requests == 50 for s in specs)
    with pytest.raises(ValueError):
        sweep_replica_specs(base, [])
    with pytest.raises(ValueError):
        sweep_replica_specs(base, [{"app": "nosuch"}])
    with pytest.raises(ValueError):
        sweep_replica_specs(base, [{"arrival_rate": 10.0}], repeats=0)


def test_sweep_defaults_arrival_rate_per_app():
    base = FleetSpec(app="gfs", replicas=1, seed=0, n_requests=10)
    specs = sweep_replica_specs(base, [{"app": "webapp"}, {"app": "gfs"}])
    assert specs[0].app == "webapp" and specs[0].arrival_rate == 120.0
    assert specs[1].app == "gfs" and specs[1].arrival_rate == 25.0


def test_sweep_manifests_group_by_parameters(tmp_path):
    base = FleetSpec(app="gfs", replicas=2, seed=2, n_requests=20)
    specs = sweep_replica_specs(
        base, [{"arrival_rate": 10.0}, {"arrival_rate": 40.0}]
    )
    collect_fleet_to_store(
        replica_specs=specs, directory=tmp_path, workers=2
    )
    store = ShardStore(tmp_path)
    groups = store.group_by("arrival_rate")
    assert {k: sorted(m.index for m in v) for k, v in groups.items()} == {
        10.0: [0, 1],
        40.0: [2, 3],
    }
    # Sweep store stitches identically to the in-memory merge of the
    # same replica list.
    reference = merge_replicas(collect_replicas(specs, workers=1))
    _assert_traces_equal(reference, store.merged(), "sweep")


# -- flat dump formats -------------------------------------------------------


def test_save_load_round_trip_gzip(tmp_path, gfs_run=None):
    tracer = Tracer()
    rid = tracer.new_request_id()
    tracer.record_network(NetworkRecord(rid, "s1", 0.0, 64, "rx"))
    tracer.record_request(
        RequestRecord(rid, "read", "s1", arrival_time=0.0, completion_time=0.2)
    )
    save_traces(tracer.traces, tmp_path / "gz", compress=True)
    assert (tmp_path / "gz" / "network.jsonl.gz").exists()
    loaded = load_traces(tmp_path / "gz")
    assert loaded.summary() == tracer.traces.summary()
    assert loaded.network[0].size_bytes == 64


def test_v2_dumps_carry_format_header(tmp_path):
    save_traces(TraceSet(), tmp_path)
    first = (tmp_path / "requests.jsonl").read_text().splitlines()[0]
    header = json.loads(first)
    assert header["format"] == "repro-traces"
    assert header["version"] == 2
    assert header["stream"] == "requests"


def test_legacy_headerless_dumps_still_load(tmp_path):
    record = RequestRecord(
        1, "read", "s0", arrival_time=0.0, completion_time=1.0
    )
    (tmp_path / "requests.jsonl").write_text(
        json.dumps(record.to_dict()) + "\n"
    )
    loaded = load_traces(tmp_path)
    assert loaded.requests[0].to_dict() == record.to_dict()


def test_future_format_version_rejected(tmp_path):
    (tmp_path / "requests.jsonl").write_text(
        json.dumps({"format": "repro-traces", "version": 99, "stream": "requests"})
        + "\n"
    )
    with pytest.raises(ValueError):
        load_traces(tmp_path)


# -- shard-parallel per-class training ---------------------------------------


@pytest.fixture(scope="module")
def trained_store(tmp_path_factory):
    directory = tmp_path_factory.mktemp("store")
    collect_fleet_to_store(
        FleetSpec(app="gfs", replicas=3, seed=5, n_requests=60),
        directory=directory,
        workers=2,
    )
    return directory


def _model_json(model):
    return json.dumps(model_to_dict(model), sort_keys=True)


def test_per_class_training_parallel_matches_serial(trained_store):
    serial = train_per_class(trained_store, workers=1)
    pooled = train_per_class(trained_store, workers=2)
    assert serial.models.keys() == pooled.models.keys()
    assert serial.models  # gfs table2 mix has >= 2 trainable classes
    for cls in serial.models:
        assert _model_json(serial.models[cls]) == _model_json(
            pooled.models[cls]
        ), f"{cls} fit diverged between worker counts"


def test_per_class_training_matches_split_fit(trained_store):
    # The shard-parallel fit equals a single-process fit on the same
    # per-class partition of the fully merged traces.
    fit = train_per_class(trained_store, workers=2)
    merged = ShardStore(trained_store).merged()
    per_class = split_traces_by_class(merged)
    for cls, model in fit.models.items():
        reference = KoozaTrainer().fit(per_class[cls])
        assert _model_json(reference) == _model_json(model), cls


def test_per_class_training_skips_undertrained_classes(trained_store):
    counts = ShardStore(trained_store).request_class_counts()
    threshold = max(counts.values()) + 1
    fit = train_per_class(trained_store, workers=1, min_requests=threshold)
    assert fit.models == {}
    assert fit.skipped == counts


def test_per_class_training_skips_classes_without_complete_requests(tmp_path):
    # Mapreduce classes pass the completed-request filter but have no
    # complete feature vectors; they are skipped with that count (0)
    # while the gfs classes of the same store are still fitted.
    collect_fleet_to_store(
        FleetSpec(app="gfs", replicas=2, seed=5, n_requests=60), directory=tmp_path
    )
    collect_fleet_to_store(
        FleetSpec(app="mapreduce", replicas=2, seed=5, n_requests=1),
        directory=tmp_path,
        append=True,
    )
    fits = [
        train_per_class(tmp_path, workers=1),
        train_per_class(tmp_path, workers=2),
        train_per_class(ShardStore(tmp_path).merged()),
    ]
    for fit in fits:
        assert fit.skipped == {"map": 0, "reduce": 0}
        assert sorted(fit.models) == ["read_64K", "write_4M"]
    for cls in fits[0].models:
        reference = _model_json(fits[0].models[cls])
        assert all(_model_json(fit.models[cls]) == reference for fit in fits)


def test_per_class_training_skips_classes_without_sampled_trees():
    # Dapper-style 1-in-1000 sampling keeps every request's subsystem
    # records but spans only for request 1, so only its class has a
    # trace tree; the other class is skipped, not an abort.
    traces = run_gfs_workload(400, seed=1, sample_every=1000).traces
    sampled_ids = {span.trace_id for span in traces.spans}
    sampled = {
        r.request_class for r in traces.requests if r.request_id in sampled_ids
    }
    unsampled = set(traces.classes()) - sampled
    assert sampled and unsampled
    fit = train_per_class(traces)
    assert set(fit.models) == sampled
    assert set(fit.skipped) == unsampled
    per_class = split_traces_by_class(traces)
    for cls in sampled:
        reference = KoozaTrainer().fit(per_class[cls])
        assert _model_json(reference) == _model_json(fit.models[cls])
    for cls in unsampled:
        with pytest.raises(InsufficientTrainingData) as error:
            KoozaTrainer().fit(per_class[cls])
        assert error.value.n_trees == 0
        assert fit.skipped[cls] == error.value.n_complete > 0


def test_per_class_training_reads_the_store_once(tmp_path, monkeypatch):
    # However many classes, training loads each of the six streams of
    # each shard once, as columns, and builds no record objects: the
    # stage sequences are mined from the span columns.
    collect_fleet_to_store(
        FleetSpec(app="webapp", replicas=2, seed=5, n_requests=150),
        directory=tmp_path,
        codec="columnar",
    )
    store = ShardStore(tmp_path)
    loads = []
    load = ShardStore.load_shard_stream_columns

    def counting_load(self, manifest, stream, names=None):
        loads.append(stream)
        return load(self, manifest, stream, names)

    decoded = []
    to_records = columnar.records_from_columns

    def counting_to_records(stream, cols):
        decoded.append(stream)
        return to_records(stream, cols)

    monkeypatch.setattr(ShardStore, "load_shard_stream_columns", counting_load)
    monkeypatch.setattr(columnar, "records_from_columns", counting_to_records)
    fit = train_per_class(store)
    assert len(store) == 2 and len(fit.models) >= 3
    assert sorted(loads) == sorted(list(STREAM_TYPES) * len(store))
    assert decoded == []


def test_per_class_models_round_trip(trained_store, tmp_path):
    fit = train_per_class(trained_store, workers=1)
    path = save_per_class_models(fit.models, tmp_path / "classes.json")
    loaded = load_per_class_models(path)
    assert loaded.keys() == fit.models.keys()
    for cls in loaded:
        assert _model_json(loaded[cls]) == _model_json(fit.models[cls])


def test_cli_train_per_class(trained_store, tmp_path, capsys):
    model_path = tmp_path / "classes.json"
    assert main(
        ["train", str(trained_store), "--per-class", "--workers", "2",
         "--model", str(model_path)]
    ) == 0
    assert "per-class models" in capsys.readouterr().out
    assert load_per_class_models(model_path)


def test_cli_train_per_class_requires_shard_store(tmp_path):
    save_traces(TraceSet(), tmp_path / "flat")
    with pytest.raises(SystemExit):
        main(
            ["train", str(tmp_path / "flat"), "--per-class", "--model",
             str(tmp_path / "m.json")]
        )


def test_cli_sweep_collect_records_parameters(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(
        ["collect", "--app", "gfs", "--requests", "20", "--replicas", "1",
         "--sweep-rate", "10,40", "--out", str(out)]
    ) == 0
    assert "2 shards" in capsys.readouterr().out
    groups = ShardStore(out).group_by("arrival_rate")
    assert set(groups) == {10.0, 40.0}


def test_cli_append_reports_the_shard_indices_it_writes(tmp_path, capsys):
    out = str(tmp_path / "store")
    args = ["--app", "gfs", "--requests", "20", "--replicas", "2", "--out", out]
    assert main(["collect", *args]) == 0
    assert "shard 1 persisted" in capsys.readouterr().out
    assert main(["append", *args]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:2]] == [
        "shard 2 persisted",
        "shard 3 persisted",
    ]
