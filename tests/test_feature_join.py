"""The request-feature join against the per-record walk it replaced.

``request_feature_columns`` is the only place request features are
assembled.  ``reference_request_features`` below is the record walk
that used to serve training: it groups every subsystem record by
request id in Python dicts and builds one ``RequestFeatures`` per
complete request.  It lives on here as the oracle: the join must
reproduce it field for field, floats bit for bit, on in-memory traces,
on shard stores of every layout, and on per-class store reads.
"""

from __future__ import annotations

import struct
from dataclasses import fields

import pytest

from repro.core import RequestFeatures, extract_request_features
from repro.core.instances import split_traces_by_class
from repro.datacenter import (
    FleetSpec,
    collect_fleet_to_store,
    run_gfs_workload,
    run_mapreduce_jobs,
    run_webapp_workload,
)
from repro.store import ShardStore
from repro.tracing import FlatTraceDump, TraceSource, save_traces

#: Servers whose records are control-plane, not data-path.
_CONTROL_SERVERS = ("master",)


def reference_request_features(source: TraceSource) -> list[RequestFeatures]:
    """Assemble per-request feature vectors, sorted by arrival time.

    The per-record walk: folds over the source's streams without
    requiring list attributes.  Control-plane records (master lookups)
    are excluded from the data-path features.  Requests missing any
    subsystem record (e.g. cut off at simulation end) are dropped.
    """
    storage_by_request: dict[int, list] = {}
    for r in source.iter_records("storage"):
        storage_by_request.setdefault(r.request_id, []).append(r)
    memory_by_request: dict[int, list] = {}
    for r in source.iter_records("memory"):
        memory_by_request.setdefault(r.request_id, []).append(r)
    cpu_by_request: dict[int, list] = {}
    for r in source.iter_records("cpu"):
        if r.server not in _CONTROL_SERVERS:
            cpu_by_request.setdefault(r.request_id, []).append(r)
    network_by_request: dict[int, list] = {}
    for r in source.iter_records("network"):
        if r.server not in _CONTROL_SERVERS:
            network_by_request.setdefault(r.request_id, []).append(r)

    completed = (
        r
        for r in source.iter_records("requests")
        if r.completion_time > r.arrival_time
    )
    features = []
    for record in completed:
        rid = record.request_id
        storage = sorted(
            storage_by_request.get(rid, []), key=lambda r: r.timestamp
        )
        memory = sorted(memory_by_request.get(rid, []), key=lambda r: r.timestamp)
        cpu = cpu_by_request.get(rid, [])
        network = network_by_request.get(rid, [])
        if not storage or not memory or not cpu or not network:
            continue
        lookup = sum(r.busy_seconds for r in cpu if r.phase == "lookup")
        aggregate = sum(r.busy_seconds for r in cpu if r.phase != "lookup")
        features.append(
            RequestFeatures(
                request_id=rid,
                request_class=record.request_class,
                server=record.server,
                arrival_time=record.arrival_time,
                latency=record.latency,
                network_bytes=max(r.size_bytes for r in network),
                cpu_lookup_busy=lookup,
                cpu_aggregate_busy=aggregate,
                memory_op=memory[0].op,
                memory_bytes=sum(r.size_bytes for r in memory),
                memory_bank=memory[0].bank,
                storage_op=storage[0].op,
                storage_bytes=sum(r.size_bytes for r in storage),
                storage_lbn=storage[0].lbn,
            )
        )
    features.sort(key=lambda f: f.arrival_time)

    # Seek deltas between consecutive requests on the same server.
    block = 4096
    last_end: dict[str, int] = {}
    for f in features:
        blocks = max(1, -(-f.storage_bytes // block))
        if f.server in last_end:
            f.storage_delta = f.storage_lbn - last_end[f.server]
        f.storage_delta = int(f.storage_delta)
        last_end[f.server] = f.storage_lbn + blocks
    return features


_FLOAT_FIELDS = {"arrival_time", "latency", "cpu_lookup_busy", "cpu_aggregate_busy"}


def assert_same_features(actual, expected):
    """Field-for-field equality; floats compared by their bit pattern."""
    assert len(actual) == len(expected)
    for a, e in zip(actual, expected):
        for field in fields(RequestFeatures):
            got, want = getattr(a, field.name), getattr(e, field.name)
            if field.name in _FLOAT_FIELDS:
                assert type(got) is float, field.name
                # The walk's sum over no records is the int 0.
                assert struct.pack("<d", got) == struct.pack("<d", want), (
                    field.name, a.request_id, got, want,
                )
            else:
                assert type(got) is type(want), field.name
                assert got == want, (field.name, a.request_id, got, want)


@pytest.fixture(scope="module")
def trace_sets():
    traces, _ = run_mapreduce_jobs(seed=4)
    return {
        "gfs": run_gfs_workload(n_requests=150, seed=3).traces,
        "webapp": run_webapp_workload(n_requests=150, seed=5),
        "mapreduce": traces,
    }


def _collect(directory, app, **kwargs):
    spec = FleetSpec(app=app, replicas=2, seed=7, n_requests=60)
    collect_fleet_to_store(spec, directory=directory, **kwargs)
    return directory


STORES = (
    "gfs-jsonl",
    "gfs-columnar",
    "webapp-columnar",
    "gfs-windowed-appended",
    "mapreduce",
)


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    root = tmp_path_factory.mktemp("feature-join")
    windowed = _collect(root / "windowed", "gfs", windows=3)
    _collect(windowed, "gfs", windows=2, append=True)
    return {
        "gfs-jsonl": ShardStore(_collect(root / "jsonl", "gfs", compress=True)),
        "gfs-columnar": ShardStore(
            _collect(root / "gfs-columnar", "gfs", codec="columnar")
        ),
        "webapp-columnar": ShardStore(
            _collect(root / "columnar", "webapp", codec="columnar")
        ),
        "gfs-windowed-appended": ShardStore(windowed),
        "mapreduce": ShardStore(_collect(root / "mapreduce", "mapreduce")),
    }


@pytest.mark.parametrize("app", ("gfs", "webapp", "mapreduce"))
def test_join_matches_walk_on_trace_sets(trace_sets, app):
    traces = trace_sets[app]
    expected = reference_request_features(traces)
    assert_same_features(extract_request_features(traces), expected)
    if app != "mapreduce":  # mapreduce tasks touch no memory model
        assert len(expected) > 100


@pytest.mark.parametrize("codec", ("jsonl", "columnar"))
def test_join_matches_walk_on_flat_dumps(trace_sets, tmp_path, codec):
    dump = FlatTraceDump(save_traces(trace_sets["gfs"], tmp_path, codec=codec))
    assert_same_features(
        extract_request_features(dump), reference_request_features(dump)
    )


@pytest.mark.parametrize("name", STORES)
def test_join_matches_walk_on_stores(stores, name):
    store = stores[name]
    expected = reference_request_features(store)
    assert_same_features(extract_request_features(store), expected)
    # The stitched join equals the walk over the materialized merge,
    # seek gaps across shard seams included.
    assert_same_features(
        extract_request_features(store.merged()), expected
    )


@pytest.mark.parametrize("name", STORES)
def test_class_traces_match_in_memory_split(stores, name):
    store = stores[name]
    by_class = split_traces_by_class(store.merged())
    assert sorted(by_class) == sorted(
        {r.request_class for r in store.iter_records("requests")}
    )
    for cls, expected in by_class.items():
        traces = store.class_traces(cls)
        for stream in store.streams():
            got = [r.to_dict() for r in getattr(traces, stream)]
            want = [r.to_dict() for r in getattr(expected, stream)]
            assert got == want, (cls, stream)
        assert_same_features(
            extract_request_features(traces),
            reference_request_features(expected),
        )
