"""The request-feature join against the per-record walk it replaced.

``request_feature_columns`` is the only place request features are
assembled.  ``reference_request_features`` (``tests/oracles.py``) is
the record walk that used to serve training: it groups every subsystem
record by request id in Python dicts and builds one ``RequestFeatures``
per complete request.  It lives on as the oracle: the join must
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
from repro.tracing import FlatTraceDump, save_traces

from tests.oracles import reference_request_features

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
