"""Tests for feature extraction and dependency-queue mining."""

import numpy as np
import pytest

from repro.core import (
    WorkloadFeatureStats,
    extract_request_features,
    mine_dependency_queue,
    stage_sequences,
)
from repro.core.dependency import DependencyQueue
from repro.datacenter import run_gfs_workload, run_webapp_workload
from repro.tracing import READ, WRITE, source_columns


def _sequences(traces):
    return stage_sequences(source_columns(traces, "spans"))


@pytest.fixture(scope="module")
def gfs_run():
    return run_gfs_workload(n_requests=400, seed=21)


def test_features_cover_all_completed_requests(gfs_run):
    features = extract_request_features(gfs_run.traces)
    assert len(features) == len(gfs_run.traces.completed_requests())


def test_features_sorted_by_arrival(gfs_run):
    features = extract_request_features(gfs_run.traces)
    arrivals = [f.arrival_time for f in features]
    assert arrivals == sorted(arrivals)


def test_features_match_request_classes(gfs_run):
    features = extract_request_features(gfs_run.traces)
    for f in features:
        if f.request_class == "read_64K":
            assert f.network_bytes == 64 * 1024
            assert f.storage_bytes == 64 * 1024
            assert f.memory_bytes == 16 * 1024
            assert f.storage_op == READ and f.memory_op == READ
        else:
            assert f.request_class == "write_4M"
            assert f.network_bytes == 4 << 20
            assert f.memory_bytes == 256 * 1024
            assert f.storage_op == WRITE and f.memory_op == WRITE


def test_features_cpu_split_positive(gfs_run):
    features = extract_request_features(gfs_run.traces)
    for f in features[:50]:
        assert f.cpu_lookup_busy > 0
        assert f.cpu_aggregate_busy > 0
        assert 0 < f.cpu_utilization < 1


def test_features_storage_delta_mixes_sequential_and_jumps(gfs_run):
    features = extract_request_features(gfs_run.traces)
    deltas = np.array([f.storage_delta for f in features])
    assert np.any(deltas == 0) or np.any(np.abs(deltas) < 100)
    assert np.any(np.abs(deltas) > 10_000)


def test_profile_key_groups_by_op_and_size(gfs_run):
    # A Table-2 profile is (storage op, log2 size bucket of the payload).
    stats = WorkloadFeatureStats.from_source(gfs_run.traces)
    assert set(stats.profiles) == {(READ, 16), (WRITE, 22)}


def test_features_master_excluded(gfs_run):
    features = extract_request_features(gfs_run.traces)
    # Master lookup work must not leak into data-path network bytes:
    # every read request's payload is exactly the class size.
    reads = [f for f in features if f.request_class == "read_64K"]
    assert all(f.network_bytes == 64 * 1024 for f in reads)


def test_mine_dependency_queue_gfs(gfs_run):
    queue = mine_dependency_queue(_sequences(gfs_run.traces))
    assert queue.default == (
        "network_rx",
        "cpu_lookup",
        "memory",
        "storage",
        "cpu_aggregate",
        "network_tx",
    )


def test_mine_dependency_queue_per_profile(gfs_run):
    features = extract_request_features(gfs_run.traces)
    profile_of = {f.request_id: f.request_class for f in features}
    queue = mine_dependency_queue(_sequences(gfs_run.traces), profile_of)
    assert queue.n_profiles == 2
    assert queue.sequence_for("read_64K") == queue.default


def test_mine_dependency_queue_webapp_differs():
    traces = run_webapp_workload(n_requests=120, seed=9)
    queue = mine_dependency_queue(_sequences(traces))
    assert queue.default.count("cpu_lookup") == 3
    assert queue.default.count("cpu_aggregate") == 3


def test_dependency_queue_unknown_profile_falls_back():
    queue = DependencyQueue(
        sequences={"a": ("x", "y")}, supports={"a": 3}, default=("x",)
    )
    assert queue.sequence_for("never-seen") == ("x",)
    assert queue.sequence_for("a") == ("x", "y")


def test_dependency_queue_validation():
    with pytest.raises(ValueError):
        DependencyQueue({}, {}, default=())
    with pytest.raises(ValueError):
        mine_dependency_queue([])


def test_dependency_queue_describe(gfs_run):
    queue = mine_dependency_queue(_sequences(gfs_run.traces))
    text = queue.describe()
    assert "network_rx -> cpu_lookup" in text
