"""Tests for the sharded parallel runner and the fleet trace collector."""

import math

import pytest

from repro.datacenter import FleetSpec, collect_fleet, run_replica
from repro.datacenter.fleet import merge_replicas, replica_streams
from repro.simulation import RandomStreams, resolve_workers, run_sharded
from repro.tracing import TraceSet
from repro.tracing.records import NetworkRecord, RequestRecord
from repro.tracing.span import Span
from tests.oracles import build_trace_trees


def _square(x):
    return x * x


# -- run_sharded -------------------------------------------------------------


def test_run_sharded_preserves_spec_order():
    assert run_sharded(_square, [3, 1, 2], workers=1) == [9, 1, 4]


def test_run_sharded_empty():
    assert run_sharded(_square, [], workers=4) == []


def test_run_sharded_multiprocess_matches_inline():
    specs = list(range(12))
    assert run_sharded(_square, specs, workers=3) == [_square(s) for s in specs]


def test_resolve_workers():
    assert resolve_workers(1, 10) == 1
    assert resolve_workers(8, 3) == 3  # never more workers than tasks
    assert resolve_workers(0, 4) >= 1  # 0 = all cores
    assert resolve_workers(-1, 1) == 1


def test_run_sharded_propagates_exceptions():
    with pytest.raises(ZeroDivisionError):
        run_sharded(_reciprocal, [1, 0, 2], workers=1)


def _reciprocal(x):
    return 1 / x


# -- TraceSet.shifted --------------------------------------------------------


def _tiny_traceset():
    return TraceSet(
        network=[NetworkRecord(1, "s0", 0.5, 100, "rx")],
        requests=[
            RequestRecord(1, "r", "s0", arrival_time=0.5, completion_time=2.0)
        ],
        spans=[
            Span(trace_id=1, span_id=1, parent_id=None, name="a", server="s0",
                 start=0.5, end=2.0),
            Span(trace_id=1, span_id=2, parent_id=1, name="b", server="s0",
                 start=0.7, end=1.1),
        ],
    )


def test_shifted_offsets_times_and_ids():
    shifted = _tiny_traceset().shifted(
        time_offset=10.0, request_id_offset=5, span_id_offset=7
    )
    assert shifted.network[0].timestamp == 10.5
    assert shifted.network[0].request_id == 6
    assert shifted.requests[0].arrival_time == 10.5
    assert shifted.requests[0].completion_time == 12.0
    root, child = shifted.spans
    assert (root.trace_id, root.span_id, root.parent_id) == (6, 8, None)
    assert (child.trace_id, child.span_id, child.parent_id) == (6, 9, 8)
    assert child.start == 10.7


def test_shifted_keeps_unfinished_span_nan():
    ts = TraceSet(spans=[
        Span(trace_id=1, span_id=1, parent_id=None, name="a", server="s",
             start=0.0)
    ])
    assert math.isnan(ts.shifted(time_offset=3.0).spans[0].end)


def test_shifted_noop_is_identity():
    ts = _tiny_traceset()
    shifted = ts.shifted()
    assert [r.to_dict() for r in shifted.requests] == [
        r.to_dict() for r in ts.requests
    ]


# -- fleet -------------------------------------------------------------------


def test_fleet_spec_validation():
    with pytest.raises(ValueError):
        FleetSpec(app="nosuch")
    with pytest.raises(ValueError):
        FleetSpec(replicas=0)
    with pytest.raises(ValueError):
        FleetSpec(n_requests=0)
    with pytest.raises(TypeError):
        collect_fleet(FleetSpec(), replicas=2)


def test_replica_streams_disjoint_across_replicas():
    a = replica_streams(0, 0).get("workload/arrivals").random(5)
    b = replica_streams(0, 1).get("workload/arrivals").random(5)
    root = RandomStreams(0).get("workload/arrivals").random(5)
    assert not (a == b).all()
    assert not (a == root).all()


def test_replica_is_pure_function_of_spec():
    spec = FleetSpec(app="gfs", replicas=2, seed=3, n_requests=40)
    a = run_replica(spec.replica(1))
    b = run_replica(spec.replica(1))
    assert [r.to_dict() for r in a.traces.requests] == [
        r.to_dict() for r in b.traces.requests
    ]
    assert a.duration == b.duration


def test_merge_monotonic_offsets_and_unique_ids():
    spec = FleetSpec(app="gfs", replicas=3, seed=0, n_requests=30)
    results = [run_replica(spec.replica(k)) for k in range(3)]
    merged = merge_replicas(results)

    # Replica blocks are laid out end-to-end: each replica's earliest
    # arrival is at or after the previous replica's latest completion.
    n = 30
    blocks = [merged.requests[i * n:(i + 1) * n] for i in range(3)]
    for earlier, later in zip(blocks, blocks[1:]):
        assert max(r.completion_time for r in earlier) <= min(
            r.arrival_time for r in later
        )

    ids = [r.request_id for r in merged.requests]
    assert len(ids) == len(set(ids))
    span_ids = [s.span_id for s in merged.spans]
    assert len(span_ids) == len(set(span_ids))
    # Span trees survive the id shifting intact.
    assert len(build_trace_trees(merged.spans)) == sum(
        len(build_trace_trees(r.traces.spans)) for r in results
    )


@pytest.mark.parametrize("app", ["gfs", "webapp", "mapreduce"])
def test_fleet_identical_across_worker_counts(app):
    kwargs = dict(app=app, replicas=2, seed=7, n_requests=25)
    serial = collect_fleet(workers=1, **kwargs)
    parallel = collect_fleet(workers=2, **kwargs)
    for stream in ("network", "cpu", "memory", "storage", "requests", "spans"):
        assert [r.to_dict() for r in getattr(serial.traces, stream)] == [
            r.to_dict() for r in getattr(parallel.traces, stream)
        ], f"{app}:{stream} diverged between worker counts"
    assert serial.replica_durations == parallel.replica_durations


def test_fleet_mapreduce_aggregates_job_results():
    result = collect_fleet(app="mapreduce", replicas=2, seed=1, workers=1)
    assert len(result.job_results) == 16  # 8 default jobs per replica
    assert result.total_simulated_time == sum(result.replica_durations)
