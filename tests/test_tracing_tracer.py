"""Unit tests for the Tracer, TraceSet and trace persistence."""

from dataclasses import replace

import pytest

from repro.datacenter import run_gfs_workload
from repro.tracing import (
    READ,
    Annotation,
    NetworkRecord,
    RequestRecord,
    Span,
    StorageRecord,
    Tracer,
    TraceSet,
    load_traces,
    save_traces,
    shift_request,
    shift_span,
    shift_subsystem_record,
)
from tests.oracles import build_trace_trees


def test_tracer_allocates_unique_request_ids():
    tracer = Tracer()
    ids = [tracer.new_request_id() for _ in range(100)]
    assert len(set(ids)) == 100


def test_sampling_one_in_n():
    tracer = Tracer(sample_every=10)
    ids = [tracer.new_request_id() for _ in range(100)]
    sampled = [i for i in ids if tracer.is_sampled(i)]
    assert len(sampled) == 10


def test_sample_every_validation():
    with pytest.raises(ValueError):
        Tracer(sample_every=0)


def test_unsampled_request_gets_no_spans():
    tracer = Tracer(sample_every=2)
    first = tracer.new_request_id()
    second = tracer.new_request_id()
    assert tracer.start_span(first, "request", "s1", 0.0) is not None
    assert tracer.start_span(second, "request", "s1", 0.0) is None


def test_span_parenting():
    tracer = Tracer()
    rid = tracer.new_request_id()
    root = tracer.start_span(rid, "request", "s1", 0.0)
    child = tracer.start_span(rid, "storage", "s1", 0.1, parent=root)
    assert child.parent_id == root.span_id
    tracer.end_span(child, 0.5)
    tracer.end_span(root, 1.0)
    trees = build_trace_trees(tracer.traces.spans)
    assert trees[0].span_count() == 2


def test_end_span_tolerates_none():
    tracer = Tracer()
    tracer.end_span(None, 1.0)  # must not raise


def test_traceset_completed_requests_filters_unfinished():
    traces = TraceSet()
    traces.requests.append(
        RequestRecord(1, "a", "s", arrival_time=0.0, completion_time=1.0)
    )
    traces.requests.append(
        RequestRecord(2, "a", "s", arrival_time=5.0)  # never completed
    )
    assert len(traces.completed_requests()) == 1


def test_traceset_requests_by_class():
    traces = TraceSet()
    for i, cls in enumerate(["a", "b", "a"]):
        traces.requests.append(
            RequestRecord(i, cls, "s", arrival_time=0.0, completion_time=1.0)
        )
    grouped = traces.requests_by_class()
    assert sorted(grouped) == ["a", "b"]
    assert len(grouped["a"]) == 2


def test_traceset_merge():
    a = TraceSet(network=[NetworkRecord(1, "s", 0.0, 10, "rx")])
    b = TraceSet(network=[NetworkRecord(2, "s", 1.0, 20, "rx")])
    merged = a.merge(b)
    assert len(merged.network) == 2
    assert len(a.network) == 1  # originals untouched


def test_traceset_summary_counts():
    traces = TraceSet(storage=[StorageRecord(1, "s", 0.0, 0, 4096, READ)])
    summary = traces.summary()
    assert summary["storage"] == 1
    assert summary["network"] == 0


def test_save_and_load_round_trip(tmp_path):
    tracer = Tracer()
    rid = tracer.new_request_id()
    tracer.record_network(NetworkRecord(rid, "s1", 0.0, 64, "rx"))
    tracer.record_storage(StorageRecord(rid, "s1", 0.1, 5, 4096, READ, 0.004, 1))
    span = tracer.start_span(rid, "request", "s1", 0.0)
    tracer.end_span(span, 0.2)
    tracer.record_request(
        RequestRecord(rid, "read_4K", "s1", arrival_time=0.0, completion_time=0.2)
    )
    save_traces(tracer.traces, tmp_path / "run1")
    loaded = load_traces(tmp_path / "run1")
    assert loaded.summary() == tracer.traces.summary()
    assert loaded.storage[0].lbn == 5
    assert loaded.spans[0].name == "request"


def test_load_missing_streams_is_empty(tmp_path):
    traces = load_traces(tmp_path)  # nothing saved here
    assert traces.summary() == {
        "network": 0,
        "cpu": 0,
        "memory": 0,
        "storage": 0,
        "requests": 0,
        "spans": 0,
    }


def test_shifted_copies_equal_dataclass_replace():
    # The shift functions build copies with the record constructors; the
    # result must be what ``dataclasses.replace`` makes, down to the
    # shared ``extra`` object of a request.
    traces = run_gfs_workload(n_requests=20, seed=4).traces
    traces.requests[0].extra["tag"] = "x"
    traces.spans.append(
        Span(9, 90, 89, "storage", "s0", 1.0, 2.0, [Annotation(1.5, "seek")])
    )
    t, i, k = 2.5, 7, 11
    for stream in ("network", "cpu", "memory", "storage"):
        records = getattr(traces, stream)
        assert records
        for r in records:
            assert shift_subsystem_record(r, t, i) == replace(
                r, request_id=r.request_id + i, timestamp=r.timestamp + t
            )
    for r in traces.requests:
        shifted = shift_request(r, t, i)
        assert shifted == replace(
            r,
            request_id=r.request_id + i,
            arrival_time=r.arrival_time + t,
            completion_time=r.completion_time + t,
        )
        assert shifted.extra is r.extra
    for s in traces.spans:
        assert shift_span(s, t, i, k) == replace(
            s,
            trace_id=s.trace_id + i,
            span_id=s.span_id + k,
            parent_id=None if s.parent_id is None else s.parent_id + k,
            start=s.start + t,
            end=s.end + t,
            annotations=[
                Annotation(a.timestamp + t, a.message) for a in s.annotations
            ],
        )
