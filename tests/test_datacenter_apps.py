"""Integration tests for the 3-tier web app and MapReduce simulations."""

import numpy as np
import pytest

from repro.core import stage_sequences
from repro.datacenter import (
    MapReduceJob,
    MapReduceSpec,
    WebAppSpec,
    run_mapreduce_jobs,
    run_webapp_workload,
)
from repro.tracing import source_columns


def test_webapp_requests_complete():
    traces = run_webapp_workload(n_requests=150, seed=1)
    assert len(traces.completed_requests()) == 150
    classes = set(traces.requests_by_class())
    assert classes == {"browse", "search", "order"}


def test_webapp_traverses_three_tiers():
    traces = run_webapp_workload(n_requests=50, seed=2)
    servers = {r.server for r in traces.cpu}
    tiers = {s.split("-")[0] for s in servers}
    assert tiers == {"web", "app", "db"}


def test_webapp_only_db_does_storage():
    traces = run_webapp_workload(n_requests=50, seed=3)
    storage_servers = {r.server for r in traces.storage}
    assert all(s.startswith("db-") for s in storage_servers)


def test_webapp_stage_sequence_shows_tiering():
    traces = run_webapp_workload(n_requests=30, seed=4)
    sequence = stage_sequences(source_columns(traces, "spans"))[0][1]
    assert sequence.count("cpu_lookup") == 3  # one per tier
    assert sequence.count("storage") == 1
    assert sequence[-1] == "network_tx"


def test_webapp_order_class_writes():
    traces = run_webapp_workload(n_requests=300, seed=5)
    orders = traces.requests_by_class()["order"]
    assert all(r.storage_op == "write" for r in orders)


def test_webapp_spec_validation():
    with pytest.raises(ValueError):
        WebAppSpec(web_servers=0)
    with pytest.raises(ValueError):
        WebAppSpec(classes=())


def test_mapreduce_jobs_complete_with_results():
    jobs = [
        MapReduceJob("j0", input_bytes=64 << 20, n_map=4, n_reduce=2),
        MapReduceJob("j1", input_bytes=16 << 20, n_map=2, n_reduce=1),
    ]
    traces, results = run_mapreduce_jobs(jobs=jobs, seed=1)
    assert len(results) == 2
    assert all(r.execution_time > 0 for r in results)
    # 4+2 tasks for j0 and 2+1 for j1.
    assert len(traces.requests) == 9


def test_mapreduce_bigger_job_takes_longer():
    jobs = [
        MapReduceJob("small", input_bytes=16 << 20, n_map=2, n_reduce=1),
        MapReduceJob("big", input_bytes=256 << 20, n_map=2, n_reduce=1),
    ]
    _, results = run_mapreduce_jobs(jobs=jobs, seed=2)
    by_name = {r.job.name: r.execution_time for r in results}
    assert by_name["big"] > by_name["small"]


def test_mapreduce_parallelism_speeds_up_job():
    jobs = [
        MapReduceJob("serial", input_bytes=128 << 20, n_map=1, n_reduce=1),
        MapReduceJob("parallel", input_bytes=128 << 20, n_map=4, n_reduce=1),
    ]
    _, results = run_mapreduce_jobs(
        jobs=jobs, seed=3, spec=MapReduceSpec(workers=4)
    )
    by_name = {r.job.name: r.execution_time for r in results}
    assert by_name["parallel"] < by_name["serial"]


def test_mapreduce_job_validation():
    with pytest.raises(ValueError):
        MapReduceJob("bad", input_bytes=0, n_map=1, n_reduce=1)
    with pytest.raises(ValueError):
        MapReduceSpec(workers=0)


def test_mapreduce_task_classes():
    jobs = [MapReduceJob("j", input_bytes=32 << 20, n_map=3, n_reduce=2)]
    traces, _ = run_mapreduce_jobs(jobs=jobs, seed=6)
    grouped = traces.requests_by_class()
    assert len(grouped["map"]) == 3
    assert len(grouped["reduce"]) == 2


def test_mapreduce_default_jobs_drawn_from_named_substream():
    # Regression: default jobs used to come from a raw
    # np.random.default_rng(seed), bypassing the RandomStreams
    # invariant.  They must be exactly the draws of the
    # "workload/jobs" substream.
    from repro.datacenter import default_mapreduce_jobs
    from repro.simulation import RandomStreams

    _, results = run_mapreduce_jobs(seed=17)
    expected = default_mapreduce_jobs(RandomStreams(17).get("workload/jobs"))
    assert [r.job.name for r in results] == [j.name for j in expected]
    assert [r.job.input_bytes for r in results] == [j.input_bytes for j in expected]
    assert [r.job.n_map for r in results] == [j.n_map for j in expected]
    assert [r.job.n_reduce for r in results] == [j.n_reduce for j in expected]


def test_mapreduce_default_jobs_reproducible_per_seed():
    _, a = run_mapreduce_jobs(seed=17)
    _, b = run_mapreduce_jobs(seed=17)
    _, c = run_mapreduce_jobs(seed=18)
    assert [r.job.input_bytes for r in a] == [r.job.input_bytes for r in b]
    assert [r.job.input_bytes for r in a] != [r.job.input_bytes for r in c]
