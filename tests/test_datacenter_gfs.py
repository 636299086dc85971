"""Integration tests for the GFS application simulation."""

import numpy as np
import pytest

from repro.core import stage_sequences
from repro.datacenter import (
    GfsCluster,
    GfsRequest,
    GfsSpec,
    MachineSpec,
    run_gfs_workload,
)
from repro.datacenter.devices import CpuSpec
from repro.simulation import Environment, RandomStreams
from repro.tracing import READ, WRITE, Tracer, source_columns
from repro.workloads import table2_mix


def _single_request(op=READ, size=65536, spec=None, seed=0):
    env = Environment()
    tracer = Tracer()
    cluster = GfsCluster(env, spec or GfsSpec(), RandomStreams(seed), tracer)
    request = GfsRequest(
        request_class="t", op=op, size_bytes=size, lbn=1000, memory_bytes=16384
    )
    p = env.process(cluster.client_request(request))
    record = env.run(p)
    return record, tracer.traces, env


def test_read_request_completes_with_all_subsystems():
    record, traces, _ = _single_request()
    assert record.latency > 0
    assert len(traces.storage) == 1
    assert len(traces.memory) == 1
    assert len(traces.cpu) == 2  # lookup + aggregate
    assert len(traces.network) == 2  # rx + tx


def test_read_carries_data_on_tx():
    _, traces, _ = _single_request(op=READ, size=65536)
    tx = [r for r in traces.network if r.direction == "tx"][0]
    rx = [r for r in traces.network if r.direction == "rx"][0]
    assert tx.size_bytes == 65536
    assert rx.size_bytes < 1024  # header only


def test_write_carries_data_on_rx():
    _, traces, _ = _single_request(op=WRITE, size=1 << 20)
    rx = [r for r in traces.network if r.direction == "rx"][0]
    tx = [r for r in traces.network if r.direction == "tx"][0]
    assert rx.size_bytes == 1 << 20
    assert tx.size_bytes < 1024


def test_large_io_split_at_max_io():
    spec = GfsSpec(max_io_bytes=1 << 20)
    _, traces, _ = _single_request(op=READ, size=4 << 20, spec=spec)
    assert len(traces.storage) == 4
    assert sum(r.size_bytes for r in traces.storage) == 4 << 20


def test_span_tree_matches_figure_1():
    _, traces, _ = _single_request(seed=123)
    [(_, stages)] = stage_sequences(source_columns(traces, "spans"))
    sequence = [s for s in stages if s != "master_lookup"]
    assert sequence == [
        "network_rx",
        "cpu_lookup",
        "memory",
        "storage",
        "cpu_aggregate",
        "network_tx",
    ]


def test_replicated_write_touches_multiple_chunkservers():
    env = Environment()
    tracer = Tracer()
    spec = GfsSpec(chunkservers=3, replication=3, master_cache_hit=1.0)
    cluster = GfsCluster(env, spec, RandomStreams(1), tracer)
    request = GfsRequest(
        request_class="w", op=WRITE, size_bytes=65536, lbn=0, memory_bytes=4096
    )
    p = env.process(cluster.client_request(request))
    env.run(p)
    servers = {r.server for r in tracer.traces.storage}
    assert len(servers) == 3


def test_replication_validation():
    with pytest.raises(ValueError):
        GfsCluster(
            Environment(),
            GfsSpec(chunkservers=1, replication=2),
            RandomStreams(0),
            Tracer(),
        )


@pytest.mark.parametrize("max_io_bytes", [0, -1])
def test_nonpositive_max_io_rejected(max_io_bytes):
    # A non-positive split size never shrinks the remaining I/O: the
    # chunkserver's storage loop would spin forever instead of failing.
    with pytest.raises(ValueError, match="max_io_bytes"):
        GfsCluster(
            Environment(),
            GfsSpec(max_io_bytes=max_io_bytes),
            RandomStreams(0),
            Tracer(),
        )
    with pytest.raises(ValueError, match="max_io_bytes"):
        run_gfs_workload(5, gfs_spec=GfsSpec(max_io_bytes=max_io_bytes))


def test_placement_is_deterministic():
    env = Environment()
    cluster = GfsCluster(
        env, GfsSpec(chunkservers=4), RandomStreams(0), Tracer()
    )
    assert cluster.place(100) == cluster.place(100)
    assert 0 <= cluster.place(123456789) < 4


def test_request_validation():
    with pytest.raises(ValueError):
        GfsRequest("x", "delete", 1024, 0, 512)
    with pytest.raises(ValueError):
        GfsRequest("x", READ, 0, 0, 512)


def test_cpu_work_scales_latency_on_wimpy_cores():
    fast_spec = MachineSpec(cpu=CpuSpec(speed_factor=1.0, work_jitter=0.0))
    slow_spec = MachineSpec(cpu=CpuSpec(speed_factor=0.25, work_jitter=0.0))

    def run_with(machine_spec):
        env = Environment()
        tracer = Tracer()
        cluster = GfsCluster(
            env, GfsSpec(master_cache_hit=1.0), RandomStreams(9), tracer,
            machine_spec,
        )
        request = GfsRequest(
            request_class="r", op=READ, size_bytes=65536, lbn=0,
            memory_bytes=16384,
        )
        return env.run(env.process(cluster.client_request(request)))

    assert run_with(slow_spec).cpu_busy_seconds > run_with(
        fast_spec
    ).cpu_busy_seconds


def test_run_gfs_workload_end_to_end():
    run = run_gfs_workload(n_requests=200, seed=11)
    assert len(run.traces.completed_requests()) == 200
    assert run.throughput() > 0
    classes = set(run.traces.requests_by_class())
    assert classes == {"read_64K", "write_4M"}


def test_run_gfs_workload_deterministic():
    a = run_gfs_workload(n_requests=50, seed=5)
    b = run_gfs_workload(n_requests=50, seed=5)
    lat_a = [r.latency for r in a.traces.completed_requests()]
    lat_b = [r.latency for r in b.traces.completed_requests()]
    assert lat_a == lat_b


def test_run_gfs_workload_seed_changes_outcome():
    a = run_gfs_workload(n_requests=50, seed=5)
    b = run_gfs_workload(n_requests=50, seed=6)
    lat_a = [r.latency for r in a.traces.completed_requests()]
    lat_b = [r.latency for r in b.traces.completed_requests()]
    assert lat_a != lat_b


def test_table2_shape_read_faster_but_lower_util_than_write():
    run = run_gfs_workload(n_requests=1200, seed=2)
    grouped = run.traces.requests_by_class()
    read_lat = np.median([r.latency for r in grouped["read_64K"]])
    write_lat = np.median([r.latency for r in grouped["write_4M"]])
    read_util = np.median([r.cpu_utilization for r in grouped["read_64K"]])
    write_util = np.median([r.cpu_utilization for r in grouped["write_4M"]])
    # The paper's Table 2 shape: the 4 MiB write has both higher latency
    # and higher CPU utilization than the 64 KiB read.
    assert write_lat > read_lat
    assert write_util > read_util


def test_throughput_counts_only_post_settle_completions():
    # Regression: with settle_time > 0, throughput() used to divide ALL
    # completions by the settle-adjusted duration, overstating it.
    run = run_gfs_workload(n_requests=300, seed=9)
    settle = run.env.now / 2.0
    settled = run_gfs_workload(n_requests=300, seed=9, settle_time=settle)
    assert settled.env.now == run.env.now  # same simulation, same seed

    post_settle = sum(
        1
        for r in settled.traces.completed_requests()
        if r.completion_time > settle
    )
    expected = post_settle / (settled.env.now - settle)
    assert settled.throughput() == pytest.approx(expected)
    # The buggy accounting would have divided all 300 completions by the
    # shortened window, a strictly larger number.
    overstated = len(settled.traces.completed_requests()) / (
        settled.env.now - settle
    )
    assert settled.throughput() < overstated


def test_throughput_unchanged_without_settle_time():
    run = run_gfs_workload(n_requests=200, seed=11)
    completed = len(run.traces.completed_requests())
    assert run.throughput() == pytest.approx(completed / run.env.now)
