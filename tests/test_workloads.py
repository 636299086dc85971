"""Unit tests for workload mixes and clients."""

import numpy as np
import pytest

from repro.datacenter import GfsCluster, GfsSpec
from repro.queueing import DeterministicArrivals, PoissonArrivals
from repro.simulation import Environment, RandomStreams
from repro.tracing import READ, WRITE, Tracer
from repro.workloads import (
    ClosedLoopClient,
    FileAccessPattern,
    OpenLoopClient,
    RequestClass,
    WorkloadMix,
    oltp_mix,
    table2_mix,
    web_serving_mix,
)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def test_table2_mix_matches_paper_footprints(rng):
    mix = table2_mix(rng)
    by_name = {c.name: c for c in mix.classes}
    read = by_name["read_64K"]
    write = by_name["write_4M"]
    assert (read.size_bytes, read.memory_bytes) == (64 * 1024, 16 * 1024)
    assert (write.size_bytes, write.memory_bytes) == (4 << 20, 256 * 1024)
    assert read.op == READ and write.op == WRITE
    assert read.memory_op == READ and write.memory_op == WRITE


def test_mix_respects_weights(rng):
    mix = WorkloadMix(
        [
            RequestClass("a", READ, 4096, 4096, weight=9.0),
            RequestClass("b", READ, 8192, 4096, weight=1.0),
        ],
        rng,
    )
    names = [mix.sample_class().name for _ in range(2000)]
    fraction_a = names.count("a") / len(names)
    assert 0.85 < fraction_a < 0.95


def test_mix_validation(rng):
    with pytest.raises(ValueError):
        WorkloadMix([], rng)
    with pytest.raises(ValueError):
        WorkloadMix(
            [
                RequestClass("dup", READ, 1, 1),
                RequestClass("dup", READ, 2, 1),
            ],
            rng,
        )
    with pytest.raises(ValueError):
        WorkloadMix([RequestClass("z", READ, 1, 1, weight=0.0)], rng)


def test_named_mixes_produce_requests(rng):
    for factory in (table2_mix, web_serving_mix, oltp_mix):
        mix = factory(np.random.default_rng(1))
        request = mix.make_request()
        assert request.size_bytes > 0
        assert request.memory_bytes > 0


def test_file_access_pattern_sequentiality(rng):
    rc = RequestClass("seq", READ, 65536, 4096, mean_run_length=100.0)
    pattern = FileAccessPattern(rc, np.random.default_rng(3))
    lbns = [pattern.next_lbn(65536) for _ in range(100)]
    gaps = np.diff(lbns)
    # With run length 100, almost all gaps equal the I/O size in blocks.
    assert np.mean(gaps == 16) > 0.8


def test_file_access_pattern_random_class(rng):
    rc = RequestClass("rand", READ, 4096, 4096, mean_run_length=1.0)
    pattern = FileAccessPattern(rc, np.random.default_rng(4))
    lbns = [pattern.next_lbn(4096) for _ in range(50)]
    gaps = np.abs(np.diff(lbns))
    assert np.median(gaps) > 100  # jumps dominate


def _make_cluster(seed=0):
    env = Environment()
    tracer = Tracer()
    cluster = GfsCluster(env, GfsSpec(), RandomStreams(seed), tracer)
    return env, tracer, cluster


def test_open_loop_client_issues_all_requests():
    env, tracer, cluster = _make_cluster()
    mix = table2_mix(np.random.default_rng(1))
    client = OpenLoopClient(
        env,
        cluster.client_request,
        mix.make_request,
        DeterministicArrivals(100.0),
    )
    client.start(25)
    env.run()
    assert client.issued == 25
    assert len(tracer.traces.completed_requests()) == 25


def test_open_loop_client_validation():
    env, _, cluster = _make_cluster()
    mix = table2_mix(np.random.default_rng(1))
    client = OpenLoopClient(
        env, cluster.client_request, mix.make_request, DeterministicArrivals(1.0)
    )
    with pytest.raises(ValueError):
        client.start(0)


def test_closed_loop_client_completes_per_user():
    env, tracer, cluster = _make_cluster()
    mix = oltp_mix(np.random.default_rng(2))
    client = ClosedLoopClient(
        env,
        cluster.client_request,
        mix.make_request,
        n_users=3,
        think_time_sampler=lambda rng: 0.001,
        rng=np.random.default_rng(3),
    )
    processes = client.start(requests_per_user=5)
    env.run()
    assert client.completed == 15
    assert all(not p.is_alive for p in processes)


def test_closed_loop_throughput_self_limits():
    """Closed-loop issue rate adapts: requests never overlap per user."""
    env, tracer, cluster = _make_cluster()
    mix = oltp_mix(np.random.default_rng(2))
    client = ClosedLoopClient(
        env,
        cluster.client_request,
        mix.make_request,
        n_users=1,
        think_time_sampler=lambda rng: 0.0,
        rng=np.random.default_rng(3),
    )
    client.start(requests_per_user=10)
    env.run()
    records = sorted(
        tracer.traces.completed_requests(), key=lambda r: r.arrival_time
    )
    for earlier, later in zip(records[:-1], records[1:]):
        assert later.arrival_time >= earlier.completion_time - 1e-12

