"""Tests for MultiServerKooza, anomaly detection and the profiler."""

import numpy as np
import pytest

from repro.core import MultiServerKooza, split_traces_by_server
from repro.datacenter import (
    GfsCluster,
    GfsSpec,
    MachineSpec,
    run_gfs_workload,
)
from repro.datacenter.devices import DiskSpec
from repro.depth import AnomalyDetector
from repro.simulation import Environment, RandomStreams
from repro.queueing import PoissonArrivals
from repro.tracing import ClusterProfiler, Tracer, TraceSet
from repro.workloads import OpenLoopClient, table2_mix


@pytest.fixture(scope="module")
def multi_run():
    return run_gfs_workload(
        n_requests=1600,
        seed=71,
        arrival_rate=50.0,
        gfs_spec=GfsSpec(chunkservers=2),
    )


# -- split + MultiServerKooza --------------------------------------------


def test_split_covers_all_requests(multi_run):
    parts = split_traces_by_server(multi_run.traces)
    assert set(parts) == {"chunkserver-0", "chunkserver-1"}
    total = sum(len(p.requests) for p in parts.values())
    assert total == len(multi_run.traces.requests)


def test_split_keeps_streams_consistent(multi_run):
    parts = split_traces_by_server(multi_run.traces)
    for part in parts.values():
        request_ids = {r.request_id for r in part.requests}
        assert {r.request_id for r in part.storage} <= request_ids
        assert {s.trace_id for s in part.spans} <= request_ids


def test_multi_server_one_model_per_server(multi_run):
    msk = MultiServerKooza().fit(multi_run.traces)
    assert msk.n_instances == 2
    assert not msk.skipped


def test_multi_server_validation_fidelity(multi_run):
    msk = MultiServerKooza().fit(multi_run.traces)
    reports = msk.validate(multi_run.traces, np.random.default_rng(3))
    assert set(reports) == set(msk.models)
    for report in reports.values():
        assert report.worst_feature_deviation_pct < 1.0
        assert report.mean_latency_deviation_pct < 20.0


def test_multi_server_synthesize_shape(multi_run):
    msk = MultiServerKooza().fit(multi_run.traces)
    workloads = msk.synthesize(40, np.random.default_rng(4))
    assert all(len(reqs) == 40 for reqs in workloads.values())


def test_multi_server_min_requests_skips(multi_run):
    msk = MultiServerKooza(min_requests=10**9)
    with pytest.raises(ValueError):
        msk.fit(multi_run.traces)


def test_multi_server_unfitted_rejected():
    msk = MultiServerKooza()
    with pytest.raises(RuntimeError):
        msk.synthesize(5, np.random.default_rng(0))
    with pytest.raises(ValueError):
        msk.fit(TraceSet())


# -- anomaly detection -----------------------------------------------------


def _run_with_disk(disk_spec, n=300, seed=81):
    return run_gfs_workload(
        n_requests=n,
        seed=seed,
        machine_spec=MachineSpec(disk=disk_spec),
    ).traces


def test_anomaly_detector_clean_traces_mostly_quiet():
    traces = _run_with_disk(DiskSpec())
    detector = AnomalyDetector(threshold_sigmas=6.0).fit(traces)
    anomalies = detector.scan(traces)
    assert len(anomalies) < len(detector.judge(traces)) * 0.02


def test_anomaly_detector_flags_degraded_disk():
    healthy = _run_with_disk(DiskSpec())
    detector = AnomalyDetector(threshold_sigmas=4.0).fit(healthy)
    # A sick disk: 4x seek times and no write cache.
    degraded = _run_with_disk(
        DiskSpec(min_seek=1.6e-3, max_seek=32e-3, write_cache=False),
        seed=82,
    )
    verdicts = detector.scan(degraded)
    assert len(verdicts) > len(detector.judge(degraded)) * 0.2
    # The suspect stage is storage — the actual fault site.
    stages = [v.worst_stage for v in verdicts]
    assert stages.count("storage") > len(stages) * 0.8


def test_anomaly_detector_bottleneck_is_storage():
    traces = _run_with_disk(DiskSpec())
    detector = AnomalyDetector().fit(traces)
    assert detector.bottleneck().stage in ("storage", "network_rx")


def test_anomaly_detector_validation():
    with pytest.raises(ValueError):
        AnomalyDetector(threshold_sigmas=0.0)
    with pytest.raises(ValueError):
        AnomalyDetector().fit(TraceSet())
    with pytest.raises(RuntimeError):
        AnomalyDetector().judge(_run_with_disk(DiskSpec(), n=50))


# -- profiler ----------------------------------------------------------------


def _profiled_run(n_requests=300, interval=0.5):
    env = Environment()
    tracer = Tracer()
    streams = RandomStreams(91)
    cluster = GfsCluster(env, GfsSpec(chunkservers=2), streams, tracer)
    profiler = ClusterProfiler(
        env,
        cluster.chunkservers,
        tracer,
        interval=interval,
        horizon=60.0,
    )
    mix = table2_mix(streams.get("mix"))
    client = OpenLoopClient(
        env,
        cluster.client_request,
        mix.make_request,
        PoissonArrivals(40.0, streams.get("arrivals")),
    )
    client.start(n_requests)
    env.run()
    return profiler


def test_profiler_collects_samples_per_machine():
    profiler = _profiled_run()
    machines = {s.machine for s in profiler.samples}
    assert machines == {"chunkserver-0", "chunkserver-1"}
    series = profiler.utilization_series("chunkserver-0", "disk")
    assert series.size > 5
    assert np.all((series >= 0) & (series <= 1.0 + 1e-9))


def test_profiler_disk_hotter_than_memory():
    profiler = _profiled_run()
    disk = profiler.utilization_series("chunkserver-0", "disk").mean()
    memory = profiler.utilization_series("chunkserver-0", "memory").mean()
    assert disk > memory


def test_profiler_hottest_machines_ranking():
    profiler = _profiled_run()
    ranked = profiler.hottest_machines("disk", top=2)
    assert len(ranked) == 2
    assert ranked[0][1] >= ranked[1][1]


def test_profiler_cpu_share_by_class():
    profiler = _profiled_run()
    shares = profiler.cpu_share_by_class()
    assert set(shares) >= {"read_64K", "write_4M"}
    assert sum(shares.values()) == pytest.approx(1.0)


def test_profiler_stop_halts_sampling():
    env = Environment()
    tracer = Tracer()
    streams = RandomStreams(92)
    cluster = GfsCluster(env, GfsSpec(), streams, tracer)
    profiler = ClusterProfiler(
        env, cluster.chunkservers, tracer, interval=0.1, horizon=100.0
    )

    def stopper(env):
        yield env.timeout(1.0)
        profiler.stop()

    env.process(stopper(env))
    env.run()
    assert env.now == pytest.approx(1.0, abs=0.2)
    assert len(profiler.samples) <= 11


def test_profiler_validation():
    env = Environment()
    tracer = Tracer()
    streams = RandomStreams(93)
    cluster = GfsCluster(env, GfsSpec(), streams, tracer)
    with pytest.raises(ValueError):
        ClusterProfiler(env, [], tracer)
    with pytest.raises(ValueError):
        ClusterProfiler(env, cluster.chunkservers, tracer, interval=0.0)
    with pytest.raises(ValueError):
        ClusterProfiler(env, cluster.chunkservers, tracer, horizon=-1.0)
    profiler = ClusterProfiler(env, cluster.chunkservers, tracer, horizon=1.0)
    env.run()
    with pytest.raises(ValueError):
        profiler.utilization_series("ghost", "cpu")
