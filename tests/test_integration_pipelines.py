"""Cross-module integration tests: whole pipelines under varied setups."""

import numpy as np
import pytest

from repro.cli import main
from repro.core import (
    KoozaTrainer,
    ReplayHarness,
    compare_workloads,
    extract_request_features,
    trace_walks,
)
from repro.datacenter import (
    GfsCluster,
    GfsRequest,
    GfsSpec,
    MachineSpec,
    run_gfs_workload,
)
from repro.datacenter.devices import DiskSpec, NicSpec
from repro.queueing import MMPPArrivals, PoissonArrivals
from repro.simulation import Environment, RandomStreams
from repro.stats import hill_estimator
from repro.tracing import READ, Tracer, save_traces, source_columns
from repro.workloads import ClosedLoopClient, OpenLoopClient, oltp_mix


def test_run_driver_custom_arrivals_and_sampling():
    rng = np.random.default_rng(0)
    run = run_gfs_workload(
        n_requests=300,
        seed=5,
        arrivals=MMPPArrivals([10.0, 60.0], [1.0, 0.5], rng),
        sample_every=10,
    )
    assert len(run.traces.completed_requests()) == 300
    spans = source_columns(run.traces, "spans")
    assert len(trace_walks(spans)) == 30  # 1-in-10 sampled


def test_run_driver_machine_spec_changes_latency():
    slow_nic = MachineSpec(nic=NicSpec(bandwidth=50e6))
    fast = run_gfs_workload(n_requests=200, seed=6)
    slow = run_gfs_workload(n_requests=200, seed=6, machine_spec=slow_nic)
    fast_lat = np.mean([r.latency for r in fast.traces.completed_requests()])
    slow_lat = np.mean([r.latency for r in slow.traces.completed_requests()])
    assert slow_lat > 2 * fast_lat


def test_kooza_on_closed_loop_workload():
    """The full loop works on closed-loop (think-time) traffic too."""
    env = Environment()
    tracer = Tracer()
    streams = RandomStreams(11)
    cluster = GfsCluster(env, GfsSpec(), streams, tracer)
    mix = oltp_mix(streams.get("mix"))
    client = ClosedLoopClient(
        env,
        cluster.client_request,
        mix.make_request,
        n_users=8,
        think_time_sampler=lambda rng: float(rng.exponential(0.02)),
        rng=streams.get("think"),
    )
    client.start(requests_per_user=60)
    env.run()
    model = KoozaTrainer().fit(tracer.traces)
    replayed = ReplayHarness(seed=13).replay(
        model.synthesize(480, np.random.default_rng(1))
    )
    report = compare_workloads(tracer.traces, replayed)
    assert report.worst_feature_deviation_pct < 1.0


def _heavy_tailed_reads(rng):
    """Sequential reads with SURGE's object sizes: Pareto(1.3) from
    4 KiB, capped at 8 MiB (infinite variance below the cap)."""
    position = 0

    def make_request():
        nonlocal position
        size = int(min(4096 * (1.0 + rng.pareto(1.3)), 8 << 20))
        request = GfsRequest(
            request_class="heavy_tail_read",
            op=READ,
            size_bytes=size,
            lbn=position,
            memory_bytes=max(4096, size // 4),
        )
        position += -(-size // 4096)
        return request

    return make_request


def test_kooza_on_surge_heavy_tailed_workload():
    """Continuous (heavy-tailed) sizes: quantile bins keep deviations
    moderate rather than exact — the configurable-detail trade-off."""
    env = Environment()
    tracer = Tracer()
    streams = RandomStreams(17)
    cluster = GfsCluster(env, GfsSpec(), streams, tracer)
    client = OpenLoopClient(
        env,
        cluster.client_request,
        _heavy_tailed_reads(streams.get("sizes")),
        PoissonArrivals(40.0, streams.get("arrivals")),
    )
    client.start(600)
    env.run()
    n = len(tracer.traces.completed_requests())
    assert n > 300
    model = KoozaTrainer().fit(tracer.traces)
    synthetic = model.synthesize(n, np.random.default_rng(2))
    # Heavy tail of object sizes survives generation.
    sizes = [r.network_bytes for r in synthetic]
    assert hill_estimator(sizes, tail_fraction=0.3) < 4.0
    replayed = ReplayHarness(seed=19).replay(synthetic)
    features = extract_request_features(replayed)
    orig = extract_request_features(tracer.traces)
    # Aggregate footprint within ~15% despite binning.
    assert np.mean([f.storage_bytes for f in features]) == pytest.approx(
        np.mean([f.storage_bytes for f in orig]), rel=0.15
    )


def test_replication_raises_write_cost():
    def run(replication):
        return run_gfs_workload(
            n_requests=250,
            seed=23,
            arrival_rate=15.0,
            gfs_spec=GfsSpec(chunkservers=3, replication=replication),
        )

    single = run(1)
    triple = run(3)

    def write_latency(r):
        writes = r.traces.requests_by_class()["write_4M"]
        return np.mean([w.latency for w in writes])

    assert write_latency(triple) > write_latency(single)
    assert len(triple.traces.storage) > len(single.traces.storage)


def test_master_cache_miss_adds_latency():
    hits = run_gfs_workload(
        n_requests=250, seed=29, gfs_spec=GfsSpec(master_cache_hit=1.0)
    )
    misses = run_gfs_workload(
        n_requests=250, seed=29, gfs_spec=GfsSpec(master_cache_hit=0.0)
    )
    hit_lat = np.mean([r.latency for r in hits.traces.completed_requests()])
    miss_lat = np.mean([r.latency for r in misses.traces.completed_requests()])
    assert miss_lat > hit_lat
    # Master records exist only in the miss run.
    assert not any(r.server == "master" for r in hits.traces.cpu)
    assert any(r.server == "master" for r in misses.traces.cpu)


def test_replay_multi_server_spreads_load():
    run = run_gfs_workload(n_requests=400, seed=31)
    model = KoozaTrainer().fit(run.traces)
    harness = ReplayHarness(seed=33, n_servers=3)
    traces = harness.replay(model.synthesize(300, np.random.default_rng(3)))
    servers = {r.server for r in traces.requests}
    assert servers == {"replay-0", "replay-1", "replay-2"}
    assert len(harness.machines) == 3


def test_replay_is_deterministic():
    run = run_gfs_workload(n_requests=200, seed=37)
    model = KoozaTrainer().fit(run.traces)
    synthetic = model.synthesize(150, np.random.default_rng(4))
    a = ReplayHarness(seed=41).replay(synthetic)
    b = ReplayHarness(seed=41).replay(synthetic)
    assert [r.latency for r in a.completed_requests()] == [
        r.latency for r in b.completed_requests()
    ]


def test_degraded_replay_hardware_changes_predictions():
    """§5: the same model predicts different latency on different
    storage hardware — without re-collecting traces."""
    run = run_gfs_workload(n_requests=400, seed=43)
    model = KoozaTrainer().fit(run.traces)
    synthetic = model.synthesize(300, np.random.default_rng(5))
    baseline = ReplayHarness(seed=47).replay(synthetic)
    slow_disk = ReplayHarness(
        seed=47,
        machine_spec=MachineSpec(
            disk=DiskSpec(rpm=5400, max_seek=16e-3, write_cache=False)
        ),
    ).replay(synthetic)
    base_lat = np.mean([r.latency for r in baseline.completed_requests()])
    slow_lat = np.mean([r.latency for r in slow_disk.completed_requests()])
    assert slow_lat > 1.5 * base_lat


def test_cli_validate_failure_exit_code(tmp_path):
    """A model trained on one workload fails validation against another."""
    gfs = run_gfs_workload(n_requests=300, seed=53)
    other = run_gfs_workload(
        n_requests=300,
        seed=54,
        mix_factory=lambda rng: oltp_mix(rng),
    )
    from repro.core import save_model

    model = KoozaTrainer().fit(gfs.traces)
    model_path = save_model(model, tmp_path / "gfs-model.json")
    traces_dir = save_traces(other.traces, tmp_path / "oltp-traces")
    exit_code = main(
        [
            "validate",
            str(traces_dir),
            "--model",
            str(model_path),
            "--feature-limit",
            "1.0",
        ]
    )
    assert exit_code == 1


def test_cli_collect_webapp(tmp_path):
    out = tmp_path / "web"
    assert main(
        ["collect", "--app", "webapp", "--requests", "150", "--out", str(out)]
    ) == 0
    assert (out / "requests.jsonl").exists()
