"""Tests for the power model, MediSyn and striped reads."""

import numpy as np
import pytest

from repro.datacenter import (
    GfsCluster,
    GfsRequest,
    GfsSpec,
    MachinePowerSpec,
    PowerModel,
    run_gfs_workload,
)
from repro.simulation import Environment, RandomStreams
from repro.stats import hill_estimator
from repro.tracing import READ, Tracer
from repro.workloads import MediSynSpec, MediSynWorkload


@pytest.fixture
def rng():
    return np.random.default_rng(0)


# -- power ---------------------------------------------------------------


def test_power_spec_idle_peak():
    spec = MachinePowerSpec()
    assert spec.idle_power < spec.peak_power
    assert spec.idle_power > 100.0  # servers of the era idle high


def test_power_spec_validation():
    with pytest.raises(ValueError):
        MachinePowerSpec(cpu_idle=200.0, cpu_peak=100.0)


def test_device_power_interpolates():
    model = PowerModel()
    idle = model.device_power("cpu", 0.0)
    half = model.device_power("cpu", 0.5)
    peak = model.device_power("cpu", 1.0)
    assert idle < half < peak
    assert half == pytest.approx((idle + peak) / 2)


def test_device_power_validation():
    with pytest.raises(ValueError):
        PowerModel().device_power("cpu", 1.5)


def test_energy_report_from_workload():
    run = run_gfs_workload(n_requests=300, seed=51)
    model = PowerModel()
    report = model.report(run.cluster.chunkservers[0])
    assert report.window == pytest.approx(run.env.now)
    assert (
        MachinePowerSpec().idle_power
        <= report.mean_power
        <= MachinePowerSpec().peak_power
    )
    assert report.energy_joules == pytest.approx(
        report.mean_power * report.window
    )
    assert "W" in report.describe()


def test_busier_server_draws_more_power():
    light = run_gfs_workload(n_requests=300, seed=52, arrival_rate=10.0)
    heavy = run_gfs_workload(n_requests=300, seed=52, arrival_rate=60.0)
    model = PowerModel()
    light_power = model.report(light.cluster.chunkservers[0]).mean_power
    heavy_power = model.report(heavy.cluster.chunkservers[0]).mean_power
    assert heavy_power > light_power


def test_energy_per_request():
    run = run_gfs_workload(n_requests=400, seed=53)
    model = PowerModel()
    joules = model.energy_per_request(run.cluster.chunkservers, 400)
    assert joules > 0
    with pytest.raises(ValueError):
        model.energy_per_request(run.cluster.chunkservers, 0)


# -- MediSyn -----------------------------------------------------------------


def test_medisyn_sessions_ordered_and_sized(rng):
    workload = MediSynWorkload(MediSynSpec(), rng)
    sessions = workload.sessions(500)
    assert len(sessions) == 500
    times = [s.start_time for s in sessions]
    assert times == sorted(times)
    assert all(s.bytes_streamed > 0 for s in sessions)


def test_medisyn_popularity_is_skewed(rng):
    workload = MediSynWorkload(MediSynSpec(zipf_alpha=0.9), rng)
    sessions = workload.sessions(3000)
    histogram = workload.popularity_histogram(sessions)
    top10_share = histogram[:10].sum() / histogram.sum()
    assert top10_share > 0.5  # Zipf: few objects dominate


def test_medisyn_diurnal_rate_varies(rng):
    spec = MediSynSpec(diurnal_amplitude=0.8, diurnal_period=100.0)
    workload = MediSynWorkload(spec, rng)
    sessions = workload.sessions(4000)
    times = np.array([s.start_time for s in sessions])
    # Compare arrival counts in peak vs trough quarter-periods.
    phase = (times % 100.0) / 100.0
    peak = np.sum((phase > 0.15) & (phase < 0.35))  # around sin max
    trough = np.sum((phase > 0.65) & (phase < 0.85))  # around sin min
    assert peak > 1.5 * trough


def test_medisyn_to_gfs_requests(rng):
    workload = MediSynWorkload(MediSynSpec(), rng)
    sessions = workload.sessions(50)
    pairs = workload.to_gfs_requests(sessions)
    assert len(pairs) == 50
    for t, request in pairs:
        assert request.op == READ
        assert request.size_bytes > 0


def test_medisyn_validation(rng):
    with pytest.raises(ValueError):
        MediSynSpec(n_objects=0)
    with pytest.raises(ValueError):
        MediSynSpec(diurnal_amplitude=1.0)
    with pytest.raises(ValueError):
        MediSynWorkload(MediSynSpec(), rng).sessions(0)


# -- striped reads / incast --------------------------------------------------


def _cluster(seed=1, **spec_kwargs):
    env = Environment()
    tracer = Tracer()
    spec = GfsSpec(chunkservers=8, master_cache_hit=1.0, **spec_kwargs)
    return env, tracer, GfsCluster(env, spec, RandomStreams(seed), tracer)


def test_striped_read_uses_width_servers():
    env, tracer, cluster = _cluster()
    request = GfsRequest("s", READ, 8 << 20, 0, 65536)
    record = env.run(env.process(cluster.striped_read(request, 4)))
    servers = {r.server for r in tracer.traces.storage}
    assert len(servers) == 4
    assert record.latency > 0


def test_striped_read_responses_cross_client_link():
    env, tracer, cluster = _cluster()
    request = GfsRequest("s", READ, 4 << 20, 0, 65536)
    env.run(env.process(cluster.striped_read(request, 4)))
    client_rx = [
        r for r in tracer.traces.network
        if r.server == "client" and r.direction == "rx"
    ]
    assert len(client_rx) == 4


def test_striped_read_validation():
    env, _, cluster = _cluster()
    request = GfsRequest("s", READ, 1 << 20, 0, 4096)
    with pytest.raises(ValueError):
        env.run(env.process(cluster.striped_read(request, 99)))
