"""Tests for admission control (Yaksha) and fault injection."""

import numpy as np
import pytest

from repro.datacenter import (
    DiskFault,
    FaultInjector,
    GfsCluster,
    GfsSpec,
)
from repro.datacenter.devices import DiskSpec
from repro.depth import AdmissionController, AnomalyDetector
from repro.queueing import PoissonArrivals
from repro.simulation import Environment, RandomStreams, Resource
from repro.tracing import Tracer, TraceSet
from repro.workloads import OpenLoopClient, table2_mix

DEGRADED = DiskSpec(min_seek=1.6e-3, max_seek=32e-3, write_cache=False)


# -- admission control ---------------------------------------------------


def _overloaded_station(env, service_time=0.02):
    """A single server that saturates at 50 req/s."""
    resource = Resource(env, capacity=1)

    def service():
        with resource.request() as req:
            yield req
            yield env.timeout(service_time)

    return service


def test_admission_controller_sheds_under_overload():
    env = Environment()
    rng = np.random.default_rng(0)
    service = _overloaded_station(env)
    controller = AdmissionController(
        env, target_latency=0.08, rng=rng, control_interval=0.5
    )

    def source(env):
        arrivals = PoissonArrivals(120.0, np.random.default_rng(1))
        for _ in range(3000):  # 2.4x overload
            yield env.timeout(arrivals.next_interarrival())
            env.process(controller.submit(service))

    env.process(source(env))
    env.run(until=30.0)
    controller.stop()
    env.run()
    stats = controller.stats
    assert stats.rejected > 0
    assert stats.admission_rate < 0.75  # sheds a meaningful fraction
    # The held latency is in the neighbourhood of the target, not the
    # unbounded queue growth an uncontrolled system would see.
    assert stats.mean_latency < 4 * 0.08


def test_admission_controller_admits_all_when_underloaded():
    env = Environment()
    rng = np.random.default_rng(2)
    service = _overloaded_station(env, service_time=0.005)
    controller = AdmissionController(env, target_latency=0.1, rng=rng)

    def source(env):
        arrivals = PoissonArrivals(50.0, np.random.default_rng(3))
        for _ in range(500):
            yield env.timeout(arrivals.next_interarrival())
            env.process(controller.submit(service))

    env.process(source(env))
    env.run(until=15.0)
    controller.stop()
    env.run()
    assert controller.stats.rejected == 0
    assert controller.admission_probability == pytest.approx(1.0)


def test_admission_controller_recovers_after_burst():
    env = Environment()
    rng = np.random.default_rng(4)
    service = _overloaded_station(env)
    controller = AdmissionController(
        env, target_latency=0.08, rng=rng, control_interval=0.5
    )

    def source(env):
        burst = PoissonArrivals(150.0, np.random.default_rng(5))
        calm = PoissonArrivals(20.0, np.random.default_rng(6))
        for _ in range(600):
            yield env.timeout(burst.next_interarrival())
            env.process(controller.submit(service))
        for _ in range(600):
            yield env.timeout(calm.next_interarrival())
            env.process(controller.submit(service))

    env.process(source(env))
    env.run(until=60.0)
    controller.stop()
    env.run()
    # After the calm phase the controller opens back up.
    assert controller.admission_probability > 0.8


def test_admission_controller_validation():
    env = Environment()
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        AdmissionController(env, target_latency=0.0, rng=rng)
    with pytest.raises(ValueError):
        AdmissionController(env, 0.1, rng, control_interval=0.0)
    with pytest.raises(ValueError):
        AdmissionController(env, 0.1, rng, min_admission=0.0)


# -- fault injection -----------------------------------------------------------


def _run_with_fault(fault_start=10.0, repair=None, n_requests=900):
    env = Environment()
    tracer = Tracer()
    streams = RandomStreams(7)
    cluster = GfsCluster(env, GfsSpec(), streams, tracer)
    faults = [
        DiskFault(
            machine="chunkserver-0",
            start_time=fault_start,
            degraded_spec=DEGRADED,
            repair_time=repair,
        )
    ]
    injector = FaultInjector(env, cluster.chunkservers, faults)
    mix = table2_mix(streams.get("mix"))
    client = OpenLoopClient(
        env,
        cluster.client_request,
        mix.make_request,
        PoissonArrivals(30.0, streams.get("arrivals")),
    )
    client.start(n_requests)
    env.run()
    return tracer.traces, injector


def test_fault_injector_logs_events():
    _, injector = _run_with_fault(fault_start=5.0, repair=15.0)
    events = [(round(t), what) for t, _, what in injector.log]
    assert events == [(5, "degraded"), (15, "repaired")]


def test_fault_onset_visible_in_latencies():
    traces, _ = _run_with_fault(fault_start=10.0)
    before = [
        r.latency
        for r in traces.completed_requests()
        if r.arrival_time < 9.0
    ]
    after = [
        r.latency
        for r in traces.completed_requests()
        if r.arrival_time > 11.0
    ]
    assert np.mean(after) > 1.5 * np.mean(before)


def test_detector_localizes_onset_in_time():
    traces, _ = _run_with_fault(fault_start=10.0)
    starts = {s.trace_id: s.start for s in traces.spans if s.parent_id is None}
    healthy = TraceSet(
        spans=[s for s in traces.spans if starts[s.trace_id] < 9.0]
    )
    detector = AnomalyDetector(threshold_sigmas=4.0).fit(healthy)
    flagged_times = [
        starts[v.trace_id]
        for v in detector.scan(traces)
        if v.worst_stage == "storage"
    ]
    assert flagged_times  # the incident is detected
    # Most storage anomalies occur after the fault started.
    after = sum(1 for t in flagged_times if t >= 10.0)
    assert after / len(flagged_times) > 0.9


def test_repair_restores_latency():
    traces, _ = _run_with_fault(fault_start=8.0, repair=16.0, n_requests=900)
    records = traces.completed_requests()
    during = [
        r.latency for r in records if 9.0 < r.arrival_time < 15.0
    ]
    after_repair = [
        r.latency for r in records if r.arrival_time > 17.0
    ]
    assert np.mean(after_repair) < 0.6 * np.mean(during)


def test_fault_validation():
    env = Environment()
    streams = RandomStreams(1)
    cluster = GfsCluster(env, GfsSpec(), streams, Tracer())
    with pytest.raises(ValueError):
        DiskFault("x", start_time=-1.0, degraded_spec=DEGRADED)
    with pytest.raises(ValueError):
        DiskFault("x", start_time=5.0, degraded_spec=DEGRADED, repair_time=5.0)
    with pytest.raises(ValueError):
        FaultInjector(
            env,
            cluster.chunkservers,
            [DiskFault("ghost", 1.0, DEGRADED)],
        )
