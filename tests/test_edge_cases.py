"""Edge-case tests filling remaining coverage gaps."""

import numpy as np
import pytest

from repro.core import KoozaConfig, KoozaTrainer
from repro.core.model import KoozaModel
from repro.core.synthetic import Stage, SyntheticRequest
from repro.datacenter import GfsRun, GfsSpec, run_gfs_workload
from repro.queueing import MG1, MM1
from repro.simulation import Environment, SimulationError
from repro.tracing import READ, TraceSet


def test_gfs_run_throughput_zero_duration():
    run = GfsRun(traces=TraceSet(), cluster=None, env=None, duration=0.0)
    assert run.throughput() == 0.0


def test_unfitted_kooza_model_raises():
    model = KoozaModel(KoozaConfig())
    assert not model.is_fitted()
    with pytest.raises(RuntimeError):
        model.synthesize(5, np.random.default_rng(0))
    with pytest.raises(RuntimeError):
        model.describe()
    with pytest.raises(RuntimeError):
        _ = model.n_parameters


def test_synthetic_request_empty_stage_list_properties():
    request = SyntheticRequest(arrival_time=0.0, stages=[])
    assert request.storage_stage is None
    assert request.memory_stage is None
    assert request.network_bytes == 0
    assert request.cpu_busy_seconds == 0.0


def test_stage_rejects_unknown_kind():
    with pytest.raises(ValueError):
        Stage("teleport")


def test_environment_run_until_event_value():
    env = Environment()
    gate = env.event()

    def opener(env):
        yield env.timeout(2.0)
        gate.succeed("sesame")

    env.process(opener(env))
    assert env.run(gate) == "sesame"


def test_environment_run_until_failed_event_raises():
    env = Environment()
    gate = env.event()

    def failer(env):
        yield env.timeout(1.0)
        gate.fail(RuntimeError("locked"))

    env.process(failer(env))
    with pytest.raises(RuntimeError, match="locked"):
        env.run(gate)


def test_event_value_before_trigger_raises():
    env = Environment()
    event = env.event()
    with pytest.raises(SimulationError):
        _ = event.value
    with pytest.raises(SimulationError):
        _ = event.ok


def test_event_fail_requires_exception():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")


def test_queue_metrics_zero_arrival_rate():
    metrics = MM1(0.0, 10.0)
    assert metrics.mean_wait == 0.0
    assert metrics.utilization == 0.0
    mg1 = MG1(0.0, 0.1, 1.0)
    assert mg1.mean_wait == 0.0


def test_trainer_smoothing_propagates():
    run = run_gfs_workload(n_requests=100, seed=97)
    model = KoozaTrainer(KoozaConfig(smoothing=0.5)).fit(run.traces)
    # Smoothing leaves no zero transitions in the storage chain.
    assert np.all(model.storage_chain.transition_matrix > 0)


def test_striped_read_rejects_writes():
    from repro.datacenter import GfsCluster, GfsRequest
    from repro.simulation import RandomStreams
    from repro.tracing import WRITE, Tracer

    env = Environment()
    cluster = GfsCluster(
        env, GfsSpec(chunkservers=2), RandomStreams(1), Tracer()
    )
    request = GfsRequest("w", WRITE, 1 << 20, 0, 4096)
    with pytest.raises(ValueError):
        env.run(env.process(cluster.striped_read(request, 2)))


def test_dependency_fallback_sequence_is_complete():
    # The in-breadth fallback covers every subsystem exactly once per
    # network direction.
    seq = KoozaModel.FALLBACK_SEQUENCE
    assert seq.count("network_rx") == 1
    assert seq.count("network_tx") == 1
    assert seq.count("storage") == 1
    assert seq.count("memory") == 1
    assert seq.count("cpu_lookup") == 1
    assert seq.count("cpu_aggregate") == 1
