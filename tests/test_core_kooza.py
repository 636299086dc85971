"""Tests for the KOOZA model: training, generation, replay, validation.

These are the repository's primary integration tests: they exercise
the full paper pipeline (trace -> train -> synthesize -> replay ->
compare) and assert the Table 2 shape.
"""

import numpy as np
import pytest

from repro.core import (
    KoozaConfig,
    KoozaTrainer,
    ReplayHarness,
    compare_workloads,
    extract_request_features,
)
from repro.core.synthetic import Stage, SyntheticRequest
from repro.datacenter import run_gfs_workload, run_webapp_workload
from repro.tracing import READ, WRITE


@pytest.fixture(scope="module")
def gfs_run():
    return run_gfs_workload(n_requests=1200, seed=7)


@pytest.fixture(scope="module")
def kooza(gfs_run):
    return KoozaTrainer().fit(gfs_run.traces)


@pytest.fixture(scope="module")
def report(gfs_run, kooza):
    synthetic = kooza.synthesize(1200, np.random.default_rng(42))
    replayed = ReplayHarness(seed=99).replay(synthetic)
    return compare_workloads(gfs_run.traces, replayed)


def test_trainer_requires_enough_requests():
    from repro.tracing import TraceSet

    with pytest.raises(ValueError):
        KoozaTrainer().fit(TraceSet())


def test_model_is_fitted(kooza):
    assert kooza.is_fitted()
    assert kooza.n_training_requests == 1200
    assert kooza.n_parameters > 0


def test_model_network_states_cover_both_sizes(kooza):
    reps = [
        kooza.network_sizes.representative(s)
        for s in range(kooza.network_sizes.effective_bins)
    ]
    assert 64 * 1024 in reps
    assert 4 << 20 in reps


def test_dependency_queue_learned(kooza):
    assert kooza.dependency_queue.default == (
        "network_rx",
        "cpu_lookup",
        "memory",
        "storage",
        "cpu_aggregate",
        "network_tx",
    )


def test_synthesize_produces_structured_requests(kooza):
    requests = kooza.synthesize(50, np.random.default_rng(0))
    assert len(requests) == 50
    for r in requests:
        kinds = r.stage_order()
        assert kinds[0] == "network_rx"
        assert kinds[-1] == "network_tx"
        assert "storage" in kinds and "memory" in kinds
        assert r.arrival_time >= 0


def test_synthesize_arrival_times_increase(kooza):
    requests = kooza.synthesize(100, np.random.default_rng(1))
    times = [r.arrival_time for r in requests]
    assert all(b >= a for a, b in zip(times, times[1:]))


def test_synthesize_coupling_keeps_features_coherent(kooza):
    requests = kooza.synthesize(300, np.random.default_rng(2))
    for r in requests:
        storage = r.storage_stage
        memory = r.memory_stage
        if storage.op == WRITE:
            # 4 MiB writes carry 256 KiB memory writes (Table 2 row 2).
            assert storage.size_bytes == 4 << 20
            assert memory.op == WRITE
            assert memory.size_bytes == 256 * 1024
        else:
            assert storage.size_bytes == 64 * 1024
            assert memory.op == READ
            assert memory.size_bytes == 16 * 1024


def test_synthesize_validation(kooza):
    with pytest.raises(ValueError):
        kooza.synthesize(0, np.random.default_rng(0))


def test_replay_completes_all_requests(kooza):
    requests = kooza.synthesize(100, np.random.default_rng(3))
    traces = ReplayHarness(seed=5).replay(requests)
    assert len(traces.completed_requests()) == 100
    assert len(extract_request_features(traces)) == 100


def test_replay_empty_rejected():
    with pytest.raises(ValueError):
        ReplayHarness().replay([])


def test_replay_splits_large_ios():
    request = SyntheticRequest(
        arrival_time=0.0,
        stages=[Stage("storage", op=READ, size_bytes=8 << 20, lbn=0)],
    )
    traces = ReplayHarness(max_io_bytes=1 << 20).replay([request])
    assert len(traces.storage) == 8


@pytest.mark.parametrize("max_io_bytes", [0, -1])
def test_replay_rejects_nonpositive_max_io(max_io_bytes):
    # A non-positive split size never shrinks the remaining I/O: the
    # storage loop would spin forever instead of failing.
    with pytest.raises(ValueError, match="max_io_bytes"):
        ReplayHarness(max_io_bytes=max_io_bytes)


# -- Table 2 shape assertions (the headline reproduction) ---------------------


def test_table2_feature_deviation_under_one_percent(report):
    assert report.worst_feature_deviation_pct < 1.0


def test_table2_cpu_deviation_small(report):
    for p in report.profiles:
        assert p.cpu_utilization_deviation_pp < 2.0


def test_table2_latency_deviation_under_ten_percent(report):
    # Paper reports 3.7% and 6.6%; allow headroom for simulator noise.
    assert report.worst_latency_deviation_pct < 10.0


def test_table2_op_types_match_exactly(report):
    for p in report.profiles:
        assert p.memory_op_match == 1.0
        assert p.storage_op_match == 1.0


def test_table2_both_profiles_present(report):
    assert {p.profile for p in report.profiles} == {(READ, 16), (WRITE, 22)}


def test_joint_correlation_preserved(report):
    assert report.joint_correlation_error < 0.1


def test_report_table_renders(report):
    table = report.to_table()
    assert "lat dev%" in table
    assert "read@2^16" in table


# -- ablation behaviour -------------------------------------------------------


def test_uncoupled_model_breaks_joint_features(gfs_run):
    config = KoozaConfig(couple_subsystems=False)
    model = KoozaTrainer(config).fit(gfs_run.traces)
    requests = model.synthesize(400, np.random.default_rng(4))
    mismatched = 0
    for r in requests:
        storage = r.storage_stage
        memory = r.memory_stage
        coherent = (storage.op == WRITE and memory.size_bytes == 256 * 1024) or (
            storage.op == READ and memory.size_bytes == 16 * 1024
        )
        if not coherent:
            mismatched += 1
    assert mismatched > 20  # independence visibly breaks coherence


def test_no_dependency_queue_changes_stage_order(gfs_run):
    config = KoozaConfig(use_dependency_queue=False)
    model = KoozaTrainer(config).fit(gfs_run.traces)
    requests = model.synthesize(5, np.random.default_rng(5))
    for r in requests:
        assert r.stage_order() != [
            "network_rx",
            "cpu",
            "memory",
            "storage",
            "cpu",
            "network_tx",
        ]


def test_hierarchical_storage_option(gfs_run):
    config = KoozaConfig(hierarchical_storage=True)
    model = KoozaTrainer(config).fit(gfs_run.traces)
    assert model.storage_hierarchy is not None
    assert set(model.storage_hierarchy.group_chain.states) == {READ, WRITE}


def test_describe_renders_figure2_structure(kooza):
    text = kooza.describe()
    assert "[network]" in text
    assert "[cpu]" in text
    assert "[memory]" in text
    assert "[storage]" in text
    assert "DependencyQueue" in text


def test_config_validation():
    with pytest.raises(ValueError):
        KoozaConfig(network_size_bins=0)


def test_kooza_generalizes_to_webapp():
    # Moderate load: at high utilization, queueing amplifies small
    # service-time modeling errors (the paper validates one server at
    # low load; the multi-tier case is our extension, so the latency
    # bound is looser than Table 2's).
    traces = run_webapp_workload(n_requests=700, seed=3, arrival_rate=80.0)
    model = KoozaTrainer().fit(traces)
    synthetic = model.synthesize(700, np.random.default_rng(6))
    replayed = ReplayHarness(seed=8).replay(synthetic)
    report = compare_workloads(traces, replayed)
    assert report.worst_feature_deviation_pct < 1.0
    assert report.mean_latency_deviation_pct < 30.0
