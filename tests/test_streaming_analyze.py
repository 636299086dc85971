"""Tests for the streaming analysis engine and the TraceSource API.

Pins down the streaming contract: accumulators merge associatively;
the sharded one-pass profile/validation equals the batch oracles of
``tests/oracles.py`` on the materialized merge for 1, 2 and 4 workers;
``compare_workloads`` equals the Table-2 record walk; per-class
validation matches a manual per-class split; `repro characterize --in`
and `repro validate --per-class --in` never construct the merged
``TraceSet`` (the stitch path is monkeypatched to explode); and the
source-taking entry points require their trace source.
"""

import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core import (
    KoozaTrainer,
    ReplayHarness,
    WorkloadFeatureStats,
    WorkloadProfileBuilder,
    compare_workloads,
    extract_request_features,
    split_traces_by_class,
)
from repro.datacenter import (
    FleetSpec,
    collect_fleet_to_store,
    run_gfs_workload,
    run_webapp_workload,
)
from repro.stats import (
    CategoricalCounter,
    CoMomentsAccumulator,
    ExactQuantiles,
    MomentsAccumulator,
    ReservoirQuantile,
    SeekStats,
    WindowedCounter,
    cross_correlation,
)
from repro.store import (
    ShardStore,
    analyze_source,
    characterize_source,
    class_rng,
    class_seed,
    train_per_class,
    validate_per_class,
)
from repro.tracing import (
    FlatTraceDump,
    TraceSet,
    TraceSource,
    as_trace_set,
    load_traces,
    save_traces,
    source_columns,
)
from repro.core.features import source_feature_columns
from repro.store.analyze import AnalysisReducer, analyze_shards, reduce_source
from repro.tracing.columnar import take_columns

from tests.oracles import (
    compare_by_walk,
    profile_from_traces,
    profile_key,
    reference_request_features,
)
from tests.test_columnar_store import _assert_state_close, restore


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("astore")
    collect_fleet_to_store(
        FleetSpec(app="gfs", replicas=3, seed=5, n_requests=80),
        directory=directory,
        workers=2,
    )
    return directory


@pytest.fixture(scope="module")
def merged(store_dir):
    return ShardStore(store_dir).merged()


# -- accumulators ------------------------------------------------------------


def test_moments_merge_matches_whole():
    rng = np.random.default_rng(0)
    values = rng.normal(5.0, 2.0, size=501)
    whole = MomentsAccumulator()
    for v in values:
        whole.add(float(v))
    left, right = MomentsAccumulator(), MomentsAccumulator()
    for v in values[:200]:
        left.add(float(v))
    for v in values[200:]:
        right.add(float(v))
    left.merge(right)
    assert left.n == whole.n == 501
    assert left.mean == pytest.approx(np.mean(values), rel=1e-12)
    assert left.variance() == pytest.approx(np.var(values), rel=1e-9)
    assert whole.variance() == pytest.approx(np.var(values), rel=1e-9)
    assert (left.min, left.max) == (values.min(), values.max())


def test_comoments_correlation_matches_numpy():
    rng = np.random.default_rng(1)
    x = rng.normal(size=300)
    y = 0.6 * x + rng.normal(scale=0.5, size=300)
    halves = [CoMomentsAccumulator(), CoMomentsAccumulator()]
    for i, (a, b) in enumerate(zip(x, y)):
        halves[i % 2].add(float(a), float(b))
    halves[0].merge(halves[1])
    assert halves[0].correlation == pytest.approx(
        np.corrcoef(x, y)[0, 1], rel=1e-9
    )


def test_comoments_zero_variance_matches_cross_correlation():
    acc = CoMomentsAccumulator()
    for v in (1.0, 1.0, 1.0):
        acc.add(v, float(v * 2))
    assert acc.correlation == 0.0


def test_streaming_quantiles_approximate_exact():
    rng = np.random.default_rng(2)
    values = rng.exponential(2.0, size=4000)
    exact = ExactQuantiles()
    res = ReservoirQuantile(capacity=2048, seed=3)
    for v in values:
        exact.add(float(v))
        res.add(float(v))
    truth = exact.quantile(0.95)
    assert truth == float(np.percentile(values, 95))
    assert res.quantile(0.95) == pytest.approx(truth, rel=0.15)


def test_categorical_counter_modal_tie_is_lexicographic():
    c = CategoricalCounter()
    for key in ("write", "read", "write", "read"):
        c.add(key)
    assert c.modal() == "read"
    assert c.fraction("write") == 0.5


def test_windowed_counter_merge_and_clamp():
    a = WindowedCounter(window=0.5)
    b = WindowedCounter(window=0.5)
    for t in (0.1, 0.4, 0.6):
        a.add(t)
    for t in (0.2, 1.9):
        b.add(t)
    a.merge(b)
    series = a.series(end=1.0)
    # the 1.9 event lands past end=1.0 and clamps into the last window
    assert series.tolist() == [3.0, 2.0]
    with pytest.raises(ValueError):
        a.merge(WindowedCounter(window=0.25))


def test_seek_stats_seam_merge_matches_single_pass():
    ios = [(10, 4096), (11, 4096), (500, 8192), (502, 4096), (503, 4096)]
    whole = SeekStats()
    for lbn, size in ios:
        whole.add(lbn, size)
    left, right = SeekStats(), SeekStats()
    for lbn, size in ios[:2]:
        left.add(lbn, size)
    for lbn, size in ios[2:]:
        right.add(lbn, size)
    left.merge(right)
    assert left.n_gaps == whole.n_gaps
    assert left.n_sequential == whole.n_sequential
    assert left.sum_abs == whole.sum_abs


# -- TraceSource protocol ----------------------------------------------------


def test_trace_source_conformance(store_dir, merged, tmp_path):
    save_traces(merged, tmp_path / "flat")
    flat = FlatTraceDump(tmp_path / "flat")
    store = ShardStore(store_dir)
    for source in (merged, store, flat):
        assert isinstance(source, TraceSource)
        assert set(source.streams()) == {
            "network", "cpu", "memory", "storage", "requests", "spans",
        }
    assert store.classes() == merged.classes() == flat.classes()
    assert store.extent() == pytest.approx(merged.extent())
    # stitched iteration yields the merged records
    assert [r.to_dict() for r in store.iter_records("requests")] == [
        r.to_dict() for r in merged.iter_records("requests")
    ]


def test_load_traces_auto_detects_layouts(store_dir, merged, tmp_path):
    assert isinstance(load_traces(store_dir), ShardStore)
    save_traces(merged, tmp_path / "flat")
    assert isinstance(load_traces(tmp_path / "flat"), TraceSet)
    round_tripped = as_trace_set(load_traces(store_dir))
    assert [r.to_dict() for r in round_tripped.requests] == [
        r.to_dict() for r in merged.requests
    ]


def test_flat_trace_dump_requires_stream_files(tmp_path):
    with pytest.raises(FileNotFoundError):
        FlatTraceDump(tmp_path)


# -- streaming == batch ------------------------------------------------------


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_streaming_profile_equals_batch(store_dir, merged, workers):
    batch = profile_from_traces(merged)
    streamed = characterize_source(ShardStore(store_dir), workers=workers)
    assert streamed == batch
    assert "storage:" in streamed.describe()


def _draw_parts(data, n: int, n_parts: int) -> list[np.ndarray]:
    """Row indices of ``n_parts`` contiguous, in-order parts of ``n``
    rows, cut at arbitrary (possibly coinciding) points."""
    cuts = sorted(data.draw(
        st.lists(st.integers(0, n), min_size=n_parts - 1, max_size=n_parts - 1),
        label="cuts",
    ))
    bounds = [0, *cuts, n]
    return [np.arange(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _merge_in_order(parts, data):
    """Merge ``parts`` in shard order, sending the running merge through
    a JSON ``state()`` round trip after a drawn number of parts."""
    at = data.draw(st.integers(0, len(parts) - 1), label="round trip at")
    folded = parts[0]
    for i, part in enumerate(parts):
        if i:
            folded.merge(part)
        if i == at:
            folded = restore(folded)
    return folded


@pytest.fixture(scope="module")
def profile_columns(merged):
    return {stream: source_columns(merged, stream) for stream in merged.streams()}


@pytest.fixture(scope="module")
def whole_profile(merged, profile_columns):
    whole = WorkloadProfileBuilder()
    for stream, cols in profile_columns.items():
        whole.update_batch(stream, cols)
    assert whole.profile() == profile_from_traces(merged)
    return whole.profile()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_streaming_profile_builder_merge_associative(
    profile_columns, whole_profile, data
):
    # The merge contract covers contiguous, in-order partitions of each
    # stream (what shards are) — seam-aware accumulators like SeekStats
    # depend on record adjacency.
    n_parts = data.draw(st.integers(1, 8), label="parts")
    parts = [WorkloadProfileBuilder() for _ in range(n_parts)]
    for stream, cols in profile_columns.items():
        for part, rows in zip(parts, _draw_parts(data, cols["n"], n_parts)):
            part.update_batch(stream, take_columns(cols, rows))
    folded = asdict(_merge_in_order(parts, data).profile())
    whole = asdict(whole_profile)
    # CPU busy time in a window that straddles a seam is a float sum
    # taken in merge order: 1e-9 relative, every other field exact.
    for key in ("mean_utilization", "peak_utilization"):
        assert folded["cpu"].pop(key) == pytest.approx(
            whole["cpu"].pop(key), rel=1e-9
        )
    assert folded == whole


def _without_moments(state):
    """``state`` with every (co-)moments accumulator blanked out: the
    part of a WorkloadFeatureStats state that merges exactly."""
    if isinstance(state, dict):
        if state.get("kind") in ("moments", "co-moments"):
            return None
        return {key: _without_moments(value) for key, value in state.items()}
    if isinstance(state, list):
        return [_without_moments(value) for value in state]
    return state


@pytest.fixture(scope="module")
def feature_columns(merged):
    return source_feature_columns(merged)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_workload_feature_stats_merge_associative(feature_columns, data):
    # Latency buffers, op counts and n merge exactly; the Chan-merged
    # moments and co-moments within 1e-9 relative.
    whole = WorkloadFeatureStats.from_feature_columns(feature_columns).state()
    n_parts = data.draw(st.integers(1, 8), label="parts")
    parts = [
        WorkloadFeatureStats.from_feature_columns(
            take_columns(feature_columns, rows)
        )
        for rows in _draw_parts(data, feature_columns["n"], n_parts)
    ]
    folded = _merge_in_order(parts, data).state()
    assert json.dumps(_without_moments(folded), sort_keys=True) == json.dumps(
        _without_moments(whole), sort_keys=True
    )
    _assert_state_close(folded, whole)


@pytest.fixture(scope="module")
def windowed_store(tmp_path_factory):
    """Nine shards: three replicas, each split into three windows."""
    directory = tmp_path_factory.mktemp("wstore")
    collect_fleet_to_store(
        FleetSpec(app="gfs", replicas=3, seed=6, n_requests=60),
        directory=directory,
        windows=3,
    )
    return directory


@pytest.fixture(scope="module")
def shard_triples(windowed_store):
    """Per-shard ``(builder, features, per_class)`` states, in shard order."""
    store = ShardStore(windowed_store)
    shards = [
        (manifest, store.shard_dir(manifest), offsets)
        for manifest, offsets in zip(store.manifests, store.offsets())
    ]
    triples, _, _ = analyze_shards(
        store.directory, shards, AnalysisReducer().params
    )
    return [
        (builder.state(), features.state(), {c: s.state() for c, s in per_class.items()})
        for builder, features, per_class in triples
    ]


@pytest.fixture(scope="module")
def one_shot_reduce(windowed_store):
    reducer, _, _ = reduce_source(str(windowed_store))
    return reducer


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_analysis_reducer_split_folds_equal_one_shot(
    shard_triples, one_shot_reduce, data
):
    # The shard triples, cut into 1-8 contiguous parts, each part folded
    # by its own reducer, and the parts folded in order into one reducer
    # that takes a JSON state() round trip after a drawn part.
    whole = one_shot_reduce
    n_parts = data.draw(st.integers(1, 8), label="parts")
    parts = []
    for rows in _draw_parts(data, len(shard_triples), n_parts):
        part = AnalysisReducer()
        for row in rows:
            builder, features, per_class = shard_triples[row]
            part.fold(
                WorkloadProfileBuilder.from_state(builder),
                WorkloadFeatureStats.from_state(features),
                {c: WorkloadFeatureStats.from_state(s) for c, s in per_class.items()},
            )
        parts.append(part)
    at = data.draw(st.integers(0, n_parts - 1), label="round trip at")
    folded = AnalysisReducer()
    for i, part in enumerate(parts):
        folded.fold(part.builder, part.features, part.per_class)
        if i == at:
            folded = restore(folded)
    assert folded.builder.profile().describe() == whole.builder.profile().describe()
    assert sorted(folded.per_class) == sorted(whole.per_class)
    pairs = [(folded.features, whole.features)] + [
        (folded.per_class[c], whole.per_class[c]) for c in whole.per_class
    ]
    for got, want in pairs:
        assert json.dumps(_without_moments(got.state()), sort_keys=True) == json.dumps(
            _without_moments(want.state()), sort_keys=True
        )
        _assert_state_close(got.state(), want.state())


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_streaming_validation_stats_equal_batch(store_dir, merged, workers):
    analysis = analyze_source(ShardStore(store_dir), workers=workers)
    features = reference_request_features(merged)
    by_profile = {}
    for f in features:
        by_profile.setdefault(profile_key(f), []).append(f)
    assert analysis.features.n == len(features)
    assert set(analysis.features.profiles) == set(by_profile)
    for key, group in by_profile.items():
        s = analysis.features.profiles[key]
        assert s.n == len(group)
        assert s.network_bytes.mean == pytest.approx(
            np.mean([f.network_bytes for f in group]), rel=1e-9
        )
        assert s.latency.quantile(0.95) == np.percentile(
            [f.latency for f in group], 95
        )
    assert analysis.features.joint.correlation == pytest.approx(
        cross_correlation(
            [f.network_bytes for f in features],
            [f.storage_bytes for f in features],
        ),
        rel=1e-9,
    )


@pytest.fixture(scope="module")
def replayed_runs(merged):
    """(original, replayed synthetic) pairs on a gfs and a webapp run."""
    runs = {"gfs": merged, "webapp": run_webapp_workload(n_requests=300, seed=6)}
    pairs = {}
    for app, original in runs.items():
        model = KoozaTrainer().fit(original)
        synthetic = model.synthesize(150, np.random.default_rng(8))
        pairs[app] = (original, ReplayHarness(seed=9).replay(synthetic))
    return pairs


@pytest.mark.parametrize("app", ("gfs", "webapp"))
def test_compare_workloads_matches_record_walk(replayed_runs, app):
    original, replayed = replayed_runs[app]
    report = compare_workloads(original, replayed)
    walk = compare_by_walk(original, replayed)
    assert report.to_table() == walk.to_table()
    assert (report.n_original, report.n_synthetic) == (
        walk.n_original,
        walk.n_synthetic,
    )
    assert report.latency_ks == walk.latency_ks
    assert report.latency_ks_pvalue == walk.latency_ks_pvalue
    assert report.joint_correlation_original == pytest.approx(
        walk.joint_correlation_original, rel=1e-9
    )
    assert report.joint_correlation_synthetic == pytest.approx(
        walk.joint_correlation_synthetic, rel=1e-9
    )
    assert len(report.profiles) == len(walk.profiles) > 0
    for got, want in zip(report.profiles, walk.profiles):
        assert got.profile == want.profile
        assert (got.n_original, got.n_synthetic) == (
            want.n_original,
            want.n_synthetic,
        )
        assert got.latency_p95 == want.latency_p95
        assert got.memory_op_match == want.memory_op_match
        assert got.storage_op_match == want.storage_op_match
        for name in (
            "network_bytes",
            "cpu_utilization",
            "memory_bytes",
            "storage_bytes",
            "latency",
        ):
            assert getattr(got, name) == pytest.approx(
                getattr(want, name), rel=1e-9
            ), name


# -- per-class validation ----------------------------------------------------


def test_per_class_validation_matches_manual_split(store_dir, merged):
    store = ShardStore(store_dir)
    fit = train_per_class(store, workers=2)
    result = validate_per_class(store, models=fit.models, seed=42, workers=2)
    assert result.n_validated == len(fit.models) > 0
    assert result.mix is not None

    by_class = split_traces_by_class(merged)
    for report in result.classes:
        cls = report.request_class
        assert report.report is not None, report.error
        # replay the exact same synthesis manually over the class split
        synthetic = fit.models[cls].synthesize(
            report.n_original, class_rng(42, cls)
        )
        replayed = ReplayHarness(seed=class_seed(43, cls)).replay(synthetic)
        manual = compare_workloads(by_class[cls], replayed)
        assert report.report.latency_ks == manual.latency_ks
        assert report.report.n_original == manual.n_original
        assert report.report.worst_feature_deviation_pct == pytest.approx(
            manual.worst_feature_deviation_pct, rel=1e-9, abs=1e-12
        )
        assert report.report.worst_latency_deviation_pct == pytest.approx(
            manual.worst_latency_deviation_pct, rel=1e-9
        )
    # the mix compares the union of synthetics to the whole original
    assert result.mix.n_original == sum(r.n_original for r in result.classes)
    assert result.mix.n_synthetic == sum(r.n_synthetic for r in result.classes)


def test_per_class_validation_reports_missing_models(store_dir):
    result = validate_per_class(ShardStore(store_dir), models={}, seed=1)
    assert result.n_validated == 0
    assert all(c.error == "no model for class" for c in result.classes)
    assert result.mix is None
    with pytest.raises(ValueError):
        result.worst_feature_deviation_pct


# -- the stitch path stays cold ----------------------------------------------


def test_characterize_and_validate_never_merge(store_dir, monkeypatch, capsys):
    def forbid(self, *args, **kwargs):  # pragma: no cover - should not run
        raise AssertionError("merged TraceSet must not be constructed")

    import repro.tracing.source as source_module

    monkeypatch.setattr(ShardStore, "merged", forbid)
    monkeypatch.setattr(source_module, "as_trace_set", forbid)
    assert main(["characterize", "--in", str(store_dir)]) == 0
    assert main(
        ["validate", "--per-class", "--in", str(store_dir),
         "--feature-limit", "5.0"]
    ) == 0
    out = capsys.readouterr().out
    assert "storage:" in out
    assert "<mix>" in out


# -- removed keyword aliases -------------------------------------------------
# The pre-0.3 keywords no longer warn: they are rejected like any unknown
# keyword, and the positional source still works.


def test_fit_traces_keyword_warns(merged):
    with pytest.raises(TypeError):
        KoozaTrainer().fit(traces=merged)
    assert KoozaTrainer().fit(merged).n_training_requests > 0


def test_train_per_class_directory_keyword_warns(store_dir):
    with pytest.raises(TypeError):
        train_per_class(directory=store_dir, workers=1)
    assert train_per_class(store_dir, workers=1).models


def test_entry_points_require_a_trace_source():
    with pytest.raises(TypeError):
        KoozaTrainer().fit()
    with pytest.raises(TypeError):
        extract_request_features()
    with pytest.raises(TypeError):
        train_per_class()


def test_train_per_class_accepts_flat_sources(merged):
    fit = train_per_class(merged, workers=1)
    reference = train_per_class_models_reference(merged)
    assert fit.models.keys() == reference.keys()


def train_per_class_models_reference(traces):
    return {
        cls: KoozaTrainer().fit(part)
        for cls, part in split_traces_by_class(traces).items()
        if len(part.completed_requests()) >= 16
    }


# -- CLI uniform --in --------------------------------------------------------


def test_cli_rejects_both_input_forms(store_dir):
    with pytest.raises(SystemExit):
        main(["characterize", str(store_dir), "--in", str(store_dir)])
    with pytest.raises(SystemExit):
        main(["characterize"])


def test_cli_empty_store_message(tmp_path, capsys):
    save_traces(TraceSet(), tmp_path / "flat")
    with pytest.raises(SystemExit, match="empty"):
        main(["characterize", "--in", str(tmp_path / "flat")])


def _write_empty_dumps(root):
    save_traces(TraceSet(), root / "header-only")
    save_traces(TraceSet(), root / "columnar", codec="columnar")
    (root / "blank-lines").mkdir()
    (root / "blank-lines" / "requests.jsonl").write_text("\n \n")
    (root / "empty-dir").mkdir()
    return ["header-only", "columnar", "blank-lines", "empty-dir", "missing"]


def test_cli_empty_flat_dumps_all_say_empty(tmp_path):
    for name in _write_empty_dumps(tmp_path):
        path = tmp_path / name
        for command in (
            ["characterize"],
            ["train", "--model", str(tmp_path / "model.json")],
            ["validate", "--per-class"],
        ):
            with pytest.raises(SystemExit) as raised:
                main([*command, "--in", str(path)])
            assert str(raised.value) == (
                f"trace dump at {path} is empty (0 records); "
                "collect traces into it first (repro collect --out)"
            )


def test_flat_dump_has_records_without_decoding(merged, tmp_path, monkeypatch):
    _write_empty_dumps(tmp_path)
    for name in ("header-only", "columnar", "blank-lines"):
        assert not FlatTraceDump(tmp_path / name).has_records()
    one = TraceSet()
    one.storage.append(merged.storage[0])
    save_traces(one, tmp_path / "one")
    save_traces(one, tmp_path / "one-columnar", codec="columnar")
    (tmp_path / "v1").mkdir()
    (tmp_path / "v1" / "storage.jsonl").write_text(
        (tmp_path / "one" / "storage.jsonl").read_text().split("\n", 1)[1]
    )
    monkeypatch.setattr(
        "repro.tracing.store.iter_record_batches",
        lambda *a, **k: pytest.fail("has_records decoded a record"),
    )
    for name in ("one", "one-columnar", "v1"):
        assert FlatTraceDump(tmp_path / name).has_records()


@pytest.mark.parametrize("codec", ["jsonl", "columnar"])
def test_cli_flat_dump_characterizes_through_columns(
    store_dir, merged, tmp_path, monkeypatch, capsys, codec
):
    """A flat dump opens lazily and characterizes like its store,
    without building a record object."""
    save_traces(merged, tmp_path / "flat", codec=codec)
    assert FlatTraceDump(tmp_path / "flat").classes() == merged.classes()
    assert main(["characterize", "--in", str(store_dir), "--no-cache"]) == 0
    expected = capsys.readouterr().out

    def no_records(*args, **kwargs):
        raise AssertionError("flat dump decoded through the record path")

    monkeypatch.setattr("repro.tracing.store.iter_record_batches", no_records)
    monkeypatch.setattr("repro.tracing.columnar.records_from_columns", no_records)
    assert main(["characterize", "--in", str(tmp_path / "flat")]) == 0
    assert capsys.readouterr().out == expected


def test_cli_describe_store_directory(store_dir, capsys):
    assert main(["describe", str(store_dir)]) == 0
    out = capsys.readouterr().out
    assert "classes:" in out


def test_cli_validate_store_aggregate(store_dir):
    assert main(
        ["validate", "--in", str(store_dir), "--workers", "2",
         "--feature-limit", "5.0"]
    ) == 0
