"""Tests for incremental re-analysis (PR 5).

Pins down the acceptance contract: every streaming accumulator's
``state()``/``from_state()`` snapshot is behaviorally identical to the
live object (empty, NaN/inf-bearing, and merge-after-restore cases);
snapshots from a newer schema version are rejected with ``ValueError``;
``collect`` + ``append`` produces byte-identical stream files to one
larger collection; ``compact_store`` folds round manifests into one
idempotent index; warm cache-backed analysis equals the cold run
exactly; workers are spawned only for new or invalidated shards
(proved by monkeypatching the worker entry point); editing one shard
invalidates exactly that shard; and stale-schema or corrupt cache
entries are silent misses, never crashes.
"""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

import repro.store.analyze as analyze_mod
from repro.cli import main
from repro.core import (
    WorkloadFeatureStats,
    WorkloadProfileBuilder,
    model_to_dict,
)
from repro.datacenter import FleetSpec, collect_fleet_to_store, run_gfs_workload
from repro.stats import (
    STREAMING_STATE_VERSION,
    CategoricalCounter,
    CoMomentsAccumulator,
    ExactQuantiles,
    MomentsAccumulator,
    ReservoirQuantile,
    SeekStats,
    WindowedCounter,
)
from repro.store import (
    ShardStore,
    analyze_source,
    compact_store,
    load_store_index,
    load_store_rounds,
    train_per_class,
)
from repro.tracing import source_columns

# -- accumulator snapshots ---------------------------------------------------

# Each case: (constructor, ordered add-argument tuples).  The sequences
# are ordered so the seam-aware accumulator (SeekStats) can be split
# at any point and merged back exactly; the
# moments/quantile sequences include inf and NaN to pin down that
# snapshots survive non-finite floats (JSON Infinity/NaN round-trip).
CASES = [
    (
        "moments",
        MomentsAccumulator,
        [(v,) for v in (3.0, -1.5, 0.0, float("inf"), 2.25, 7.5)],
    ),
    (
        "co-moments",
        CoMomentsAccumulator,
        [(v, 2.0 * v - 1.0) for v in (3.0, -1.5, 0.0, float("nan"), 2.25)],
    ),
    (
        "exact-quantiles",
        ExactQuantiles,
        [(v,) for v in (3.0, -1.5, 0.0, float("inf"), 2.25, 7.5)],
    ),
    (
        "reservoir-quantile",
        lambda: ReservoirQuantile(capacity=4, seed=3),
        [(float(v),) for v in range(10)],
    ),
    (
        "categorical-counter",
        CategoricalCounter,
        [(k,) for k in ("read", "write", "read", "seek", "read")],
    ),
    (
        "windowed-counter",
        lambda: WindowedCounter(0.5),
        [(t, 1.0, 0.1) for t in (0.0, 0.2, 0.9, 1.4, 3.3)],
    ),
    (
        "seek-stats",
        SeekStats,
        [(lbn, size) for lbn, size in ((0, 4096), (1, 8192), (100, 512), (3, 4096))],
    ),
]

IDS = [case[0] for case in CASES]


def snap(acc) -> str:
    """Canonical snapshot text: NaN-safe state comparison."""
    return json.dumps(acc.state(), sort_keys=True)


def restore(acc):
    """JSON round-trip through ``state()``/``from_state()``."""
    return type(acc).from_state(json.loads(snap(acc)))


@pytest.mark.parametrize("name,make,samples", CASES, ids=IDS)
def test_state_roundtrip_empty(name, make, samples):
    acc = make()
    assert snap(restore(acc)) == snap(acc)


@pytest.mark.parametrize("name,make,samples", CASES, ids=IDS)
def test_state_roundtrip_is_behaviorally_identical(name, make, samples):
    acc = make()
    for args in samples[:-2]:
        acc.add(*args)
    restored = restore(acc)
    assert snap(restored) == snap(acc)
    # Snapshot/restore must be invisible to future adds: feeding both
    # the same continuation (including the reservoir's RNG draws)
    # yields the same state again.
    for args in samples[-2:]:
        acc.add(*args)
        restored.add(*args)
    assert snap(restored) == snap(acc)


@pytest.mark.parametrize("name,make,samples", CASES, ids=IDS)
def test_merge_after_restore_matches_merge_before(name, make, samples):
    left, right = make(), make()
    for args in samples[:3]:
        left.add(*args)
    for args in samples[3:]:
        right.add(*args)
    reference = make()
    for args in samples[:3]:
        reference.add(*args)
    tail = make()
    for args in samples[3:]:
        tail.add(*args)
    reference.merge(tail)
    merged = restore(left).merge(restore(right))
    assert snap(merged) == snap(reference)


@pytest.mark.parametrize("name,make,samples", CASES, ids=IDS)
def test_newer_schema_version_is_rejected(name, make, samples):
    acc = make()
    for args in samples:
        acc.add(*args)
    state = acc.state()
    state["version"] = STREAMING_STATE_VERSION + 1
    with pytest.raises(ValueError, match="version"):
        type(acc).from_state(state)
    state["version"] = STREAMING_STATE_VERSION
    state["kind"] = "definitely-not-this"
    with pytest.raises(ValueError, match="state"):
        type(acc).from_state(state)


def test_exact_quantiles_degrades_to_reservoir():
    acc = ExactQuantiles(max_values=8)
    with pytest.warns(RuntimeWarning, match="max_values"):
        for v in range(20):
            acc.add(float(v))
    assert acc.degraded
    # Counts and means stay exact after degradation; quantiles become
    # a uniform-sample estimate but remain in range.
    assert acc.n == 20
    assert acc.mean == pytest.approx(float(np.mean(np.arange(20.0))))
    assert 0.0 <= acc.quantile(0.5) <= 19.0
    assert len(acc.array()) == 8
    # The warning fires once per accumulator, not per add.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        acc.add(99.0)
    # Degraded state snapshots round-trip, RNG stream included.
    restored = restore(acc)
    assert restored.degraded
    acc.add(-3.5)
    restored.add(-3.5)
    assert snap(restored) == snap(acc)


def test_exact_quantiles_merge_propagates_degradation():
    bounded = ExactQuantiles(max_values=4)
    with pytest.warns(RuntimeWarning):
        for v in range(10):
            bounded.add(float(v))
    plain = ExactQuantiles()
    plain.add(100.0)
    with pytest.warns(RuntimeWarning):
        plain.merge(bounded)
    assert plain.degraded
    assert plain.n == 11


# -- composite snapshots -----------------------------------------------------


@pytest.fixture(scope="module")
def gfs_traces():
    return run_gfs_workload(n_requests=60, seed=3).traces


def profile_builder(source, **kwargs):
    """A builder with every stream of ``source`` folded in."""
    builder = WorkloadProfileBuilder(**kwargs)
    for stream in source.streams():
        builder.update_batch(stream, source_columns(source, stream))
    return builder


def test_profile_builder_state_roundtrip(gfs_traces):
    builder = profile_builder(gfs_traces, window=0.25, cores=8)
    restored = WorkloadProfileBuilder.from_state(
        json.loads(json.dumps(builder.state()))
    )
    assert json.dumps(restored.state(), sort_keys=True) == json.dumps(
        builder.state(), sort_keys=True
    )
    assert restored.profile() == builder.profile()


def test_profile_builder_rejects_newer_schema(gfs_traces):
    state = profile_builder(gfs_traces).state()
    state["version"] = STREAMING_STATE_VERSION + 1
    with pytest.raises(ValueError, match="version"):
        WorkloadProfileBuilder.from_state(state)


def test_feature_stats_state_roundtrip(gfs_traces):
    stats = WorkloadFeatureStats.from_source(gfs_traces)
    restored = WorkloadFeatureStats.from_state(
        json.loads(json.dumps(stats.state()))
    )
    assert json.dumps(restored.state(), sort_keys=True) == json.dumps(
        stats.state(), sort_keys=True
    )
    assert restored.n == stats.n
    assert sorted(restored.profiles) == sorted(stats.profiles)


# -- append rounds -----------------------------------------------------------


def make_store(directory, replicas=2, n_requests=50, seed=11, **kwargs):
    return collect_fleet_to_store(
        FleetSpec(app="gfs", replicas=replicas, seed=seed, n_requests=n_requests),
        directory=directory,
        **kwargs,
    )


def read_streams(directory) -> dict:
    return {
        p.relative_to(directory).as_posix(): p.read_bytes()
        for p in sorted(Path(directory).rglob("*.jsonl"))
        if "_cache" not in p.parts
    }


def test_append_matches_single_collection(tmp_path):
    once = tmp_path / "once"
    make_store(once, replicas=4)
    steps = tmp_path / "steps"
    first = make_store(steps, replicas=2)
    second = make_store(steps, replicas=2, append=True)
    assert first.round == 0
    assert second.round == 1
    # Replica RNG streams are pure functions of (seed, replica index),
    # and appended replicas continue past the existing indices — so
    # collect 2 + append 2 is byte-identical to collect 4.
    assert read_streams(steps) == read_streams(once)
    store = ShardStore(steps)
    assert [m.round for m in store.manifests] == [0, 0, 1, 1]
    rounds = store.rounds()
    assert {r: [m.index for m in ms] for r, ms in rounds.items()} == {
        0: [0, 1],
        1: [2, 3],
    }
    assert load_store_rounds(steps) == {0: [0, 1], 1: [2, 3]}
    assert store.verify() == {}


def test_append_error_cases(tmp_path):
    with pytest.raises(FileNotFoundError):
        make_store(tmp_path / "missing", append=True)
    make_store(tmp_path / "taken")
    with pytest.raises(FileExistsError, match="append"):
        make_store(tmp_path / "taken")


def test_compact_store_folds_rounds_into_index(tmp_path):
    directory = tmp_path / "store"
    make_store(directory, replicas=2)
    make_store(directory, replicas=1, seed=19, append=True)
    rounds_before = load_store_rounds(directory)
    assert rounds_before == {0: [0, 1], 1: [2]}
    index = compact_store(directory)
    assert index.rounds == rounds_before
    assert sorted(index.shard_digests) == [0, 1, 2]
    assert all(index.shard_digests.values())
    # Round files are folded away; the index carries their content.
    assert not list(directory.glob("round-*.json"))
    assert load_store_index(directory).to_dict() == index.to_dict()
    # Idempotent, and the store (incl. per-manifest rounds) still loads.
    assert compact_store(directory).to_dict() == index.to_dict()
    assert sorted(ShardStore(directory).rounds()) == [0, 1]


# -- the analysis cache ------------------------------------------------------


@pytest.fixture()
def cached_store(tmp_path):
    directory = tmp_path / "cstore"
    make_store(directory, replicas=2, n_requests=50)
    return directory


def test_warm_analysis_equals_cold(cached_store):
    cold = analyze_source(cached_store, cache=True)
    assert (cold.cache_hits, cold.cache_misses) == (0, 2)
    warm = analyze_source(cached_store, cache=True)
    assert (warm.cache_hits, warm.cache_misses) == (2, 0)
    # JSON float snapshots are shortest-repr exact, so the warm result
    # is *equal* to the cold one — not merely close.
    assert warm.profile == cold.profile
    assert json.dumps(warm.features.state(), sort_keys=True) == json.dumps(
        cold.features.state(), sort_keys=True
    )
    assert sorted(warm.per_class) == sorted(cold.per_class)
    uncached = analyze_source(cached_store, cache=False)
    assert uncached.profile == cold.profile
    assert (uncached.cache_hits, uncached.cache_misses) == (0, 0)


def test_workers_spawn_only_for_the_new_round(cached_store, monkeypatch):
    analyze_source(cached_store, cache=True)
    make_store(cached_store, replicas=1, seed=99, n_requests=40, append=True)
    calls: list[int] = []
    real = analyze_mod.analyze_shard

    def counting(task):
        calls.append(task.manifest.index)
        return real(task)

    monkeypatch.setattr(analyze_mod, "analyze_shard", counting)
    grown = analyze_source(cached_store, cache=True)
    assert calls == [2], "only the appended shard may be re-folded"
    assert (grown.cache_hits, grown.cache_misses) == (2, 1)
    calls.clear()
    warm = analyze_source(cached_store, cache=True)
    assert calls == []
    assert (warm.cache_hits, warm.cache_misses) == (3, 0)
    assert warm.profile == grown.profile
    # The warm merged result equals a cache-free full re-analysis.
    monkeypatch.setattr(analyze_mod, "analyze_shard", real)
    assert analyze_source(cached_store, cache=False).profile == warm.profile


def test_shard_edit_invalidates_only_that_shard(cached_store):
    analyze_source(cached_store, cache=True)
    target = cached_store / "shard-00000001" / "requests.jsonl"
    with open(target, "a") as fh:
        fh.write("\n")  # changes bytes, parses identically
    assert ShardStore(cached_store).verify() == {1: ["requests"]}
    warm = analyze_source(cached_store, cache=True)
    assert (warm.cache_hits, warm.cache_misses) == (1, 1)
    again = analyze_source(cached_store, cache=True)
    assert (again.cache_hits, again.cache_misses) == (2, 0)


def test_stale_or_corrupt_cache_entries_are_misses(cached_store):
    analyze_source(cached_store, cache=True)
    entries = sorted((cached_store / "_cache").rglob("profile-*.json"))
    assert len(entries) == 2
    # A schema bump (newer writer) must be skipped, not crashed on.
    data = json.loads(entries[0].read_text())
    data["schema"] = STREAMING_STATE_VERSION + 1
    entries[0].write_text(json.dumps(data))
    warm = analyze_source(cached_store, cache=True)
    assert (warm.cache_hits, warm.cache_misses) == (1, 1)
    # Corruption likewise: the entry is rebuilt in place.
    entries[0].write_text("{not json")
    warm = analyze_source(cached_store, cache=True)
    assert (warm.cache_hits, warm.cache_misses) == (1, 1)
    assert (
        analyze_source(cached_store, cache=True).cache_hits,
    ) == (2,)


def test_analysis_key_separates_parameterizations(cached_store):
    analyze_source(cached_store, cache=True)
    other = analyze_source(cached_store, cache=True, window=0.5)
    assert (other.cache_hits, other.cache_misses) == (0, 2)
    again = analyze_source(cached_store, cache=True, window=0.5)
    assert (again.cache_hits, again.cache_misses) == (2, 0)


def test_bounded_quantiles_flow_through_analysis(cached_store):
    with pytest.warns(RuntimeWarning, match="max_values"):
        analysis = analyze_source(
            cached_store, cache=True, max_quantile_values=16
        )
    assert analysis.cache_misses == 2
    # The warm run restores degraded states from the cache; the driver
    # merge still (correctly) warns as its own accumulators degrade.
    with pytest.warns(RuntimeWarning, match="max_values"):
        warm = analyze_source(
            cached_store, cache=True, max_quantile_values=16
        )
    assert (warm.cache_hits, warm.cache_misses) == (2, 0)
    assert warm.profile == analysis.profile


def test_model_cache_hits_on_unchanged_store(cached_store):
    store = ShardStore(cached_store)
    cold = train_per_class(store, cache=True)
    assert cold.cache_hits == 0
    assert cold.cache_misses == len(cold.models)
    warm = train_per_class(store, cache=True)
    assert warm.cache_misses == 0
    assert warm.cache_hits == len(cold.models)
    assert {c: model_to_dict(m) for c, m in warm.models.items()} == {
        c: model_to_dict(m) for c, m in cold.models.items()
    }
    # Any shard change — here an appended round — invalidates the
    # whole-model cache (fits are not incrementally mergeable).
    make_store(cached_store, replicas=1, seed=77, n_requests=40, append=True)
    grown = train_per_class(ShardStore(cached_store), cache=True)
    assert grown.cache_hits == 0


# -- CLI ---------------------------------------------------------------------


def test_cli_append_compact_and_cache(tmp_path, capsys):
    store = str(tmp_path / "store")
    base = ["--app", "gfs", "--replicas", "2", "--requests", "40"]
    assert main(["collect", *base, "--out", store]) == 0
    capsys.readouterr()

    assert main(["characterize", "--in", store]) == 0
    cold = capsys.readouterr()
    assert "cache: 0 hits, 2 misses" in cold.err
    assert main(["characterize", "--in", store]) == 0
    warm = capsys.readouterr()
    assert "cache: 2 hits, 0 misses" in warm.err
    assert main(["characterize", "--in", store, "--no-cache"]) == 0
    plain = capsys.readouterr()
    assert "cache:" not in plain.err
    # Cache statistics go to stderr precisely so these are identical.
    assert cold.out == warm.out == plain.out

    assert (
        main(["append", "--app", "gfs", "--replicas", "1", "--seed", "9",
              "--requests", "40", "--out", store])
        == 0
    )
    assert "appended round 1 to shard store" in capsys.readouterr().out
    assert main(["characterize", "--in", store]) == 0
    assert "cache: 2 hits, 1 misses" in capsys.readouterr().err

    assert main(["compact", "--in", store]) == 0
    out = capsys.readouterr().out
    assert "compacted" in out and "2 rounds" in out

    with pytest.raises(SystemExit, match="append"):
        main(["collect", *base, "--out", store])
