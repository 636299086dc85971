"""Engine checkpoint/restore and the unified snapshot protocol.

Covers the acceptance contract of the checkpoint subsystem:

* the shared ``repro.snapshot`` protocol (typed errors, atomic save/load,
  deprecation shims over the old per-module versions);
* RNG snapshot fidelity, including spawned substreams and the
  never-drawn-generator pitfall;
* run / checkpoint / restore / run byte-identity for all three standard
  workloads;
* refusal of checkpoints written by older versions of the code;
* windowed collection (``--windows N``) merging byte-identically to a
  single-shot collect, and kill-mid-replica resume equivalence.
"""

import gzip
import json
import warnings
from pathlib import Path

import pytest

from repro.datacenter import (
    ReplicaSession,
    ReplicaSpec,
    collect_fleet_to_store,
    resume_fleet_collection,
)
from repro.cli import main
from repro.datacenter.fleet import CHECKPOINT_DIRNAME, UnfinishedCollectionError
from repro.simulation import RandomStreams, engine_digest, verify_engine_digest
from repro.snapshot import (
    SNAPSHOT_VERSION,
    SnapshotError,
    SnapshotFormatError,
    SnapshotMismatchError,
    SnapshotVersionError,
    Snapshotable,
    check_state,
    load_snapshot,
    make_state,
    save_snapshot,
)
from repro.stats.streaming import ReservoirQuantile
from repro.store import MANIFEST_FILENAME, ShardStore, shard_dirname
from repro.tracing import save_traces
from repro.tracing.tracer import STREAM_NAMES

APPS = ("gfs", "webapp", "mapreduce")


def spec_for(app, index=0, seed=11, n_requests=80):
    rate = {"gfs": 25.0, "webapp": 120.0, "mapreduce": None}[app]
    return ReplicaSpec(
        app=app,
        index=index,
        seed=seed,
        n_requests=n_requests,
        arrival_rate=rate,
        sample_every=1,
    )


def stream_dicts(traces):
    return {
        stream: [r.to_dict() for r in traces.iter_records(stream)]
        for stream in STREAM_NAMES
    }


# -- snapshot protocol --------------------------------------------------------


def test_make_and_check_state_round_trip():
    state = make_state("thing", {"x": 1.5})
    assert state["kind"] == "thing"
    assert state["version"] == SNAPSHOT_VERSION
    check_state(state, "thing")  # does not raise


def test_check_state_typed_errors():
    with pytest.raises(SnapshotFormatError, match="state"):
        check_state(None, "thing")
    with pytest.raises(SnapshotFormatError, match="expected 'thing'"):
        check_state({"kind": "other", "version": 1}, "thing")
    with pytest.raises(SnapshotVersionError, match="version"):
        check_state({"kind": "thing", "version": 99}, "thing")
    # Typed errors stay catchable as the legacy ValueError.
    with pytest.raises(ValueError):
        check_state({"kind": "thing", "version": 99}, "thing")
    assert issubclass(SnapshotVersionError, SnapshotError)
    assert issubclass(SnapshotMismatchError, SnapshotError)


def test_save_load_snapshot_plain_and_gz(tmp_path):
    state = make_state("thing", {"b": [1, 2], "a": 0.1})
    plain = save_snapshot(state, tmp_path / "s.json")
    zipped = save_snapshot(state, tmp_path / "s.json.gz")
    assert load_snapshot(plain) == state
    assert load_snapshot(zipped) == state
    # Canonical gzip (fixed mtime) => byte-identical rewrites.
    before = zipped.read_bytes()
    save_snapshot(state, zipped)
    assert zipped.read_bytes() == before
    assert gzip.decompress(before).decode() == plain.read_text()


def test_load_snapshot_rejects_non_snapshot(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("not json")
    with pytest.raises(SnapshotFormatError):
        load_snapshot(path)
    path.write_text("[1, 2]")
    with pytest.raises(SnapshotFormatError):
        load_snapshot(path)


def test_package_level_aliases_do_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        from repro.serve import SERVE_STATE_VERSION
        from repro.stats import STREAMING_STATE_VERSION
    assert STREAMING_STATE_VERSION == SERVE_STATE_VERSION == SNAPSHOT_VERSION


# -- RNG snapshots ------------------------------------------------------------


def rng_json(streams):
    return json.dumps(streams.state(), sort_keys=True)


def test_random_streams_round_trip_with_substreams():
    rs = RandomStreams(5)
    rs.get("a").random(3)
    child = rs.spawn("replica").spawn("2")
    child.get("workload/arrivals").random(7)
    state = json.loads(rng_json(rs))
    restored = RandomStreams.from_state(state)
    assert rng_json(restored) == rng_json(rs)
    # Identical draws after restore, at both levels of the tree.
    a = rs.get("a").random(4).tolist()
    b = restored.get("a").random(4).tolist()
    assert a == b
    c = rs.spawn("replica").spawn("2").get("workload/arrivals").random(4)
    d = restored.spawn("replica").spawn("2").get("workload/arrivals").random(4)
    assert c.tolist() == d.tolist()


def test_random_streams_never_drawn_restores_identically():
    # A generator created but never drawn from must serialize exactly as
    # a fresh one, or restore-validation would reject pristine state.
    rs = RandomStreams(3)
    rs.get("untouched")
    restored = RandomStreams.from_state(json.loads(rng_json(rs)))
    fresh = RandomStreams(3)
    fresh.get("untouched")
    assert rng_json(restored) == rng_json(fresh) == rng_json(rs)
    assert (
        restored.get("untouched").random(4).tolist()
        == fresh.get("untouched").random(4).tolist()
    )


def test_spawn_is_memoized():
    rs = RandomStreams(1)
    assert rs.spawn("replica") is rs.spawn("replica")
    # Memoization makes the substream tree snapshot-representable: two
    # handles to one path share state instead of diverging silently.
    g1 = rs.spawn("replica").get("x")
    g2 = rs.spawn("replica").get("x")
    assert g1 is g2


def test_reservoir_quantile_never_drawn_round_trip():
    res = ReservoirQuantile(capacity=8, seed=3)
    restored = ReservoirQuantile.from_state(res.state())
    assert json.dumps(restored.state(), sort_keys=True) == json.dumps(
        res.state(), sort_keys=True
    )
    fresh = ReservoirQuantile(capacity=8, seed=3)
    for r in (res, restored, fresh):
        for v in range(20):
            r.add(float(v))
    assert restored.quantile(0.5) == fresh.quantile(0.5) == res.quantile(0.5)


# -- engine digests -----------------------------------------------------------


def test_engine_digest_detects_divergence():
    session = ReplicaSession(spec_for("gfs"))
    session.advance_progress(10)
    digest = engine_digest(session.env)
    verify_engine_digest(session.env, digest)  # matches itself
    session.env.step()
    with pytest.raises(SnapshotMismatchError, match="diverged"):
        verify_engine_digest(session.env, digest)


# -- run / checkpoint / restore / run ----------------------------------------


@pytest.mark.parametrize("app", APPS)
def test_run_restore_run_byte_identity(app):
    n = 60 if app != "mapreduce" else 80
    reference = ReplicaSession(spec_for(app, n_requests=n))
    reference.run_to_completion()

    session = ReplicaSession(spec_for(app, n_requests=n))
    session.advance_progress(session.total_progress // 2)
    state = session.checkpoint()
    # The checkpoint must survive a JSON round trip (what save/load do).
    state = json.loads(json.dumps(state))
    restored = ReplicaSession.restore(state)
    restored.run_to_completion()

    assert stream_dicts(restored.traces) == stream_dicts(reference.traces)
    assert restored.env.now == reference.env.now
    assert restored.env.steps == reference.env.steps
    assert rng_json(restored.streams) == rng_json(reference.streams)


def test_checkpoint_save_load_file_round_trip(tmp_path):
    session = ReplicaSession(spec_for("gfs"))
    session.advance_progress(20)
    path = save_snapshot(session.checkpoint(), tmp_path / "ckpt.json")
    restored = ReplicaSession.restore(load_snapshot(path))
    restored.run_to_completion()
    reference = ReplicaSession(spec_for("gfs"))
    reference.run_to_completion()
    assert stream_dicts(restored.traces) == stream_dicts(reference.traces)


def test_restore_rejects_tampered_checkpoint():
    session = ReplicaSession(spec_for("gfs"))
    session.advance_progress(15)
    state = json.loads(json.dumps(session.checkpoint()))
    state["engine"]["queue_sha"] = "0" * 64
    with pytest.raises(SnapshotMismatchError, match="diverged"):
        ReplicaSession.restore(state)


def test_restore_rejects_changed_inputs():
    session = ReplicaSession(spec_for("gfs", seed=1))
    session.advance_progress(15)
    state = json.loads(json.dumps(session.checkpoint()))
    state["spec"]["seed"] = 2  # replay under a different seed drifts
    with pytest.raises(SnapshotMismatchError):
        ReplicaSession.restore(state)


GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: A window-0 checkpoint of ``gfs`` seed 7, 40 requests, 2 windows,
#: written while every device call still ran as its own engine process.
OLD_ENGINE_CHECKPOINT = GOLDEN_DIR / "checkpoint_child_process_engine.json"

#: The same window-0 checkpoint written by the code of the inlined
#: engine while RNG factories still recorded fork keys: once unforked
#: (an empty ``"forks"`` list) and once after ``session.fork("x")``.
OLD_RNG_CHECKPOINTS = [
    GOLDEN_DIR / "checkpoint_rng_forks_field.json",
    GOLDEN_DIR / "checkpoint_forked_rng.json",
]


def test_restore_refuses_checkpoint_of_older_engine():
    # A checkpoint's step count is the engine clock of the code that
    # wrote it; driving devices inline halves that clock, so replaying
    # the recorded steps lands somewhere else and must be refused.
    state = load_snapshot(OLD_ENGINE_CHECKPOINT)
    with pytest.raises(
        SnapshotMismatchError, match="ran out of events|diverged"
    ):
        ReplicaSession.restore(state, keep_records=False)


@pytest.mark.parametrize("path", OLD_RNG_CHECKPOINTS, ids=lambda p: p.stem)
def test_restore_refuses_checkpoint_with_fork_fields(path):
    # RNG state no longer records fork keys, so the replayed state can
    # never equal one that does: forked or not, the checkpoint is
    # refused instead of restoring a different random future.
    with pytest.raises(SnapshotMismatchError, match="diverged"):
        ReplicaSession.restore(load_snapshot(path), keep_records=False)


def test_rng_from_state_refuses_fork_keys():
    state = load_snapshot(GOLDEN_DIR / "checkpoint_forked_rng.json")["rng"]
    with pytest.raises(SnapshotFormatError, match="fork keys"):
        RandomStreams.from_state(state)


def _resume_with_checkpoint(tmp_path, capsys, checkpoint: Path) -> str:
    """``repro resume`` a store torn after window 0 whose window-0
    checkpoint is ``checkpoint``; the refusal message it exits with."""
    store = tmp_path / "store"
    collect_fleet_to_store(
        directory=store, windows=2, app="gfs", replicas=1, seed=7, n_requests=40
    )
    (store / shard_dirname(1) / MANIFEST_FILENAME).unlink()
    (store / CHECKPOINT_DIRNAME / "replica-00000.json").write_bytes(
        checkpoint.read_bytes()
    )
    capsys.readouterr()
    with pytest.raises(SystemExit) as refused:
        main(["resume", "--out", str(store)])
    assert capsys.readouterr().out == ""
    return str(refused.value.code)


def test_resume_refuses_checkpoint_of_older_engine(tmp_path, capsys):
    message = _resume_with_checkpoint(tmp_path, capsys, OLD_ENGINE_CHECKPOINT)
    assert "diverged" in message or "ran out of events" in message
    assert "\n" not in message


@pytest.mark.parametrize("path", OLD_RNG_CHECKPOINTS, ids=lambda p: p.stem)
def test_resume_refuses_checkpoint_with_fork_fields(tmp_path, capsys, path):
    message = _resume_with_checkpoint(tmp_path, capsys, path)
    assert "diverged" in message
    assert "\n" not in message


# -- windowed collection ------------------------------------------------------


@pytest.mark.parametrize("app", ("gfs", "webapp"))
def test_windowed_collect_merges_identically(tmp_path, app):
    kwargs = dict(app=app, replicas=2, seed=7, n_requests=60)
    collect_fleet_to_store(directory=tmp_path / "single", **kwargs)
    collect_fleet_to_store(directory=tmp_path / "windowed", windows=3, **kwargs)
    single = ShardStore(tmp_path / "single")
    windowed = ShardStore(tmp_path / "windowed")
    assert len(windowed.manifests) == 6
    assert [m.continues for m in windowed.manifests] == [
        False, True, True, False, True, True,
    ]
    assert windowed.extent() == pytest.approx(single.extent(), abs=1e-12)
    assert stream_dicts(windowed) == stream_dicts(single)
    # Each window is its own collection round across all replicas.
    assert {r: [m.index for m in ms] for r, ms in windowed.rounds().items()} == {
        0: [0, 3], 1: [1, 4], 2: [2, 5],
    }


def _store_files(directory):
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in sorted(Path(directory).rglob("*"))
        if p.is_file() and "_checkpoints" not in p.parts
    }


def test_kill_mid_replica_resume_equivalence(tmp_path, monkeypatch):
    import repro.datacenter.fleet as fleet

    kwargs = dict(app="gfs", replicas=2, seed=3, n_requests=60)
    collect_fleet_to_store(directory=tmp_path / "full", windows=3, **kwargs)

    class Kill(Exception):
        pass

    # Die on the third snapshot write (1: fleet plan, 2: window-0
    # checkpoint, 3: window-1 checkpoint) *before* it lands: window 1's
    # shard is on disk but the checkpoint still says one window done —
    # exactly the torn state a SIGKILL between finalize and checkpoint
    # leaves behind.
    real_save = fleet.save_snapshot
    calls = []

    def dying_save(state, path):
        calls.append(path)
        if len(calls) == 3:
            raise Kill()
        return real_save(state, path)

    monkeypatch.setattr(fleet, "save_snapshot", dying_save)
    with pytest.raises(Kill):
        collect_fleet_to_store(directory=tmp_path / "cut", windows=3, **kwargs)
    monkeypatch.setattr(fleet, "save_snapshot", real_save)

    resumed = resume_fleet_collection(tmp_path / "cut", workers=1)
    assert len(resumed.manifests) == 6
    assert _store_files(tmp_path / "cut") == _store_files(tmp_path / "full")
    # Resume is idempotent: a second pass re-reads manifests untouched.
    resume_fleet_collection(tmp_path / "cut", workers=1)
    assert _store_files(tmp_path / "cut") == _store_files(tmp_path / "full")


def test_windowed_append_continues_replica_numbering(tmp_path):
    kwargs = dict(app="gfs", seed=7, n_requests=40)
    collect_fleet_to_store(directory=tmp_path / "w", windows=2, replicas=2, **kwargs)
    collect_fleet_to_store(
        directory=tmp_path / "w", windows=2, replicas=1, append=True, **kwargs
    )
    collect_fleet_to_store(directory=tmp_path / "flat", replicas=3, **kwargs)
    windowed = ShardStore(tmp_path / "w")
    flat = ShardStore(tmp_path / "flat")
    assert len(windowed.manifests) == 6
    # Appended replica 2 reuses the same substream as single-shot replica 2.
    assert stream_dicts(windowed) == stream_dicts(flat)


def test_single_shot_append_to_windowed_store_merges_like_one_collect(tmp_path):
    # Replicas are numbered from the replicas already in the store, not
    # from its shard count, whatever mode the earlier round used.
    kwargs = dict(app="gfs", seed=7, n_requests=60)
    mixed, flat = tmp_path / "mixed", tmp_path / "flat"
    collect_fleet_to_store(directory=mixed, windows=2, replicas=2, **kwargs)
    appended = collect_fleet_to_store(
        directory=mixed, replicas=1, append=True, **kwargs
    )
    collect_fleet_to_store(directory=flat, replicas=3, **kwargs)
    assert [m.index for m in appended.manifests] == [4]
    assert "window" not in appended.manifests[0].params
    save_traces(ShardStore(mixed), tmp_path / "merged-mixed")
    save_traces(ShardStore(flat), tmp_path / "merged-flat")
    names = sorted(p.name for p in (tmp_path / "merged-flat").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "merged-mixed").iterdir())
    for name in names:
        assert (tmp_path / "merged-mixed" / name).read_bytes() == (
            tmp_path / "merged-flat" / name
        ).read_bytes(), name


def test_append_refuses_to_orphan_an_unfinished_windowed_round(tmp_path, capsys):
    store = tmp_path / "store"
    args = ["--app", "gfs", "--seed", "7", "--requests", "60", "--windows", "2"]
    assert main(["collect", *args, "--replicas", "2", "--out", str(store)]) == 0
    # The last window of the last replica never finished.
    (store / shard_dirname(3) / MANIFEST_FILENAME).unlink()
    before = {
        p: p.read_bytes() for p in sorted(store.rglob("*")) if p.is_file()
    }
    with pytest.raises(UnfinishedCollectionError, match="shard 3"):
        collect_fleet_to_store(directory=store, append=True, windows=2,
                               app="gfs", seed=7, n_requests=60, replicas=1)
    capsys.readouterr()
    for windows in ("2", "1"):
        argv = ["append", *args[:-1], windows, "--replicas", "1", "--out", str(store)]
        with pytest.raises(SystemExit) as refused:
            main(argv)
        message = str(refused.value.code)
        assert "repro resume" in message and "\n" not in message
    assert capsys.readouterr().out == ""
    assert {
        p: p.read_bytes() for p in sorted(store.rglob("*")) if p.is_file()
    } == before

    assert main(["resume", "--out", str(store)]) == 0
    assert main(["append", *args, "--replicas", "1", "--out", str(store)]) == 0
    reference = tmp_path / "reference"
    assert main(["collect", *args, "--replicas", "3", "--out", str(reference)]) == 0
    assert stream_dicts(ShardStore(store)) == stream_dicts(ShardStore(reference))


def test_single_shot_collect_writes_no_checkpoint(tmp_path, monkeypatch):
    import repro.datacenter.fleet as fleet

    def no_checkpoint(self):
        raise AssertionError("single-shot collect checkpointed its engine")

    monkeypatch.setattr(fleet.ReplicaSession, "checkpoint", no_checkpoint)
    collect_fleet_to_store(
        directory=tmp_path, app="gfs", replicas=2, seed=7, n_requests=40
    )
    assert not (tmp_path / CHECKPOINT_DIRNAME).exists()


# -- protocol conformance -----------------------------------------------------


def test_snapshotable_protocol_members():
    from repro.serve.state import ServeState
    from repro.stats.streaming import MomentsAccumulator

    assert isinstance(RandomStreams(0), Snapshotable)
    assert isinstance(MomentsAccumulator(), Snapshotable)
    assert isinstance(ReservoirQuantile(), Snapshotable)
    assert hasattr(ServeState, "state") and hasattr(ServeState, "from_state")
