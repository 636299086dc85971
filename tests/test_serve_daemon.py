"""End-to-end tests for the ``repro serve`` subsystem (PR 7 tentpole).

The acceptance contracts from the issue, each pinned here:

* ``/profile?format=text`` after watch-folding appended rounds is
  byte-identical to batch ``repro characterize`` stdout on the same
  store — both cold and after an append;
* a daemon restarted from a :class:`ServeState` checkpoint resumes with
  *identical* accumulator state (``builder.state()`` equality);
* ``/metrics`` parses as valid Prometheus text exposition;
* ingest-socket commits become ordinary store rounds that ``repro
  verify`` accepts and the watcher folds;
* the satellites: ``repro verify`` exit codes, ``repro --version``,
  KeyboardInterrupt → exit 130, manifests stamped with the tool
  version, and the store-watch round-visibility rules.
"""

import http.client
import io
import json
import shutil
import socket
import socketserver
import threading
import urllib.error
import urllib.request
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.cli as cli_mod
from repro._version import tool_version
from repro.cli import main
from repro.core import WorkloadFeatureStats, WorkloadProfileBuilder
from repro.datacenter import FleetSpec, collect_fleet_to_store
from repro.serve import (
    Counter,
    Gauge,
    IngestSink,
    MetricsRegistry,
    ResidentAnalysis,
    ServeConfig,
    ServeDaemon,
    ServeError,
    ServeState,
    StoreWatcher,
    parse_exposition,
)
from repro.serve.watcher import StoreRewrittenError, StoreShrunkError
from repro.store import (
    ShardManifest,
    ShardStore,
    analyze_source,
    compact_store,
    load_store_rounds,
    take_snapshot,
    write_round_file,
)
from repro.store.analyze import reduce_source
from repro.store.writer import ShardWriter, shard_dirname
from repro.tracing.records import RequestRecord

SPEC = dict(app="gfs", n_requests=120, replicas=2, seed=7)
APPEND_SPEC = dict(app="gfs", n_requests=60, replicas=2, seed=8)


@pytest.fixture(scope="module")
def base_store(tmp_path_factory):
    directory = tmp_path_factory.mktemp("serve") / "traces"
    collect_fleet_to_store(FleetSpec(**SPEC), directory)
    return directory


@pytest.fixture()
def store(base_store, tmp_path):
    """A private mutable copy — polls write caches into the store dir."""
    directory = tmp_path / "traces"
    shutil.copytree(base_store, directory)
    return directory


def _append_round(directory):
    collect_fleet_to_store(FleetSpec(**APPEND_SPEC), directory, append=True)


def _characterize_stdout(directory) -> str:
    """Batch ``repro characterize`` stdout, the /profile oracle."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(["characterize", "--in", str(directory)])
    assert rc == 0
    return out.getvalue()


def _http_get(daemon, path):
    host, port = daemon.http_address
    try:
        with urllib.request.urlopen(f"http://{host}:{port}{path}") as resp:
            return resp.status, resp.read().decode()
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode()


# -- store watch: round visibility -------------------------------------------


def test_manifests_record_tool_version(store):
    manifest = json.loads((store / "shard-00000000" / "manifest.json").read_text())
    assert manifest["version"] == 5
    assert manifest["tool_version"] == tool_version()


def test_take_snapshot_contiguous_prefix(store):
    snapshot = take_snapshot(store)
    assert snapshot.n_shards == 2
    assert [m.index for m in snapshot.manifests] == [0, 1]
    assert snapshot.pending == ()
    assert snapshot.max_round == 0
    _append_round(store)
    snapshot = take_snapshot(store)
    assert snapshot.n_shards == 4
    assert snapshot.max_round == 1
    assert snapshot.n_records > 0


def test_take_snapshot_gap_blocks_prefix(store):
    _append_round(store)
    # Shard 2 loses its manifest: the contiguous prefix stops before it
    # and the complete shard beyond the gap is only *pending*.
    manifest = store / "shard-00000002" / "manifest.json"
    manifest.rename(manifest.with_suffix(".hidden"))
    snapshot = take_snapshot(store)
    assert snapshot.n_shards == 2
    assert snapshot.pending == (3,)


def test_take_snapshot_complete_rounds_only(store):
    _append_round(store)
    (store / "round-00001.json").unlink()  # round 1 no longer recorded
    gated = take_snapshot(store, complete_rounds_only=True)
    assert gated.n_shards == 2
    ungated = take_snapshot(store, complete_rounds_only=False)
    assert ungated.n_shards == 4


def test_unreadable_round_file_still_gates(store):
    # Round 1 is not recorded; an unreadable round-0 file must not turn
    # gating off for the other rounds.  Round 0's shards are listed only
    # in the unreadable file, so nothing is foldable until it is fixed.
    _append_round(store)
    (store / "round-00001.json").unlink()
    round_file = store / "round-00000.json"
    recorded = round_file.read_text()
    assert take_snapshot(store, complete_rounds_only=True).n_shards == 2
    round_file.write_text("{")
    broken = take_snapshot(store, complete_rounds_only=True)
    assert broken.n_shards == 0 and broken.pending == ()
    round_file.write_text(recorded)
    assert take_snapshot(store, True, previous=broken).n_shards == 2


# -- watcher folding ---------------------------------------------------------


def test_watcher_fold_equals_batch(store):
    resident = ResidentAnalysis()
    result = StoreWatcher(store).poll(resident)
    assert len(result.folded) == 2
    assert result.cache_misses == 2

    batch = analyze_source(str(store))
    assert resident.profile().describe() == batch.profile.describe()
    assert resident.features.state() == batch.features.state()
    assert sorted(resident.per_class) == sorted(batch.per_class)
    for cls_name, stats in batch.per_class.items():
        assert resident.per_class[cls_name].state() == stats.state()


def test_watcher_restart_is_warm(store):
    cold = ResidentAnalysis()
    StoreWatcher(store).poll(cold)
    warm = ResidentAnalysis()
    result = StoreWatcher(store).poll(warm)
    assert result.cache_hits == 2
    assert result.cache_misses == 0
    assert warm.profile().describe() == cold.profile().describe()


def test_watcher_folds_appended_round(store):
    resident = ResidentAnalysis()
    watcher = StoreWatcher(store)
    watcher.poll(resident)
    _append_round(store)
    result = watcher.poll(resident)
    assert [m.index for m in result.folded] == [2, 3]
    assert resident.profile().describe() == analyze_source(str(store)).profile.describe()
    # Nothing new: the next poll is a no-op.
    assert watcher.poll(resident).folded == []


def test_watcher_raises_when_store_shrinks(store):
    resident = ResidentAnalysis()
    watcher = StoreWatcher(store)
    watcher.poll(resident)
    shutil.rmtree(store / "shard-00000001")
    with pytest.raises(StoreShrunkError):
        watcher.poll(resident)


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    rounds=st.lists(st.integers(1, 2), min_size=1, max_size=4),
    data=st.data(),
)
def test_watcher_fold_with_restart_equals_batch_reduce(tmp_path_factory, rounds, data):
    """Random append rounds, one checkpoint restart: same reducer state."""
    root = tmp_path_factory.mktemp("rounds")
    store = root / "traces"
    restart_after = data.draw(st.integers(0, len(rounds) - 1), label="restart")
    resident = ResidentAnalysis()
    for number, replicas in enumerate(rounds):
        collect_fleet_to_store(
            FleetSpec(app="gfs", replicas=replicas, n_requests=30, seed=3),
            store,
            append=number > 0,
        )
        StoreWatcher(store).poll(resident)
        if number == restart_after:
            ServeState(resident=resident).save(root / "ck.json")
            resident = ServeState.load(root / "ck.json").resident
    batch, _, _ = reduce_source(str(store))
    assert len(resident.folded) == sum(rounds)
    # JSON text, so NaN compares equal to NaN.
    assert json.dumps(resident.reducer.state(), sort_keys=True) == json.dumps(
        batch.state(), sort_keys=True
    )


def test_resident_rejects_out_of_order_fold(store):
    snapshot = take_snapshot(store)
    resident = ResidentAnalysis()
    with pytest.raises(ValueError, match="out of order"):
        resident.fold(
            snapshot.manifests[1],
            WorkloadProfileBuilder(),
            WorkloadFeatureStats(),
            {},
        )


# -- checkpoints -------------------------------------------------------------


def test_serve_state_roundtrip(store, tmp_path):
    resident = ResidentAnalysis()
    StoreWatcher(store).poll(resident)
    path = tmp_path / "ck.json"
    ServeState(
        resident=resident, tool_version=tool_version(), store=str(store)
    ).save(path)

    restored = ServeState.load(path)
    assert restored.tool_version == tool_version()
    assert restored.resident.builder.state() == resident.builder.state()
    assert restored.resident.features.state() == resident.features.state()
    assert restored.resident.folded == resident.folded
    assert restored.resident.generation == resident.generation
    assert restored.resident.matches_prefix(take_snapshot(store).manifests)

    data = json.loads(path.read_text())
    data["format"] = "something-else"
    with pytest.raises(ValueError, match="not a serve checkpoint"):
        ServeState.from_dict(data)
    data["format"] = "repro-serve-state"
    data["version"] = 99
    with pytest.raises(ValueError, match="version"):
        ServeState.from_dict(data)


# -- the daemon over HTTP ----------------------------------------------------


def test_daemon_http_endpoints(store):
    config = ServeConfig(port=0, poll_interval=0)
    daemon = ServeDaemon(store, config).start()
    try:
        status, body = _http_get(daemon, "/healthz")
        health = json.loads(body)
        assert status == 200
        assert health["status"] == "ok"
        assert health["version"] == tool_version()
        assert health["shards"] == 2
        assert health["ingest"] is False
        assert health["restored_from_checkpoint"] is False

        status, body = _http_get(daemon, "/metrics")
        assert status == 200
        samples = parse_exposition(body)  # raises if not valid 0.0.4 text
        assert samples[("repro_shards_folded", ())] == 2.0
        assert samples[("repro_build_info", (("version", tool_version()),))] == 1.0
        assert samples[("repro_cache_misses_total", ())] == 2.0

        # The tentpole equality: /profile?format=text is byte-identical
        # to batch `repro characterize` stdout for the same store.
        status, served = _http_get(daemon, "/profile?format=text")
        assert status == 200
        assert served == _characterize_stdout(store)

        status, body = _http_get(daemon, "/profile")
        payload = json.loads(body)
        assert status == 200
        assert payload["shards"] == 2
        assert payload["describe"] == served.rstrip("\n")

        # ... and it still holds after the watcher folds an appended round.
        _append_round(store)
        result = daemon.poll_once()
        assert [m.index for m in result.folded] == [2, 3]
        status, served = _http_get(daemon, "/profile?format=text")
        assert served == _characterize_stdout(store)

        status, body = _http_get(daemon, "/drift")
        drift = json.loads(body)
        assert status == 200
        assert drift["baseline_source"] == "history"
        assert drift["firing"] is False  # same app, same seed family

        status, body = _http_get(daemon, "/validate")
        assert status == 503  # no per-class model loaded
        assert "model" in json.loads(body)["error"]

        status, body = _http_get(daemon, "/nope")
        assert status == 404
    finally:
        daemon.shutdown()


def test_daemon_sends_each_reply_in_one_write(store, monkeypatch):
    """Headers and body leave in one socket write on a kept-alive link."""
    writes = []
    original = socketserver._SocketWriter.write

    def counting_write(self, data):
        writes.append(bytes(data))
        return original(self, data)

    monkeypatch.setattr(socketserver._SocketWriter, "write", counting_write)
    daemon = ServeDaemon(store, ServeConfig(port=0, poll_interval=0)).start()
    try:
        connection = http.client.HTTPConnection(*daemon.http_address)
        for path in ("/healthz", "/profile?format=text", "/nope"):
            del writes[:]
            connection.request("GET", path)
            response = connection.getresponse()
            body = response.read()
            assert len(writes) == 1, path
            head, sep, sent_body = writes[0].partition(b"\r\n\r\n")
            assert sep and sent_body == body
            assert int(response.getheader("Content-Length")) == len(body)
        connection.close()
    finally:
        daemon.shutdown()


def test_daemon_ingest_and_checkpoint_restart(store, tmp_path):
    checkpoint = tmp_path / "serve-state.json"
    config = ServeConfig(
        port=0, poll_interval=0, checkpoint_path=checkpoint, ingest_port=0
    )
    daemon = ServeDaemon(store, config).start()
    try:
        assert daemon.ingest is not None
        with socket.create_connection(daemon.ingest.address) as conn:
            reader = conn.makefile("r")

            def send(payload):
                conn.sendall((json.dumps(payload) + "\n").encode())

            # A malformed line gets an error reply without killing the
            # connection ...
            send({"stream": "bogus", "record": {}})
            assert "unknown stream" in json.loads(reader.readline())["error"]
            send({"ping": True})
            assert json.loads(reader.readline())["ok"] is True

            # ... and real records commit into an ordinary store round.
            for i in range(5):
                record = RequestRecord(
                    request_id=i,
                    request_class="read",
                    server="live-0",
                    arrival_time=i * 0.01,
                    completion_time=i * 0.01 + 0.002,
                    network_bytes=4096,
                )
                send({"stream": "requests", "record": record.to_dict()})

            # A malformed commit duration is rejected *before* any side
            # effect: an error reply, a surviving connection, and the
            # pending records still uncommitted (the real commit below
            # acks all 5).
            send({"commit": True, "duration": None})
            assert "duration" in json.loads(reader.readline())["error"]
            send({"commit": True, "duration": [1.0]})
            assert "duration" in json.loads(reader.readline())["error"]

            send({"commit": True})
            ack = json.loads(reader.readline())
            assert ack["ok"] is True
            assert ack["shard"] == 2
            assert ack["round"] == 1
            assert ack["records"] == 5

        # The commit ack means "folded": no poll wait needed.
        health = json.loads(_http_get(daemon, "/healthz")[1])
        assert health["shards"] == 3
        assert ShardStore(store).verify() == {}
        samples = parse_exposition(_http_get(daemon, "/metrics")[1])
        assert samples[("repro_ingest_commits_total", ())] == 1.0
        assert samples[("repro_ingest_records_total", (("stream", "requests"),))] == 5.0

        builder_state = daemon.resident.builder.state()
        features_state = daemon.resident.features.state()
        generation = daemon.resident.generation
    finally:
        daemon.shutdown()
    assert checkpoint.exists()

    # Restart against the checkpoint: identical accumulator state, and
    # the restore is free (no cache loads, no shard re-reads).
    second = ServeDaemon(store, ServeConfig(
        port=0, poll_interval=0, checkpoint_path=checkpoint
    )).start()
    try:
        assert second.restored_from_checkpoint
        assert second.resident.builder.state() == builder_state
        assert second.resident.features.state() == features_state
        assert second.resident.generation == generation
        health = json.loads(_http_get(second, "/healthz")[1])
        assert health["restored_from_checkpoint"] is True
        assert health["shards"] == 3
    finally:
        second.shutdown()


def test_daemon_checkpoint_param_mismatch_cold_folds(store, tmp_path):
    checkpoint = tmp_path / "serve-state.json"
    first = ServeDaemon(store, ServeConfig(
        port=0, poll_interval=0, checkpoint_path=checkpoint
    )).start()
    first.shutdown()
    # A different analysis window invalidates the checkpoint; the daemon
    # quietly cold-folds instead of resuming mismatched accumulators.
    second = ServeDaemon(store, ServeConfig(
        port=0, poll_interval=0, checkpoint_path=checkpoint, window=0.5
    )).start()
    try:
        assert not second.restored_from_checkpoint
        assert len(second.resident.folded) == 2
    finally:
        second.shutdown()


def test_daemon_refuses_corrupt_store(store):
    stream = next((store / "shard-00000000").glob("requests.*"))
    with stream.open("ab") as handle:
        handle.write(b"garbage\n")
    with pytest.raises(ServeError, match="verification failed"):
        ServeDaemon(store, ServeConfig(port=0, poll_interval=0)).start()


def test_daemon_refuses_non_store(tmp_path):
    with pytest.raises(ServeError, match="not a shard store"):
        ServeDaemon(tmp_path, ServeConfig(port=0, poll_interval=0)).start()


# -- concurrency regressions -------------------------------------------------


def _live_record(i: int) -> dict:
    return RequestRecord(
        request_id=i,
        request_class="read",
        server="live-0",
        arrival_time=i * 0.01,
        completion_time=i * 0.01 + 0.002,
        network_bytes=1024,
    ).to_dict()


def test_ingest_commit_holds_lock_across_finalize(tmp_path, monkeypatch):
    """A write during the finalize window must not reuse the shard slot.

    Before the fix, commit() released the sink lock before finalize, so
    a concurrent write_record re-scanned manifests (the finalizing
    shard's manifest not yet on disk), claimed the *same* index, and
    opened a second writer on the directory still being closed.
    """
    directory = tmp_path / "live"
    sink = IngestSink(directory)
    sink.write_record("requests", _live_record(0))

    entered, release = threading.Event(), threading.Event()
    original_finalize = ShardWriter.finalize

    def slow_finalize(self, duration=0.0):
        entered.set()
        assert release.wait(10.0)
        return original_finalize(self, duration)

    monkeypatch.setattr(ShardWriter, "finalize", slow_finalize)
    manifests = []
    committer = threading.Thread(target=lambda: manifests.append(sink.commit()))
    committer.start()
    assert entered.wait(10.0)

    wrote = threading.Event()

    def write():
        sink.write_record("requests", _live_record(1))
        wrote.set()

    writer_thread = threading.Thread(target=write)
    writer_thread.start()
    assert not wrote.wait(0.3)  # blocked on the sink lock, not racing
    release.set()
    committer.join(10.0)
    writer_thread.join(10.0)
    assert wrote.is_set()

    monkeypatch.setattr(ShardWriter, "finalize", original_finalize)
    second = sink.commit()
    assert manifests[0].index == 0
    assert second.index == 1
    assert second.round == manifests[0].round + 1
    assert ShardStore(directory).verify() == {}
    rounds = load_store_rounds(directory)
    assert rounds == {manifests[0].round: [0], second.round: [1]}


def test_ingest_slots_never_regress(tmp_path):
    """Slot reservation floors survive a transiently unreadable scan."""
    directory = tmp_path / "live"
    sink = IngestSink(directory)
    sink.write_record("requests", _live_record(0))
    first = sink.commit()
    # Hide the committed shard's manifest: the scan no longer sees it,
    # but the sink's reservations must not hand its slot out again.
    manifest = directory / "shard-00000000" / "manifest.json"
    hidden = manifest.with_suffix(".hidden")
    manifest.rename(hidden)
    sink.write_record("requests", _live_record(1))
    second = sink.commit()
    hidden.rename(manifest)
    assert first.index == 0
    assert second.index == 1
    assert second.round == first.round + 1


def test_write_round_file_merges_not_overwrites(tmp_path):
    write_round_file(tmp_path, 1, [2, 3])
    write_round_file(tmp_path, 1, [4])  # racing writer, same round number
    assert load_store_rounds(tmp_path)[1] == [2, 3, 4]
    # A corrupt round file is replaced from what the writer knows.
    (tmp_path / "round-00002.json").write_text("not json")
    write_round_file(tmp_path, 2, [7])
    assert load_store_rounds(tmp_path)[2] == [7]
    assert not list(tmp_path.glob("*.tmp"))


def test_drift_baseline_rebuilds_after_first_fold(store):
    """A monitor baselined on an empty history becomes ready post-fold."""
    daemon = ServeDaemon(store, ServeConfig(port=0, poll_interval=0))
    daemon._build_monitor()  # as if started on a request-free store
    assert daemon.monitor.baseline.latencies.size == 0
    assert daemon.monitor.check().ready is False
    result = daemon.poll_once()
    assert result.folded
    assert daemon.monitor.baseline.latencies.size > 0
    report = daemon.drift_report()
    assert report.ready is True
    assert report.to_dict()["baseline_n"] > 0


def test_serve_state_concurrent_saves_never_tear(store, tmp_path):
    resident = ResidentAnalysis()
    StoreWatcher(store).poll(resident)
    state = ServeState(resident=resident, tool_version=tool_version())
    path = tmp_path / "ck.json"

    def hammer():
        for _ in range(10):
            state.save(path)

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    restored = ServeState.load(path)  # parses: no torn checkpoint
    assert restored.resident.builder.state() == resident.builder.state()
    assert not list(tmp_path.glob("ck.json.*"))  # no leaked temp files


# -- incremental snapshots and manifest load counts --------------------------


def _count_manifest_loads(monkeypatch) -> list:
    """Record the manifest path of every ``ShardManifest.load`` call."""
    loads = []
    original = ShardManifest.load.__func__

    def counting(cls, path):
        path = Path(path)
        loads.append(path if path.name == "manifest.json" else path / "manifest.json")
        return original(cls, path)

    monkeypatch.setattr(ShardManifest, "load", classmethod(counting))
    return loads


def _open_tiny_shard(store, index, round_index):
    """A shard directory with one request written and no manifest yet."""
    writer = ShardWriter(
        store / shard_dirname(index), index=index, app="ingest", round=round_index
    )
    writer.write("requests", RequestRecord.from_dict(_live_record(index)))
    return writer


def _reducer_json(reducer) -> str:
    # JSON text, so NaN compares equal to NaN.
    return json.dumps(reducer.state(), sort_keys=True)


def test_watcher_raises_when_a_folded_shard_is_replaced(tmp_path):
    store, staging = tmp_path / "traces", tmp_path / "staging"
    store.mkdir()
    staging.mkdir()
    for index in range(2):
        _open_tiny_shard(store, index, 0).finalize()
    resident = ResidentAnalysis()
    watcher = StoreWatcher(store, cache=False)
    watcher.poll(resident)
    # Same name, new content, staged so it cannot reuse the old inode.
    staged = _open_tiny_shard(staging, 1, 0)
    staged.write("requests", RequestRecord.from_dict(_live_record(0)))
    staged.finalize()
    shutil.rmtree(store / shard_dirname(1))
    (staging / shard_dirname(1)).rename(store / shard_dirname(1))
    for _ in range(2):  # refused on every poll, not only the first
        with pytest.raises(StoreRewrittenError, match="shard 1"):
            watcher.poll(resident)
    assert len(resident.folded) == 2


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_incremental_snapshot_equals_fresh(tmp_path_factory, data):
    """Random store events: an incremental snapshot equals a fresh one.

    Shards open (directory, no manifest), finalize out of order, get
    torn manifests, are listed by written and merged round files, are
    compacted into ``index.json``, and prefix shards disappear or are
    replaced by a new directory of the same name.  After every event
    the incremental snapshot (gated and ungated) equals a fresh one,
    and the watcher either folds up to the gated prefix, raises
    :class:`StoreShrunkError` because a folded shard is gone, or raises
    :class:`StoreRewrittenError` because a folded shard was replaced by
    different content.
    """
    store = tmp_path_factory.mktemp("events") / "traces"
    store.mkdir()
    staging = store.parent / "staging"
    staging.mkdir()
    writers: dict[int, tuple] = {}  # open shard index -> (writer, round)
    rounds: dict[int, int] = {}  # every live shard index -> round
    torn: set[int] = set()
    next_index = 0
    previous = {False: None, True: None}
    watcher = StoreWatcher(store, cache=False)
    resident = ResidentAnalysis()
    events = st.sampled_from(
        ["open", "finalize", "round", "tear", "compact", "remove", "replace"]
    )
    for _ in range(data.draw(st.integers(5, 30), label="events")):
        event = data.draw(events, label="event")
        if event == "open":
            round_index = data.draw(
                st.integers(0, max(rounds.values(), default=-1) + 1),
                label="round",
            )
            writers[next_index] = (
                _open_tiny_shard(store, next_index, round_index),
                round_index,
            )
            rounds[next_index] = round_index
            next_index += 1
        elif event == "finalize" and writers:
            index = data.draw(st.sampled_from(sorted(writers)), label="shard")
            writer, _ = writers.pop(index)
            writer.finalize()
            torn.discard(index)
        elif event == "round" and rounds:
            round_index = data.draw(
                st.sampled_from(sorted(set(rounds.values()))), label="round"
            )
            members = sorted(i for i, r in rounds.items() if r == round_index)
            listed = data.draw(
                st.lists(st.sampled_from(members), min_size=1, unique=True),
                label="listed",
            )
            write_round_file(store, round_index, listed)
        elif event == "tear" and writers:
            index = data.draw(st.sampled_from(sorted(writers)), label="shard")
            (store / shard_dirname(index) / "manifest.json").write_text(
                '{"index": %d, "app' % index
            )
            torn.add(index)
        elif event == "compact" and not torn:
            compact_store(store)
        elif event in ("remove", "replace"):
            prefix = take_snapshot(store).manifests
            if prefix:
                index = data.draw(
                    st.sampled_from([m.index for m in prefix]), label="shard"
                )
                if event == "remove":
                    shutil.rmtree(store / shard_dirname(index))
                    del rounds[index]
                else:
                    # Same name, new content.  Staged before the removal,
                    # so the new directory cannot take over the removed
                    # one's inode (the snapshot's reuse key).
                    staged = _open_tiny_shard(staging, index, rounds[index])
                    staged.write("requests", RequestRecord.from_dict(_live_record(0)))
                    staged.finalize()
                    shutil.rmtree(store / shard_dirname(index))
                    (staging / shard_dirname(index)).rename(
                        store / shard_dirname(index)
                    )
        for gated in (False, True):
            previous[gated] = take_snapshot(store, gated, previous=previous[gated])
            assert previous[gated] == take_snapshot(store, gated)
        fresh = take_snapshot(store, complete_rounds_only=True)
        try:
            watcher.poll(resident)
        except StoreRewrittenError:
            assert fresh.n_shards >= len(resident.folded)
            assert not resident.matches_prefix(fresh.manifests)
        except StoreShrunkError:
            assert fresh.n_shards < len(resident.folded)
        else:
            assert watcher.snapshot == fresh
            assert len(resident.folded) == fresh.n_shards
            assert resident.matches_prefix(fresh.manifests)


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(ops=st.lists(st.sampled_from(["ingest", "append"]), min_size=1, max_size=6))
def test_ingest_never_reuses_a_slot_between_batch_appends(tmp_path_factory, ops):
    store = tmp_path_factory.mktemp("interleave") / "traces"
    collect_fleet_to_store(
        FleetSpec(app="webapp", replicas=1, n_requests=8, seed=99), store
    )
    sink = IngestSink(store)
    for number, op in enumerate(ops):
        before = ShardStore(store).manifests
        if op == "ingest":
            sink.write_record("requests", _live_record(number))
            manifest = sink.commit()
            assert manifest.index not in {m.index for m in before}
            assert manifest.round > max((m.round for m in before), default=-1)
        else:
            collect_fleet_to_store(
                FleetSpec(app="webapp", replicas=1, n_requests=8, seed=number),
                store,
                append=True,
            )
    final = ShardStore(store)
    assert [m.index for m in final.manifests] == list(range(len(final)))
    assert final.verify() == {}


def test_daemon_commit_loads_one_manifest_per_new_shard(store, monkeypatch):
    """A commit reads its own new shard's manifest, whatever the store size.

    The first ingest shard open lists the store cold; after it, each
    commit-and-fold loads exactly one manifest, on a 2-shard store and
    again once the store has grown to 10 shards, and the resident
    reducer still equals a batch ``reduce_source`` after every fold.
    """
    for appends in (0, 2):
        for _ in range(appends):
            _append_round(store)
        daemon = ServeDaemon(
            store, ServeConfig(port=0, poll_interval=0, ingest_port=0)
        ).start()
        try:
            with socket.create_connection(daemon.ingest.address) as conn:
                reader = conn.makefile("r")
                for number in range(4):
                    loads = _count_manifest_loads(monkeypatch)
                    for i in range(3):
                        message = {
                            "stream": "requests",
                            "record": _live_record(100 * number + i),
                        }
                        conn.sendall((json.dumps(message) + "\n").encode())
                    conn.sendall(b'{"commit": true}\n')
                    ack = json.loads(reader.readline())
                    assert ack["ok"] is True
                    if number:  # the first shard open is the sink's cold scan
                        shard = store / shard_dirname(ack["shard"])
                        assert loads == [shard / "manifest.json"]
                    monkeypatch.undo()
                    batch, _, _ = reduce_source(str(store))
                    assert _reducer_json(daemon.resident.reducer) == _reducer_json(
                        batch
                    )
        finally:
            daemon.shutdown()


def test_reduce_source_loads_each_manifest_once(store, monkeypatch):
    _append_round(store)
    _append_round(store)
    manifests = sorted(map(str, store.glob("shard-*/manifest.json")))
    assert len(manifests) == 6
    loads = _count_manifest_loads(monkeypatch)
    reduce_source(str(store))
    assert sorted(map(str, loads)) == manifests


# -- CLI satellites ----------------------------------------------------------


def test_cli_verify_ok(store, capsys):
    assert main(["verify", "--in", str(store)]) == 0
    assert "verified: 2 shard(s) intact" in capsys.readouterr().out


def test_cli_verify_corrupt(store, capsys):
    stream = next((store / "shard-00000001").glob("requests.*"))
    with stream.open("ab") as handle:
        handle.write(b"garbage\n")
    assert main(["verify", "--in", str(store)]) == 1
    out = capsys.readouterr().out
    assert "shard 1: content mismatch" in out
    assert "verification FAILED" in out


def test_cli_verify_not_a_store(tmp_path):
    with pytest.raises(SystemExit, match="not a shard store"):
        main(["verify", "--in", str(tmp_path)])


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.strip() == f"repro {tool_version()}"


def test_cli_keyboard_interrupt_exits_130(store, capsys, monkeypatch):
    def interrupt(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli_mod, "_cmd_verify", interrupt)
    assert main(["verify", "--in", str(store)]) == 130
    assert "interrupted" in capsys.readouterr().err


# -- metrics exposition ------------------------------------------------------


def test_metrics_render_and_parse_roundtrip():
    registry = MetricsRegistry()
    registry.counter("repro_things_total", "Things.", ("kind",)).inc(3, kind="a")
    registry.gauge("repro_level", "Level.").set(2.5)
    text = registry.render()
    assert text.endswith("\n")
    assert "# HELP repro_things_total Things." in text
    assert "# TYPE repro_level gauge" in text
    samples = parse_exposition(text)
    assert samples[("repro_things_total", (("kind", "a"),))] == 3.0
    assert samples[("repro_level", ())] == 2.5


def test_metrics_label_escaping_roundtrips():
    registry = MetricsRegistry()
    nasty = 'a\\b"c\nd'
    registry.gauge("repro_paths", "Paths.", ("path",)).set(1.0, path=nasty)
    samples = parse_exposition(registry.render())
    assert samples[("repro_paths", (("path", nasty),))] == 1.0


def test_metrics_registry_conflicts():
    registry = MetricsRegistry()
    counter = registry.counter("repro_x_total", "X.")
    assert registry.counter("repro_x_total", "X.") is counter  # idempotent
    with pytest.raises(ValueError, match="different kind or label"):
        registry.gauge("repro_x_total", "X.")
    with pytest.raises(ValueError, match="different kind or label"):
        registry.counter("repro_x_total", "X.", ("stream",))


def test_metrics_validation():
    with pytest.raises(ValueError, match="invalid metric name"):
        Counter("bad name", "help")
    with pytest.raises(ValueError, match="invalid label name"):
        Gauge("repro_ok", "help", ("bad-label",))
    counter = Counter("repro_ok_total", "help")
    with pytest.raises(ValueError, match=">= 0"):
        counter.inc(-1)
    with pytest.raises(ValueError, match="expects labels"):
        counter.inc(1, stream="x")


def test_parse_exposition_rejects_invalid_text():
    with pytest.raises(ValueError, match="malformed sample"):
        parse_exposition("}{ 1.0")
    with pytest.raises(ValueError, match="invalid TYPE"):
        parse_exposition("# TYPE repro_x flavor\nrepro_x 1")
    with pytest.raises(ValueError, match="duplicate sample"):
        parse_exposition("repro_x 1\nrepro_x 2")
    with pytest.raises(ValueError, match="unterminated label value"):
        parse_exposition('repro_x{a="b} 1')
