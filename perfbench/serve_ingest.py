"""The ``serve-ingest`` workload: live ingest into ``repro serve``.

The daemon runs as its own process (``python -m repro serve
--poll-interval 0 --ingest-port 0``), so the generator never shares
its interpreter lock.  One client drives a closed loop over a fixed
feed of webapp records, round after round:

1. send one batch of records, then a ping, and wait for the ping's
   reply: every record of the batch has been parsed and written;
2. send a commit and wait for its ack, which means the round is folded
   and visible (``commit_*_ms``);
3. ``GET /profile?format=text`` (``profile_p50_ms``).

A session is one daemon from start to shutdown on a fresh copy of the
seed store; sessions repeat until the run's time is up.  Commit latency
grows with the number of rounds a daemon has folded, so every session
runs the same number of rounds.
"""

from __future__ import annotations

import http.client
import json
import re
import shutil
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from .harness import (
    Run,
    SpeedScale,
    peak_rss_mb,
    repro_cli,
    stage_note,
    timed_passes,
    verify_store,
)
from .layers import layer_metrics, pass_values
from .metrics import median, metric, percentile

#: Seed store the daemon starts on: a small two-replica webapp shard
#: store (jsonl).
SEED_COLLECT = ["--app", "webapp", "--replicas", "2", "--requests", "100"]
#: Feed the generator replays each session: ~21k webapp records.
FEED_REQUESTS = 700
#: Rounds per session, each one batch of ~260 records and one commit;
#: 80 rounds give 80 commit samples per session, and three sessions
#: the 100 a p90 needs (ten samples beyond it).
ROUNDS = 80
MIN_SESSIONS = 3
#: Rounds between two calibration loops (see ``harness.SpeedScale``).
CALIBRATION_ROUNDS = 10

_PING = b'{"ping": true}\n'
_COMMIT = b'{"commit": true}\n'


def _feed_batches(store: Path) -> list[tuple[bytes, int]]:
    """The feed store's records as ROUNDS encoded ingest batches.

    Round ``r`` carries the ``r``-th contiguous slice of every stream,
    so each round covers about the same stretch of simulated time.
    """
    from repro.tracing import load_traces

    source = load_traces(store)
    per_stream = {
        stream: [
            json.dumps({"stream": stream, "record": record.to_dict()})
            for record in source.iter_records(stream)
        ]
        for stream in source.streams()
    }
    batches = []
    for r in range(ROUNDS):
        lines = []
        for records in per_stream.values():
            lo = len(records) * r // ROUNDS
            hi = len(records) * (r + 1) // ROUNDS
            lines.extend(records[lo:hi])
        batches.append((("\n".join(lines) + "\n").encode(), len(lines)))
    return batches


class _Daemon:
    """One ``repro serve`` child process and the client's ingest connection."""

    def __init__(self, run: Run, store: Path, spans_out: Path | None):
        serve = ["serve", "--in", str(store), "--port", "0",
                 "--poll-interval", "0", "--ingest-port", "0"]
        if spans_out is None:
            argv = [sys.executable, "-m", "repro", *serve]
        else:
            child = run.root / "perfbench" / "serve_child.py"
            argv = [sys.executable, str(child), "--spans-out", str(spans_out), *serve]
        start = time.perf_counter()
        self.proc = subprocess.Popen(argv, cwd=run.root, env=run.child_env(),
                                     stdout=subprocess.PIPE)
        try:
            http_port = self._port(r"serving .* on http://[^:]+:(\d+)")
            ingest_port = self._port(r"ingest listening on .*?(\d+)\)?$")
            self.http_port = http_port
            status, _ = self.get("/healthz")
            self.setup_s = time.perf_counter() - start
            run.check(status == 200, f"/healthz answered {status}")
            self.sock = socket.create_connection(("127.0.0.1", ingest_port), timeout=60)
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.replies = self.sock.makefile("rb")
        except BaseException:
            self.stop()
            raise

    def _port(self, pattern: str) -> int:
        line = self.proc.stdout.readline().decode().strip()
        match = re.search(pattern, line)
        if match is None:
            raise RuntimeError(f"unexpected daemon output {line!r}")
        return int(match.group(1))

    def get(self, path: str) -> tuple[int, str]:
        """One GET on a fresh connection, as ``urllib`` clients make it."""
        conn = http.client.HTTPConnection("127.0.0.1", self.http_port, timeout=60)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read().decode()
        finally:
            conn.close()

    def reply(self, run: Run) -> dict:
        """The next ingest reply that is not an error (errors count as
        failed operations)."""
        while True:
            line = self.replies.readline()
            if not line:
                raise ConnectionError("ingest connection closed")
            message = json.loads(line)
            if "error" not in message:
                return message
            run.check(False, f"ingest error reply: {message['error']}")

    def stop(self) -> None:
        for closer in ("replies", "sock"):
            if hasattr(self, closer):
                getattr(self, closer).close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def _round(run: Run, daemon: _Daemon, batch: bytes, n: int) -> tuple[float, float, float]:
    """One closed-loop round; returns raw (write, commit, profile) seconds."""
    sent = time.perf_counter()
    daemon.sock.sendall(batch + _PING)
    daemon.reply(run)
    written = time.perf_counter()
    daemon.sock.sendall(_COMMIT)
    ack = daemon.reply(run)
    committed = time.perf_counter()
    status, _ = daemon.get("/profile?format=text")
    done = time.perf_counter()
    run.attempted += n
    run.check(ack.get("ok") is True and ack.get("records") == n,
              f"commit ack {ack} for {n} records")
    run.check(status == 200, f"/profile answered {status}")
    return written - sent, committed - written, done - committed


def run_serve_ingest(run: Run) -> dict:
    seed_store = run.work / "seed-store"
    feed_store = run.work / "feed"
    repro_cli(run, ["collect", *SEED_COLLECT, "--seed", run.seed,
                    "--workers", 1, "--out", seed_store])
    repro_cli(run, ["collect", "--app", "webapp", "--requests", FEED_REQUESTS,
                    "--seed", run.pass_seed(1), "--workers", 1, "--out", feed_store])
    batches = _feed_batches(feed_store)
    n_records = sum(n for _, n in batches)
    scale = SpeedScale()

    setups: list[float] = []
    rss: list[float] = []
    walls: list[float] = []
    raw_walls: list[float] = []
    rates: list[float] = []
    commits: list[float] = []
    profiles: list[float] = []
    traced_walls: list[float] = []
    layer_passes: list[dict] = []

    def session(index: int, traced: bool) -> None:
        store = run.work / f"session-{index}-{int(traced)}"
        shutil.copytree(seed_store, store)
        spans_out = run.work / f"spans-{index}.json" if traced else None
        scale.sample()
        daemon = _Daemon(run, store, spans_out)
        rounds = []
        try:
            scale.sample()
            for first in range(0, ROUNDS, CALIBRATION_ROUNDS):
                rounds += [_round(run, daemon, *batch)
                           for batch in batches[first:first + CALIBRATION_ROUNDS]]
                scale.sample()
            status, served = daemon.get("/profile?format=text")
            run.check(status == 200, f"/profile answered {status}")
            daemon_rss = peak_rss_mb(daemon.proc.pid)
        finally:
            daemon.stop()
        factor = scale.close()
        run.check(daemon.proc.returncode == 0,
                  f"daemon exited {daemon.proc.returncode}")
        _, batch_out = repro_cli(run, ["characterize", "--in", store, "--no-cache"])
        run.check(served == batch_out,
                  "final /profile differs from batch characterize")
        verify_store(run, store)
        shutil.rmtree(store)
        raw_wall = sum(sum(r) for r in rounds)
        wall = raw_wall * factor
        if traced:
            spans = json.loads(spans_out.read_text())
            traced_walls.append(wall)
            layer_passes.append(pass_values(
                spans["self_times"], spans["counts"],
                outer_stage=("serve", raw_wall), factor=factor,
            ))
            return
        setups.append(daemon.setup_s * factor)
        rss.append(daemon_rss)
        walls.append(wall)
        raw_walls.append(raw_wall)
        rates.append(n_records / (factor * sum(write for write, _, _ in rounds)))
        commits.extend(commit * factor * 1e3 for _, commit, _ in rounds)
        profiles.extend(profile * factor * 1e3 for _, _, profile in rounds)

    sessions = timed_passes(run, session, MIN_SESSIONS)
    print(f"serve-ingest: {sessions} sessions of {ROUNDS} rounds, "
          f"{n_records} records each, median raw session {median(raw_walls):.3f} s, "
          f"median speed scale {median(scale.factors):.3f}")
    stages = {
        "ingest_records_per_s": median(rates),
        "commit_p50_ms": percentile(commits, 0.5),
        "commit_p90_ms": percentile(commits, 0.9),
        "profile_p50_ms": percentile(profiles, 0.5),
    }
    print(stage_note(stages))
    if run.trace:
        return layer_metrics(layer_passes, traced_walls, walls, stages)
    return {
        "setup_s": metric(median(setups), "s"),
        "wall_s": metric(median(walls), "s"),
        "peak_rss_mb": metric(median(rss), "MB"),
    }
