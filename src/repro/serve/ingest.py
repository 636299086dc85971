"""Live record ingest: line-delimited JSON sockets → store rounds.

Protocol (one JSON object per line, UTF-8):

* ``{"stream": "requests", "record": {...}}`` — append one record.
  ``stream`` is any trace stream name (``network``, ``cpu``,
  ``memory``, ``storage``, ``requests``, ``spans``) and ``record`` its
  ``to_dict`` form; decoding goes through the stream's ``from_dict``,
  so a malformed record is rejected per-line without killing the
  connection.
* ``{"commit": true}`` (optionally ``{"commit": true, "duration": T}``)
  — finalize the open shard as its own collection round.  The server
  acks ``{"ok": true, "shard": i, "round": r, "records": n}``.
* ``{"ping": true}`` — liveness ack.

Ingested traffic lands in the store through the ordinary
:class:`repro.store.ShardWriter` — manifest, content hashes, round
file and all — so the watcher folds it exactly like an appended
``repro append`` round and batch tools never know the difference.

Concurrency: the sink serializes its own connections (records and
commits) under one lock.  At every shard open it lists the store and
reads the manifest of each shard directory it has not seen before (its
own shards it knows from their commits), so shard/round slots account
for batch ``repro append`` rounds that complete *between* ingest
shards, and a shard open costs one listing plus the new manifests.
A batch append racing an ingest shard that is already **open** is not
coordinated — both writers may claim the same round number.  Round
files merge rather than overwrite, so neither writer's shards are
delisted, but avoid running ``repro append`` against a store while a
daemon is actively ingesting into it.
"""

from __future__ import annotations

import json
import os
import socketserver
import threading
from pathlib import Path
from typing import Any, Callable, Mapping, Optional

from ..store.manifest import (
    MANIFEST_FILENAME,
    ShardManifest,
    parse_shard_index,
    write_round_file,
)
from ..store.writer import ShardWriter, shard_dirname
from ..tracing.store import STREAM_TYPES

__all__ = ["IngestError", "IngestServer", "IngestSink"]


class IngestError(ValueError):
    """A rejected ingest line (bad stream, malformed record, ...)."""


class IngestSink:
    """Serializes ingested records into one store round per commit.

    Thread-safe: concurrent connections interleave records into the
    same open shard; ``commit`` finalizes it atomically and the next
    record opens a fresh shard in a fresh round.
    """

    def __init__(
        self,
        directory: str | Path,
        app: str = "ingest",
        compress: bool = False,
        codec: str = "jsonl",
        seed: int = 0,
    ):
        self.directory = Path(directory)
        self.app = app
        self.compress = compress
        self.codec = codec
        self.seed = seed
        self._lock = threading.Lock()
        self._writer: Optional[ShardWriter] = None
        # Monotonic floors for slot allocation: a shard index / round is
        # never reused even if a manifest scan transiently misses the
        # shard that claimed it (e.g. a manifest mid-finalize).
        self._reserved_index = 0
        self._reserved_round = 0
        # Shard directories whose manifest the sink has read (or
        # written), and the highest index and round among them.
        self._seen: set[str] = set()
        self._max_index = -1
        self._max_round = -1

    def _see(self, name: str, manifest: ShardManifest) -> None:
        self._seen.add(name)
        self._max_index = max(self._max_index, manifest.index)
        self._max_round = max(self._max_round, manifest.round)

    def _next_slots(self) -> tuple[int, int]:
        """Next free (shard index, round index), caller holds the lock.

        Reads the manifests of shard directories not seen before, so
        batch ``repro append`` rounds completed *between* ingest shards
        are accounted for; a directory still without a manifest is
        looked at again next time.  Floored by the sink's own
        reservations so an ingest slot is never handed out twice.  A
        batch append racing an *open* ingest shard is not coordinated
        here (see the module docstring); the round-file merge in
        :func:`repro.store.manifest.write_round_file` keeps even that
        case from delisting either writer's shards.
        """
        if self.directory.is_dir():
            with os.scandir(self.directory) as entries:
                unseen = [
                    entry
                    for entry in entries
                    if entry.name not in self._seen
                    and parse_shard_index(entry.name) is not None
                    and entry.is_dir()
                ]
            for entry in unseen:
                try:
                    manifest = ShardManifest.load(
                        Path(entry.path) / MANIFEST_FILENAME
                    )
                except FileNotFoundError:
                    continue  # shard still being written
                self._see(entry.name, manifest)
        index = max(self._max_index + 1, self._reserved_index)
        round_index = max(self._max_round + 1, self._reserved_round)
        self._reserved_index = index + 1
        self._reserved_round = round_index + 1
        return index, round_index

    def _ensure_writer(self) -> ShardWriter:
        if self._writer is None:
            index, round_index = self._next_slots()
            self._writer = ShardWriter(
                self.directory / shard_dirname(index),
                index=index,
                app=self.app,
                seed=self.seed,
                params={"source": "ingest"},
                compress=self.compress,
                round=round_index,
                codec=self.codec,
            )
        return self._writer

    def write_record(self, stream: str, data: Mapping[str, Any]) -> None:
        """Decode and append one record (raises :class:`IngestError`)."""
        record_cls = STREAM_TYPES.get(stream)
        if record_cls is None:
            raise IngestError(
                f"unknown stream {stream!r} "
                f"(expected one of {sorted(STREAM_TYPES)})"
            )
        try:
            record = record_cls.from_dict(dict(data))
        except (TypeError, ValueError, KeyError) as error:
            raise IngestError(f"malformed {stream} record: {error}") from error
        with self._lock:
            self._ensure_writer().write(stream, record)

    def commit(self, duration: float = 0.0) -> Optional[ShardManifest]:
        """Finalize the open shard as its own round (None if empty).

        The sink lock is held across ``finalize`` and the round-file
        write: until the finalizing shard's manifest is on disk, a
        concurrent :meth:`write_record` opening the next shard could
        otherwise claim the *same* shard index and open a second writer
        on the directory still being closed and hashed.  Commits
        are rare; blocking writers for one finalize is the cheap,
        correct trade.
        """
        with self._lock:
            writer = self._writer
            if writer is None:
                return None
            self._writer = None
            manifest = writer.finalize(max(duration, writer.extent))
            write_round_file(self.directory, manifest.round, [manifest.index])
            self._see(writer.directory.name, manifest)
        return manifest

    def close(self) -> Optional[ShardManifest]:
        """Commit whatever is pending (the daemon-shutdown flush)."""
        return self.commit()


class _IngestHandler(socketserver.StreamRequestHandler):
    """One connection: read lines, apply them, ack commits and errors."""

    def _reply(self, payload: Mapping[str, Any]) -> None:
        self.wfile.write((json.dumps(payload) + "\n").encode())
        self.wfile.flush()

    def handle(self) -> None:
        server: "IngestServer" = self.server.ingest_server  # type: ignore[attr-defined]
        for raw in self.rfile:
            line = raw.decode("utf-8", errors="replace").strip()
            if not line:
                continue
            try:
                message = json.loads(line)
                if not isinstance(message, dict):
                    raise IngestError("each line must be a JSON object")
                if "record" in message or "stream" in message:
                    server.sink.write_record(
                        str(message.get("stream", "")), message.get("record") or {}
                    )
                    server.notify_record(str(message.get("stream", "")))
                elif message.get("commit"):
                    raw_duration = message.get("duration", 0.0)
                    try:
                        duration = float(raw_duration)
                    except (TypeError, ValueError) as error:
                        # Reject *before* committing: a malformed commit
                        # must not run the commit and then die without
                        # an ack (the client would retry a commit that
                        # already happened).
                        raise IngestError(
                            f"bad commit duration {raw_duration!r}"
                        ) from error
                    manifest = server.sink.commit(duration)
                    server.notify_commit(manifest)
                    self._reply(
                        {
                            "ok": True,
                            "shard": manifest.index if manifest else None,
                            "round": manifest.round if manifest else None,
                            "records": manifest.n_records if manifest else 0,
                        }
                    )
                elif message.get("ping"):
                    self._reply({"ok": True})
                else:
                    raise IngestError(
                        "expected a record, commit, or ping message"
                    )
            except (
                IngestError,
                TypeError,
                ValueError,
                json.JSONDecodeError,
            ) as error:
                try:
                    self._reply({"error": str(error)})
                except OSError:
                    return  # peer vanished mid-error; nothing to do


class _TCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


if hasattr(socketserver, "ThreadingUnixStreamServer"):

    class _UnixServer(socketserver.ThreadingUnixStreamServer):  # type: ignore[name-defined]
        daemon_threads = True

else:  # pragma: no cover - non-Unix platforms
    _UnixServer = None  # type: ignore[assignment]


class IngestServer:
    """Socket front-end over an :class:`IngestSink`.

    TCP when ``port`` is given, a Unix domain socket when
    ``socket_path`` is; ``port=0`` binds an ephemeral port (the actual
    address is in :attr:`address` after :meth:`start`).
    """

    def __init__(
        self,
        sink: IngestSink,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
        socket_path: Optional[str | Path] = None,
        on_record: Optional[Callable[[str], None]] = None,
        on_commit: Optional[Callable[[Optional[ShardManifest]], None]] = None,
    ):
        if (port is None) == (socket_path is None):
            raise ValueError("exactly one of port / socket_path is required")
        self.sink = sink
        self.on_record = on_record
        self.on_commit = on_commit
        if port is not None:
            self._server: socketserver.BaseServer = _TCPServer(
                (host, port), _IngestHandler
            )
            self.address: Any = self._server.server_address
        else:
            if _UnixServer is None:  # pragma: no cover - non-Unix platforms
                raise ValueError("unix-socket ingest unsupported on this platform")
            path = Path(socket_path)
            if path.exists():
                path.unlink()
            self._server = _UnixServer(str(path), _IngestHandler)
            self.address = str(path)
        self._server.ingest_server = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    def notify_record(self, stream: str) -> None:
        if self.on_record is not None:
            self.on_record(stream)

    def notify_commit(self, manifest: Optional[ShardManifest]) -> None:
        if self.on_commit is not None:
            self.on_commit(manifest)

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-ingest",
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        if isinstance(self.address, str) and Path(self.address).exists():
            Path(self.address).unlink()
