"""The ``repro serve`` daemon: characterization as a service.

One long-lived process tying the serve subsystem together:

* verifies the store's content hashes at startup (a corrupt store is
  refused, same check as ``repro verify``),
* restores resident accumulators from a :class:`ServeState` checkpoint
  when one matches the store, else cold-folds through the shared
  analysis cache,
* polls :class:`~repro.serve.watcher.StoreWatcher` so appended rounds
  fold in while the daemon runs (and feed the drift window),
* optionally ingests live records over a socket
  (:mod:`repro.serve.ingest`), each commit becoming a normal store
  round the next poll folds,
* serves ``/healthz``, ``/metrics``, ``/profile``, ``/validate`` and
  ``/drift`` from a threaded stdlib HTTP server.

``/profile?format=text`` returns exactly what batch
``repro characterize`` prints for the same store and parameters — the
equality the tests and the CI smoke job diff byte-for-byte.
"""

from __future__ import annotations

import dataclasses
import json
import threading
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Optional
from urllib.parse import parse_qs, urlparse

from .._version import tool_version
from ..store.analyze import validate_per_class
from ..store.shards import ShardStore, is_shard_store, shifter_for
from ..store.training import load_per_class_models
from ..tracing.store import iter_directory_records
from .drift import DriftBaseline, DriftMonitor, DriftThresholds
from .ingest import IngestServer, IngestSink
from .metrics import MetricsRegistry
from .state import ResidentAnalysis, ServeState
from .watcher import PollResult, StoreWatcher

__all__ = ["ServeConfig", "ServeDaemon", "ServeError"]


class ServeError(RuntimeError):
    """The daemon cannot (or refuses to) start."""


@dataclass
class ServeConfig:
    """Everything ``repro serve`` can tune."""

    host: str = "127.0.0.1"
    port: int = 9090
    #: Seconds between store polls; <= 0 disables the poll thread
    #: (polls then only happen via :meth:`ServeDaemon.poll_once`).
    poll_interval: float = 2.0
    #: Analysis parameters — must match the batch run you want
    #: ``/profile`` to be byte-equal with.
    window: float = 0.25
    cores: int = 8
    max_quantile_values: Optional[int] = None
    cache: bool = True
    #: Fold only whole recorded rounds (see ``repro.store.watch``).
    complete_rounds_only: bool = True
    #: Trained per-class KOOZA models (``repro train --per-class``);
    #: enables ``/validate`` and model-based drift baselines.
    model_path: Optional[Path] = None
    checkpoint_path: Optional[Path] = None
    #: Live-ingest listeners (either, both, or neither).
    ingest_port: Optional[int] = None
    ingest_host: str = "127.0.0.1"
    ingest_socket: Optional[Path] = None
    ingest_codec: str = "jsonl"
    #: Drift window: last N completed requests, rate over keep×window s.
    drift_window_requests: int = 256
    drift_rate_window: float = 1.0
    drift_rate_keep: int = 60
    drift_seed: int = 42
    thresholds: DriftThresholds = field(default_factory=DriftThresholds)


class ServeDaemon:
    """Owns the resident analysis and every serving thread."""

    def __init__(self, directory: str | Path, config: Optional[ServeConfig] = None):
        self.directory = Path(directory)
        self.config = config or ServeConfig()
        self.registry = MetricsRegistry()
        self._lock = threading.RLock()
        self.resident: ResidentAnalysis = ResidentAnalysis(
            window=self.config.window,
            cores=self.config.cores,
            max_quantile_values=self.config.max_quantile_values,
        )
        self.watcher = StoreWatcher(
            self.directory,
            cache=self.config.cache,
            complete_rounds_only=self.config.complete_rounds_only,
        )
        self.models: Optional[dict[str, Any]] = None
        self.monitor: Optional[DriftMonitor] = None
        self.restored_from_checkpoint = False
        self._http: Optional[ThreadingHTTPServer] = None
        self._http_thread: Optional[threading.Thread] = None
        self._poll_thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self.ingest: Optional[IngestServer] = None
        self._validation_cache: Optional[tuple[int, Any]] = None
        self._init_metrics()

    # -- startup -------------------------------------------------------------

    def start(self) -> "ServeDaemon":
        """Verify, warm-load, baseline, then start all serving threads."""
        config = self.config
        if not is_shard_store(self.directory):
            raise ServeError(f"{self.directory} is not a shard store")
        store = ShardStore(self.directory)
        bad = store.verify()
        if bad:
            detail = "; ".join(
                f"shard {index}: {', '.join(streams)}"
                for index, streams in sorted(bad.items())
            )
            raise ServeError(
                f"refusing to serve {self.directory}: content-hash "
                f"verification failed ({detail}) — see `repro verify`"
            )
        if config.model_path is not None:
            try:
                self.models = load_per_class_models(config.model_path)
            except (OSError, ValueError) as error:
                raise ServeError(f"cannot load models: {error}") from error
        self._restore_checkpoint()
        self.poll_once()  # cold-fold (or top up) the current prefix
        self._build_monitor()
        self._http = ThreadingHTTPServer(
            (config.host, config.port), _EndpointHandler
        )
        self._http.daemon_ref = self  # type: ignore[attr-defined]
        self._http.daemon_threads = True
        self._http_thread = threading.Thread(
            target=self._http.serve_forever, name="repro-serve-http", daemon=True
        )
        self._http_thread.start()
        if config.ingest_port is not None or config.ingest_socket is not None:
            sink = IngestSink(
                self.directory, codec=config.ingest_codec
            )
            self.ingest = IngestServer(
                sink,
                host=config.ingest_host,
                port=config.ingest_port,
                socket_path=config.ingest_socket,
                on_record=self._on_ingest_record,
                on_commit=self._on_ingest_commit,
            )
            self.ingest.start()
        if config.poll_interval > 0:
            self._poll_thread = threading.Thread(
                target=self._poll_loop, name="repro-serve-poll", daemon=True
            )
            self._poll_thread.start()
        return self

    def _restore_checkpoint(self) -> None:
        path = self.config.checkpoint_path
        if path is None or not Path(path).exists():
            return
        try:
            state = ServeState.load(path)
        except (OSError, ValueError, KeyError, json.JSONDecodeError):
            return  # unreadable/stale checkpoint: cold-fold instead
        resident = state.resident
        if (
            resident.window != self.config.window
            or resident.cores != self.config.cores
            or resident.max_quantile_values != self.config.max_quantile_values
        ):
            return
        snapshot = self.watcher.refresh()
        if not resident.matches_prefix(snapshot.manifests):
            return
        with self._lock:
            self.resident = resident
            self.restored_from_checkpoint = True
            self._drift_state = state.drift

    def _make_baseline(self) -> DriftBaseline:
        """Drift baseline from the loaded models or the folded history.

        Caller holds the lock.
        """
        resident = self.resident
        counts = dict(resident.builder.class_counts.counts)
        total = sum(counts.values())
        extent = resident.builder.max_extent
        mean_rate = total / extent if extent > 0 else 0.0
        if self.models:
            return DriftBaseline.from_models(
                self.models, counts, mean_rate, seed=self.config.drift_seed
            )
        return DriftBaseline.from_resident(resident)

    def _build_monitor(self) -> None:
        config = self.config
        with self._lock:
            self.monitor = DriftMonitor(
                self._make_baseline(),
                window_requests=config.drift_window_requests,
                rate_window=config.drift_rate_window,
                rate_keep=config.drift_rate_keep,
                thresholds=config.thresholds,
            )
            drift_state = getattr(self, "_drift_state", None)
            if drift_state is not None:
                try:
                    self.monitor.restore(drift_state)
                except (ValueError, KeyError, TypeError):
                    pass  # incompatible window: start the window empty

    # -- folding / polling ---------------------------------------------------

    def poll_once(self) -> PollResult:
        """One watcher poll: fold new shards, feed drift, update metrics."""
        with self._lock:
            result = self.watcher.poll(self.resident)
            if result.folded:
                # A daemon started on an empty (or request-free) store
                # baselined against zero latencies; rebuild from the
                # now-folded history so drift can ever become ready.
                if (
                    self.monitor is not None
                    and self.monitor.baseline.latencies.size == 0
                ):
                    self.monitor.baseline = self._make_baseline()
                self._feed_drift(result)
                self._validation_cache = None
            self._update_metrics(result)
        if result.folded and self.config.checkpoint_path is not None:
            self.checkpoint()
        return result

    def _feed_drift(self, result: PollResult) -> None:
        if self.monitor is None:
            return
        snapshot = result.snapshot
        for manifest in result.folded:
            shift = shifter_for("requests", snapshot.offsets[manifest.index])
            records = iter_directory_records(
                snapshot.dirs[manifest.index], "requests"
            )
            for record in records:
                self.monitor.observe(shift(record))
        report = self.monitor.check()
        self._publish_drift(report)

    def _poll_loop(self) -> None:
        while not self._stop.wait(self.config.poll_interval):
            try:
                self.poll_once()
            except Exception:  # noqa: BLE001 - keep serving on poll errors
                self.registry.counter(
                    "repro_poll_errors_total", "Store polls that raised."
                ).inc()

    def _on_ingest_record(self, stream: str) -> None:
        self._ingest_records.inc(stream=stream or "unknown")

    def _on_ingest_commit(self, manifest) -> None:
        self._ingest_commits.inc()
        # Fold the committed round immediately rather than on the next
        # poll tick, so an ingest client's commit ack means "visible".
        try:
            self.poll_once()
        except Exception:  # noqa: BLE001
            pass

    # -- metrics -------------------------------------------------------------

    def _init_metrics(self) -> None:
        registry = self.registry
        registry.gauge(
            "repro_build_info", "Daemon build metadata.", ("version",)
        ).set(1.0, version=tool_version())
        self._records = registry.counter(
            "repro_records_total",
            "Records folded into the resident profile, by stream.",
            ("stream",),
        )
        self._requests = registry.counter(
            "repro_requests_total",
            "Completed requests folded, by request class.",
            ("request_class",),
        )
        self._rate = registry.gauge(
            "repro_request_rate_per_second",
            "Mean completed-request rate over the folded history.",
        )
        self._class_rate = registry.gauge(
            "repro_request_class_rate_per_second",
            "Mean completed-request rate per class over the folded history.",
            ("request_class",),
        )
        self._folds = registry.counter(
            "repro_folds_total", "Watcher polls that folded new shards."
        )
        self._fold_seconds = registry.counter(
            "repro_fold_seconds_total", "Wall seconds spent folding shards."
        )
        self._shards = registry.gauge(
            "repro_shards_folded", "Shards in the resident prefix."
        )
        self._generation = registry.gauge(
            "repro_profile_generation", "Fold generation of the profile."
        )
        self._cache_hits = registry.counter(
            "repro_cache_hits_total", "Per-shard analysis cache hits."
        )
        self._cache_misses = registry.counter(
            "repro_cache_misses_total", "Per-shard analysis cache misses."
        )
        self._http_requests = registry.counter(
            "repro_http_requests_total", "HTTP requests served.", ("path",)
        )
        self._ingest_records = registry.counter(
            "repro_ingest_records_total",
            "Records accepted over the ingest socket, by stream.",
            ("stream",),
        )
        self._ingest_commits = registry.counter(
            "repro_ingest_commits_total", "Ingest rounds committed."
        )
        self._drift_ks = registry.gauge(
            "repro_drift_ks", "KS distance, drift window vs baseline."
        )
        self._drift_mix = registry.gauge(
            "repro_drift_mix_distance",
            "Total-variation distance of the class mix vs baseline.",
        )
        self._drift_rate_z = registry.gauge(
            "repro_drift_rate_zscore", "Request-rate z-score vs baseline."
        )
        self._drift_alarm = registry.gauge(
            "repro_drift_alarm", "Drift alarm state (1 firing).", ("signal",)
        )

    def _update_metrics(self, result: PollResult) -> None:
        for manifest in result.folded:
            for stream, count in manifest.counts.items():
                if count:
                    self._records.inc(count, stream=stream)
            for cls_name, count in manifest.request_classes.items():
                self._requests.inc(count, request_class=cls_name)
        if result.folded:
            self._folds.inc()
        self._fold_seconds.inc(result.elapsed_seconds)
        self._cache_hits.inc(result.cache_hits)
        self._cache_misses.inc(result.cache_misses)
        self._shards.set(len(self.resident.folded))
        self._generation.set(self.resident.generation)
        builder = self.resident.builder
        extent = builder.max_extent
        if extent > 0:
            counts = builder.class_counts.counts
            self._rate.set(sum(counts.values()) / extent)
            for cls_name, count in counts.items():
                self._class_rate.set(count / extent, request_class=cls_name)

    def _publish_drift(self, report) -> None:
        self._drift_ks.set(report.ks)
        self._drift_mix.set(report.mix_distance)
        self._drift_rate_z.set(report.rate_zscore)
        for signal, firing in report.alarms.items():
            self._drift_alarm.set(1.0 if firing else 0.0, signal=signal)

    # -- endpoint payloads (handler calls these under no extra lock) ---------

    def healthz(self) -> dict[str, Any]:
        with self._lock:
            return {
                "status": "ok",
                "version": tool_version(),
                "store": str(self.directory),
                "shards": len(self.resident.folded),
                "generation": self.resident.generation,
                "requests": self.resident.n_requests,
                "ingest": self.ingest is not None,
                "restored_from_checkpoint": self.restored_from_checkpoint,
            }

    def profile_text(self) -> str:
        with self._lock:
            return self.resident.profile().describe() + "\n"

    def profile_json(self) -> dict[str, Any]:
        with self._lock:
            profile = self.resident.profile()
            return {
                "generation": self.resident.generation,
                "shards": len(self.resident.folded),
                "profile": dataclasses.asdict(profile),
                "describe": profile.describe(),
            }

    def validation(self):
        if not self.models:
            raise ServeError("no per-class model loaded (start with --model)")
        with self._lock:
            generation = self.resident.generation
            if (
                self._validation_cache is not None
                and self._validation_cache[0] == generation
            ):
                return self._validation_cache[1]
            result = validate_per_class(
                None,
                models=self.models,
                seed=self.config.drift_seed,
                analysis=self.resident.analysis(),
            )
            self._validation_cache = (generation, result)
            return result

    def drift_report(self):
        with self._lock:
            if self.monitor is None:
                raise ServeError("drift monitoring is not initialized")
            report = self.monitor.check()
            self._publish_drift(report)
            return report

    # -- lifecycle -----------------------------------------------------------

    @property
    def http_address(self) -> tuple[str, int]:
        if self._http is None:
            raise ServeError("daemon not started")
        host, port = self._http.server_address[:2]
        return str(host), int(port)

    def checkpoint(self) -> Optional[Path]:
        path = self.config.checkpoint_path
        if path is None:
            return None
        with self._lock:
            state = ServeState(
                resident=self.resident,
                drift=self.monitor.state() if self.monitor else None,
                tool_version=tool_version(),
                store=str(self.directory),
            )
            return state.save(path)

    def shutdown(self) -> None:
        """Stop threads, flush pending ingest, write the checkpoint."""
        self._stop.set()
        if self._poll_thread is not None:
            self._poll_thread.join(timeout=10.0)
            self._poll_thread = None
        if self.ingest is not None:
            self.ingest.stop()
            manifest = self.ingest.sink.close()
            if manifest is not None:
                try:
                    self.poll_once()  # fold the flushed round
                except Exception:  # noqa: BLE001
                    pass
            self.ingest = None
        if self._http is not None:
            self._http.shutdown()
            self._http.server_close()
            if self._http_thread is not None:
                self._http_thread.join(timeout=5.0)
                self._http_thread = None
            self._http = None
        self.checkpoint()


class _EndpointHandler(BaseHTTPRequestHandler):
    """Routes GETs to the daemon's payload methods."""

    server_version = "repro-serve"
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # metrics carry the request counts; stderr stays quiet

    def _send(self, status: int, body: bytes, content_type: str) -> None:
        """Send the whole reply in one write.

        Headers and body as two writes let Nagle's algorithm hold the
        body until the client's delayed ACK of the headers, stalling a
        kept-alive connection by tens of milliseconds per reply.
        """
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        # send_header buffers its lines here (absent for HTTP/0.9,
        # which gets no headers); end_headers would flush them alone.
        head = getattr(self, "_headers_buffer", None)
        if head:
            head.append(b"\r\n")
            body = b"".join(head) + body
            self._headers_buffer = []
        self.wfile.write(body)

    def _send_json(self, status: int, payload: Any) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        self._send(status, body, "application/json")

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        self._send(status, text.encode(), content_type)

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        daemon: ServeDaemon = self.server.daemon_ref  # type: ignore[attr-defined]
        parsed = urlparse(self.path)
        path = parsed.path.rstrip("/") or "/"
        query = parse_qs(parsed.query)
        as_text = query.get("format", [""])[0] == "text"
        daemon._http_requests.inc(path=path)
        try:
            if path in ("/", "/healthz"):
                self._send_json(200, daemon.healthz())
            elif path == "/metrics":
                self._send_text(
                    200,
                    daemon.registry.render(),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            elif path == "/profile":
                if as_text:
                    self._send_text(
                        200, daemon.profile_text(), "text/plain; charset=utf-8"
                    )
                else:
                    self._send_json(200, daemon.profile_json())
            elif path == "/validate":
                result = daemon.validation()
                if as_text:
                    self._send_text(
                        200,
                        result.to_table() + "\n",
                        "text/plain; charset=utf-8",
                    )
                else:
                    self._send_json(
                        200,
                        {
                            "table": result.to_table(),
                            "n_validated": result.n_validated,
                            "classes": [
                                {
                                    "request_class": c.request_class,
                                    "n_original": c.n_original,
                                    "n_synthetic": c.n_synthetic,
                                    "error": c.error,
                                }
                                for c in result.classes
                            ],
                        },
                    )
            elif path == "/drift":
                self._send_json(200, daemon.drift_report().to_dict())
            else:
                self._send_json(404, {"error": f"unknown path {path!r}"})
        except ServeError as error:
            self._send_json(503, {"error": str(error)})
        except Exception as error:  # noqa: BLE001 - keep the daemon alive
            self._send_json(500, {"error": f"{type(error).__name__}: {error}"})
