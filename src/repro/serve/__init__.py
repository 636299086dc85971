"""Online characterization: the ``repro serve`` subsystem.

Turns the batch collect→characterize→validate pipeline into a
long-lived service.  A :class:`ServeDaemon` watches a shard store for
appended rounds (:class:`StoreWatcher`), optionally ingests live
records over a socket (:class:`IngestServer` → normal store rounds),
keeps resident streaming accumulators equal to a batch re-analysis
(:class:`ResidentAnalysis`), checkpoints them between restarts
(:class:`ServeState`), and serves profile / validation / drift /
metrics endpoints over HTTP.  See ``docs/serving.md``.
"""

# Quiet compatibility alias: the canonical constant is
# repro.snapshot.SNAPSHOT_VERSION (the repro.serve.state attribute of the
# old name still works but warns).
from ..snapshot import SNAPSHOT_VERSION as SERVE_STATE_VERSION

from .. import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    ".daemon": ("ServeConfig", "ServeDaemon", "ServeError"),
    ".drift": (
        "Alarm", "DriftBaseline", "DriftMonitor", "DriftReport",
        "DriftThresholds",
    ),
    ".ingest": ("IngestError", "IngestServer", "IngestSink"),
    ".metrics": ("Counter", "Gauge", "MetricsRegistry", "parse_exposition"),
    ".state": (
        "SERVE_STATE_FORMAT", "FoldedShard", "ResidentAnalysis", "ServeState",
    ),
    ".watcher": ("PollResult", "StoreWatcher"),
})

__all__ = [
    "Alarm",
    "Counter",
    "DriftBaseline",
    "DriftMonitor",
    "DriftReport",
    "DriftThresholds",
    "FoldedShard",
    "Gauge",
    "IngestError",
    "IngestServer",
    "IngestSink",
    "MetricsRegistry",
    "PollResult",
    "ResidentAnalysis",
    "SERVE_STATE_FORMAT",
    "SERVE_STATE_VERSION",
    "ServeConfig",
    "ServeDaemon",
    "ServeError",
    "ServeState",
    "StoreWatcher",
    "parse_exposition",
]
