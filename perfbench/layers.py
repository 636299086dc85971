"""The layer map: which public functions the traced run wraps, and the
per-layer metrics their spans and counts become.

Span names are ``<layer>.<part>``; a span's self time is reported as
``<layer>.<part>_s``.  Stages (``collect``, ``analyze``, ``train``,
``validate``, ``plan``, ``serve``) are the spans the workloads open
around each command; a stage span's self time is ``<stage>.other_s``,
the part of the stage no named layer covers.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Optional

from .metrics import check_name, median, metric, other_time
from .spans import Layer, SpanRecorder, install

__all__ = [
    "COUNTS",
    "STAGE_METRICS",
    "STAGES",
    "TIMED_LAYERS",
    "install_layers",
    "layer_metrics",
    "pass_values",
    "per_layer_names",
]


def _engine_steps(env_of: Callable[[tuple], Any]):
    """Count engine steps taken by the call, as replay steps when the
    call runs inside a replay."""

    def hook(recorder: SpanRecorder, absorber: Optional[str], args: tuple):
        env = env_of(args)
        before = env.steps
        name = (
            "validate.replay_steps"
            if absorber == "validate.replay"
            else "collect.engine_steps"
        )
        return lambda _result: recorder.count(name, env.steps - before)

    return hook


def _counter(name: str):
    def hook(recorder: SpanRecorder, absorber: Optional[str], args: tuple):
        recorder.count(name)
        return None

    return hook


def _cache_outcome(recorder: SpanRecorder, absorber: Optional[str], args: tuple):
    def after(entry: Any) -> None:
        recorder.count("analyze.cache_misses" if entry is None else "analyze.cache_hits")

    return after


#: Layers every workload traces, in pipeline order.
PIPELINE_LAYERS = [
    Layer("repro.simulation.engine", "Environment.run", "collect.engine",
          hook=_engine_steps(lambda args: args[0])),
    Layer("repro.datacenter.session", "ReplicaSession.advance_progress",
          "collect.engine", hook=_engine_steps(lambda args: args[0].env)),
    Layer("repro.store.writer", "ShardWriter.write", "collect.write",
          hook=_counter("collect.records")),
    Layer("repro.store.writer", "ShardWriter.finalize", "collect.finalize"),
    Layer("repro.datacenter.session", "ReplicaSession.checkpoint",
          "collect.checkpoint"),
    Layer("repro.store.shards", "ShardStore.load_shard_stream_columns",
          "analyze.decode"),
    Layer("repro.core.profile", "WorkloadProfileBuilder.update_batch",
          "analyze.profile_fold"),
    Layer("repro.core.features", "request_feature_columns",
          "analyze.feature_join"),
    Layer("repro.core.validation", "WorkloadFeatureStats.from_feature_columns",
          "analyze.feature_fold"),
    Layer("repro.core.profile", "WorkloadProfileBuilder.merge", "analyze.merge"),
    Layer("repro.core.validation", "WorkloadFeatureStats.merge", "analyze.merge"),
    Layer("repro.store.cache", "load_analysis_cache", "analyze.cache_load",
          hook=_cache_outcome),
    Layer("repro.store.cache", "save_analysis_cache", "analyze.cache_save"),
    Layer("repro.store.shards", "ShardStore.class_traces", "train.class_read"),
    Layer("repro.core.features", "extract_request_features", "train.features"),
    Layer("repro.core.trainer", "KoozaTrainer.fit", "train.fit"),
    Layer("repro.core.model", "KoozaModel.synthesize", "validate.synthesize"),
    # A replay drives its own engine; its steps count as replay steps
    # and its engine time stays inside validate.replay.
    Layer("repro.core.replay", "ReplayHarness.replay", "validate.replay",
          absorb=True),
    # Feature extraction of the replayed trace belongs to validate.
    Layer("repro.core.validation", "WorkloadFeatureStats.from_source",
          "validate.features", absorb=True),
    Layer("repro.core.validation", "compare_feature_stats", "validate.compare"),
    Layer("repro.queueing.plan", "fit_cluster_model", "plan.fit"),
    Layer("repro.queueing.plan", "plan_sweep", "plan.sweep"),
    Layer("repro.queueing.plan", "cross_validate", "plan.xval"),
]

#: Layers only the serve daemon traces.
SERVE_LAYERS = [
    Layer("repro.serve.ingest", "IngestSink.write_record", "serve.ingest_write"),
    Layer("repro.serve.ingest", "IngestSink.commit", "serve.commit"),
    Layer("repro.store.watch", "take_snapshot", "serve.snapshot"),
    Layer("repro.store.manifest", "ShardManifest.load", None,
          hook=_counter("serve.manifest_loads")),
    Layer("repro.store.analyze", "analyze_shard", "serve.fold"),
    Layer("repro.serve.state", "ResidentAnalysis.fold", "serve.fold"),
    Layer("repro.serve.drift", "DriftMonitor.observe", "serve.drift"),
    Layer("repro.serve.drift", "DriftMonitor.check", "serve.drift"),
    Layer("repro.serve.daemon", "ServeDaemon.profile_text", "serve.profile_render"),
]

STAGES = ("collect", "analyze", "train", "validate", "plan", "serve")

#: Every named layer span, in report order.
TIMED_LAYERS = tuple(
    dict.fromkeys(
        layer.span for layer in PIPELINE_LAYERS + SERVE_LAYERS if layer.span
    )
)

COUNTS = (
    "collect.engine_steps",
    "collect.records",
    "analyze.cache_hits",
    "analyze.cache_misses",
    "validate.replay_steps",
    "serve.manifest_loads",
)

TRACE_METRICS = ("trace.overhead_s", "trace.traced_wall_s", "trace.untraced_wall_s")

#: Stage figures of the untraced passes of a traced run: (name, unit).
#: Each applies to one or two workloads and reads 0 on the others.
STAGE_METRICS = (
    ("collect_s", "s"),
    ("characterize_s", "s"),
    ("train_s", "s"),
    ("validate_s", "s"),
    ("plan_s", "s"),
    ("table2_latency_dev_pct", "%"),
    ("ingest_records_per_s", "1/s"),
    ("commit_p50_ms", "ms"),
    ("commit_p90_ms", "ms"),
    ("profile_p50_ms", "ms"),
)


def per_layer_names() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in report order."""
    names = [(f"{span}_s", "s") for span in TIMED_LAYERS]
    names += [(name, "count") for name in COUNTS]
    names += [(f"{stage}.other_s", "s") for stage in STAGES]
    names += [(name, "s") for name in TRACE_METRICS]
    names += list(STAGE_METRICS)
    for name, _ in names:
        check_name(name)
    return names


def install_layers(recorder: SpanRecorder, serve: bool = False) -> Callable[[], None]:
    """Wrap the pipeline layers (and the serve layers when ``serve``)."""
    layers = PIPELINE_LAYERS + (SERVE_LAYERS if serve else [])
    # Load every module that binds a layer function by name first, so
    # install() finds and replaces each binding.
    for module in dict.fromkeys(layer.module for layer in layers):
        importlib.import_module(module)
    for module in ("repro.cli", "repro.core", "repro.store", "repro.serve"):
        importlib.import_module(module)
    return install(recorder, layers)


def pass_values(self_times: dict[str, float], counts: dict[str, float],
                outer_stage: Optional[tuple[str, float]] = None,
                factor: float = 1.0) -> dict[str, float]:
    """One traced pass as per-layer values (self times and counts).

    A stage's span self time is its ``other_s``.  ``outer_stage`` names
    a stage whose wall time was measured outside the traced process
    (the serve daemon's client): every recorded span belongs to it, so
    its ``other_s`` is that wall time minus all recorded self times.
    Layers and stages the pass never entered read 0.  Times are
    multiplied by ``factor``, the pass's speed scale.
    """
    values = {f"{span}_s": self_times.get(span, 0.0) for span in TIMED_LAYERS}
    values.update(
        {f"{stage}.other_s": self_times.get(stage, 0.0) for stage in STAGES}
    )
    if outer_stage is not None:
        stage, wall = outer_stage
        values[f"{stage}.other_s"] = other_time(wall, self_times)
    values = {name: value * factor for name, value in values.items()}
    values.update({name: float(counts.get(name, 0)) for name in COUNTS})
    return values


def layer_metrics(passes: list[dict[str, float]], traced_walls: list[float],
                  untraced_walls: list[float],
                  stages: dict[str, float]) -> dict[str, dict]:
    """Median of each per-layer value over the traced passes, the
    tracing overhead (median traced minus median untraced wall time),
    and the workload's ``stages`` figures (see :data:`STAGE_METRICS`;
    those it does not give read 0)."""
    unknown = set(stages) - {name for name, _ in STAGE_METRICS}
    if unknown:
        raise ValueError(f"not stage metrics: {sorted(unknown)}")
    traced, untraced = median(traced_walls), median(untraced_walls)
    summary = {
        "trace.overhead_s": traced - untraced,
        "trace.traced_wall_s": traced,
        "trace.untraced_wall_s": untraced,
    }
    summary.update({name: stages.get(name, 0.0) for name, _ in STAGE_METRICS})
    out = {}
    for name, unit in per_layer_names():
        value = summary[name] if name in summary else median(p[name] for p in passes)
        out[name] = metric(value, unit)
    return out
