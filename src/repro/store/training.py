"""Shard-parallel KOOZA training: per-request-class fits over a store.

KOOZA fits are embarrassingly parallel over request classes — each
class's four subsystem models, couplers and dependency queue depend
only on that class's records.  The map phase hands each worker process
a ``(store directory, request class)`` task: the worker opens the
:class:`~repro.store.shards.ShardStore` itself (no trace records cross
the pool) and reads its class with
:meth:`~repro.store.shards.ShardStore.class_traces`: each stream is
loaded as stitched columns across all shards, masked to the class's
request ids, and only the kept rows become records.  The fit joins
those records' columns into per-request features with
:func:`~repro.core.features.request_feature_columns` — the same join
analysis and validation use — and fits a
:class:`~repro.core.KoozaModel`.  The reduce phase collects the
serialized models into one per-class table.

Because every worker sees exactly the per-class ``TraceSet`` a
single-process fit would build (same records, same order), the parallel
result is identical to the serial one — the validation contract the
tests pin down with serialized-model equality.

The classes worth fitting are mostly known *before* any stream file is
opened: manifests carry per-class completed-request counts, so
undertrained classes are skipped up front.  A class can still have
enough completed requests but too few *complete* ones (every subsystem
record present — mapreduce tasks, for instance, touch no memory
model); the fit reports those with a typed
:class:`~repro.core.InsufficientTrainingData` and the class is skipped
the same way, without aborting the other classes.

``repro.core`` is imported lazily inside functions: the core package
pulls in :mod:`repro.datacenter`, whose fleet module imports this
package — a module-level import here would close that cycle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Optional

from ..simulation import run_sharded
from ..tracing import TraceSource, as_trace_set
from .shards import ShardStore

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..core import KoozaConfig, KoozaModel

__all__ = [
    "ClassFitTask",
    "PER_CLASS_FORMAT",
    "PerClassFit",
    "fit_request_class",
    "load_per_class_models",
    "save_per_class_models",
    "train_per_class",
]

PER_CLASS_FORMAT = "kooza-per-class"
PER_CLASS_VERSION = 1

#: KoozaTrainer refuses fewer feature vectors than this.
MIN_TRAINABLE_REQUESTS = 16


@dataclass(frozen=True)
class ClassFitTask:
    """One worker's share: fit one request class from an on-disk store."""

    directory: str
    request_class: str
    config: Optional["KoozaConfig"] = None


def fit_request_class(task: ClassFitTask) -> tuple[str, dict | int]:
    """Worker entry point: fit one class, return its serialized model.

    Returns ``(request_class, model_dict)`` — the JSON-able serialized
    form, a few KB, instead of a live model object, keeping the pool's
    IPC as thin as the collection side's manifests.  A class with too
    few complete requests returns ``(request_class, n_complete)``.
    """
    from ..core import model_to_dict

    store = ShardStore(task.directory)
    traces = store.class_traces(task.request_class)
    fitted = _fit_or_count(traces, task.config)
    if isinstance(fitted, int):
        return task.request_class, fitted
    return task.request_class, model_to_dict(fitted)


def _fit_or_count(traces: TraceSource, config: Optional["KoozaConfig"]):
    """A fitted model, or the complete-request count when too thin."""
    from ..core import InsufficientTrainingData, KoozaTrainer

    try:
        return KoozaTrainer(config).fit(traces)
    except InsufficientTrainingData as error:
        return error.n_complete


@dataclass
class PerClassFit:
    """The reduced result of a shard-parallel training run."""

    models: dict[str, "KoozaModel"]
    #: Classes not fitted: those below ``min_requests`` with their
    #: completed-request count, and those whose fit found too few
    #: complete requests with that complete-request count.
    skipped: dict[str, int] = field(default_factory=dict)
    workers: int = 1
    elapsed_seconds: float = 0.0
    #: Classes restored from / missing in the persistent model cache
    #: (both 0 when caching was off or the source is not a store).
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def n_classes(self) -> int:
        return len(self.models)


def train_per_class(
    source: TraceSource | str | Path,
    config: Optional["KoozaConfig"] = None,
    workers: int = 1,
    min_requests: int = MIN_TRAINABLE_REQUESTS,
    *,
    cache: bool = False,
) -> PerClassFit:
    """Fit one KOOZA model per request class.

    ``source`` is any :class:`~repro.tracing.TraceSource` or a path
    (auto-detected via :func:`~repro.tracing.load_traces`).  A shard
    store fans one worker process per class; ``workers=1`` runs inline
    and is the deterministic reference the pooled result matches
    exactly.  Other sources are split by class in-process (their
    records already live in this process, so there is nothing to gain
    from shipping them across a pool).  Classes with fewer than
    ``min_requests`` completed requests, or too few complete ones to
    fit, are skipped and reported in :attr:`PerClassFit.skipped`.

    With ``cache=True`` (stores only) each class's serialized fit is
    persisted under ``<store>/_cache/models/`` keyed by the store-wide
    content hash, the class name and the training configuration.  A fit
    depends on every shard (class records are stitched across all of
    them), so unlike the per-shard analysis cache this is a whole-model
    cache: any shard change — including an append — invalidates it.  It
    pays off for repeated runs over an unchanged store, e.g. a
    ``validate --per-class`` following a ``train``.
    """
    from ..core import model_from_dict

    if isinstance(source, (str, Path)):
        from ..tracing import load_traces

        source = load_traces(source)

    counts = source.classes()
    trainable = sorted(c for c, n in counts.items() if n >= min_requests)
    skipped = {c: n for c, n in counts.items() if n < min_requests}
    start = time.perf_counter()
    cache_hits = cache_misses = 0
    if isinstance(source, ShardStore):
        models = {}
        pending = trainable
        cache_paths: dict[str, Path] = {}
        if cache:
            import dataclasses
            import json

            from ..core import KoozaConfig
            from .cache import (
                combine_hashes,
                load_model_cache,
                model_cache_path,
                save_model_cache,
                shard_content_hash,
            )

            store_hash = combine_hashes(
                {
                    source.shard_dir(m).name: shard_content_hash(
                        source.shard_dir(m)
                    )
                    for m in source.manifests
                }
            )
            config_digest = json.dumps(
                dataclasses.asdict(config if config is not None else KoozaConfig()),
                sort_keys=True,
                default=str,
            )
            pending = []
            for cls in trainable:
                path = model_cache_path(
                    source.directory, cls, store_hash, config_digest
                )
                cache_paths[cls] = path
                data = load_model_cache(path, cls)
                if data is not None:
                    models[cls] = model_from_dict(data)
                    cache_hits += 1
                else:
                    pending.append(cls)
                    cache_misses += 1
        tasks = [
            ClassFitTask(str(source.directory), cls, config)
            for cls in pending
        ]
        results = run_sharded(fit_request_class, tasks, workers)
        for cls, data in results:
            if isinstance(data, int):
                skipped[cls] = data
                continue
            models[cls] = model_from_dict(data)
            if cache:
                save_model_cache(cache_paths[cls], cls, data)
        models = {cls: models[cls] for cls in trainable if cls in models}
    else:
        from ..core import split_traces_by_class

        by_class = split_traces_by_class(as_trace_set(source))
        models = {}
        for cls in trainable:
            fitted = _fit_or_count(by_class[cls], config)
            if isinstance(fitted, int):
                skipped[cls] = fitted
            else:
                models[cls] = fitted
        workers = 1
    elapsed = time.perf_counter() - start
    return PerClassFit(
        models=models,
        skipped=skipped,
        workers=workers,
        elapsed_seconds=elapsed,
        cache_hits=cache_hits,
        cache_misses=cache_misses,
    )


def save_per_class_models(
    models: dict[str, "KoozaModel"], path: str | Path
) -> Path:
    """Serialize a per-class model table to one JSON file."""
    import json

    from ..core import model_to_dict

    path = Path(path)
    payload: dict[str, Any] = {
        "format": PER_CLASS_FORMAT,
        "version": PER_CLASS_VERSION,
        "classes": {
            cls: model_to_dict(model) for cls, model in sorted(models.items())
        },
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return path


def load_per_class_models(path: str | Path) -> dict[str, "KoozaModel"]:
    """Load a per-class model table written by :func:`save_per_class_models`."""
    import json

    from ..core import model_from_dict

    data = json.loads(Path(path).read_text())
    if data.get("format") != PER_CLASS_FORMAT:
        raise ValueError(f"{path} is not a {PER_CLASS_FORMAT} file")
    if data.get("version", 1) > PER_CLASS_VERSION:
        raise ValueError(f"unsupported per-class model version in {path}")
    return {
        cls: model_from_dict(payload)
        for cls, payload in data["classes"].items()
    }
