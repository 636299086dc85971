"""Per-request-class KOOZA training over any trace source.

KOOZA fits are embarrassingly parallel over request classes: each
class's subsystem models, couplers and dependency queue depend only on
that class's records.  :func:`train_per_class` reads the source once
(:func:`~repro.core.read_training_input`: the feature streams as
stitched columns, and each traced request's stage sequence mined from
the span columns), splits both by class with
:func:`~repro.tracing.columnar.class_columns`, and fits each class from
its own feature join, inline or on worker processes that return
serialized models.  Every source and worker count takes this one path,
so pooled fits equal inline ones and a store's fits equal those of its
merged ``TraceSet``.

Classes below ``min_requests`` completed requests are skipped before
any stream is read (a store counts them from its manifests).  A class
the trainer refuses — too few *complete* requests (mapreduce tasks
touch no memory model) or no sampled trace — raises a typed
:class:`~repro.core.InsufficientTrainingData` and is skipped the same
way, without aborting the others.

``repro.core`` is imported inside functions, so a command that only
reads, merges or verifies a store never loads the model code.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Optional

from ..simulation import run_sharded
from ..tracing import TraceSource
from ..tracing.columnar import class_columns
from .cache import (
    combine_hashes,
    load_model_cache,
    model_cache_path,
    save_model_cache,
    shard_content_hash,
)
from .shards import ShardStore

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..core import KoozaConfig, KoozaModel

__all__ = [
    "PER_CLASS_FORMAT",
    "PerClassFit",
    "load_per_class_models",
    "save_per_class_models",
    "train_per_class",
]

PER_CLASS_FORMAT = "kooza-per-class"
PER_CLASS_VERSION = 1

#: KoozaTrainer refuses fewer feature vectors than this.
MIN_TRAINABLE_REQUESTS = 16


def _fit_class(task: tuple) -> tuple[str, dict | int]:
    """Worker entry point: fit one class from its columns and sequences.

    Returns ``(request_class, model_to_dict(model))`` — a few KB of
    JSON-able data, not a live model — or ``(request_class,
    n_complete)`` for a class the trainer refuses.
    """
    from ..core import (
        InsufficientTrainingData,
        KoozaTrainer,
        model_to_dict,
        request_feature_columns,
    )

    request_class, streams, sequences, config = task
    try:
        model = KoozaTrainer(config).fit_columns(
            request_feature_columns(streams), sequences
        )
    except InsufficientTrainingData as error:
        return request_class, error.n_complete
    return request_class, model_to_dict(model)


@dataclass
class PerClassFit:
    """The reduced result of a per-class training run."""

    models: dict[str, "KoozaModel"]
    #: Classes not fitted: those below ``min_requests`` with their
    #: completed-request count, and those the trainer refused (too few
    #: complete requests, or no sampled trace) with their
    #: complete-request count.
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


def _model_cache_paths(
    store: ShardStore, classes: list[str], config: Optional["KoozaConfig"]
) -> dict[str, Path]:
    """Per-class model cache files, keyed by store content and config."""
    from ..core import KoozaConfig

    store_hash = combine_hashes(
        {
            store.shard_dir(m).name: shard_content_hash(store.shard_dir(m))
            for m in store.manifests
        }
    )
    config_digest = json.dumps(
        dataclasses.asdict(config if config is not None else KoozaConfig()),
        sort_keys=True,
        default=str,
    )
    return {
        cls: model_cache_path(store.directory, cls, store_hash, config_digest)
        for cls in classes
    }


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
    (auto-detected via :func:`~repro.tracing.load_traces`).  It is read
    once and split by class in this process; the per-class fits then
    run inline (``workers=1``, the deterministic reference) or fanned
    over worker processes, with identical results.  Classes with fewer
    than ``min_requests`` completed requests, or that the trainer
    refuses, are skipped and reported in :attr:`PerClassFit.skipped`.

    With ``cache=True`` (stores only) each class's serialized fit is
    persisted under ``<store>/_cache/models/`` keyed by the store-wide
    content hash, the class name and the training configuration.  A fit
    depends on every shard (class records are stitched across all of
    them), so unlike the per-shard analysis cache this is a whole-model
    cache: any shard change — including an append — invalidates it.  It
    pays off for repeated runs over an unchanged store, e.g. a
    ``validate --per-class`` following a ``train``; when every class
    hits, the store's streams are not read at all.
    """
    from ..core import model_from_dict, read_training_input

    if isinstance(source, (str, Path)):
        from ..tracing import load_traces

        source = load_traces(source)

    counts = source.classes()
    trainable = sorted(c for c, n in counts.items() if n >= min_requests)
    skipped = {c: n for c, n in counts.items() if n < min_requests}
    start = time.perf_counter()
    models: dict[str, "KoozaModel"] = {}
    cache_paths: dict[str, Path] = {}
    if cache and isinstance(source, ShardStore):
        cache_paths = _model_cache_paths(source, trainable, config)
        for cls, path in cache_paths.items():
            data = load_model_cache(path, cls)
            if data is not None:
                models[cls] = model_from_dict(data)
    cache_hits = len(models)
    cache_misses = len(cache_paths) - cache_hits
    pending = [cls for cls in trainable if cls not in models]
    tasks = []
    if pending:
        streams, sequences = read_training_input(source)
        tasks = [
            (cls, *class_columns(streams, cls, sequences), config)
            for cls in pending
        ]
    for cls, data in run_sharded(_fit_class, tasks, workers):
        if isinstance(data, int):
            skipped[cls] = data
            continue
        models[cls] = model_from_dict(data)
        if cls in cache_paths:
            save_model_cache(cache_paths[cls], cls, data)
    elapsed = time.perf_counter() - start
    return PerClassFit(
        models={cls: models[cls] for cls in trainable if cls in models},
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
