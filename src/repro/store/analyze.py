"""One-pass streaming analysis over trace sources, sharded in parallel.

Analysis has one fold path: each worker folds ONE shard's columns
through the mergeable accumulators (:class:`~repro.core.WorkloadProfileBuilder`
for characterization, :class:`~repro.core.WorkloadFeatureStats` for
validation), and the driver merges the per-shard accumulators in
shard-index order.  The stitched merged ``TraceSet`` is never
constructed — the property the forbid-stitch tests pin down — and no
worker ever holds more than one shard's records.  The batch references
this path is tested against are the oracles in ``tests/oracles.py``.

Shard records are shifted by the manifest-derived
:class:`~repro.store.stitch.StitchOffsets` before folding, so every
accumulator sees exactly the timestamps and identifiers the merged
timeline would carry.  Feature extraction is per-shard-exact because a
request's records never span shards (each shard is one replica's
complete run); the only cross-shard quantity, the storage seek seam,
is handled inside the seam-aware accumulators.

Per-class validation replays each request class's model with a
deterministic per-class RNG stream (:func:`class_rng`), compares each
class against the streamed original statistics, and additionally
reports the cross-class mix: the union of all per-class synthetics
against the whole original workload.

The model stack (``repro.core``'s trainer, model and replay) is
imported inside the functions that fit or replay, so characterizing a
store never loads it.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence

import numpy as np

from ..core.features import FEATURE_COLUMNS, request_feature_columns
from ..core.profile import WorkloadProfile, WorkloadProfileBuilder
from ..core.validation import (
    ValidationReport,
    WorkloadFeatureStats,
    compare_feature_stats,
)
from ..simulation import run_sharded
from ..tracing import TraceSource, load_traces, source_columns
from ..tracing.columnar import shift_columns, take_columns
from ..tracing.store import STREAM_TYPES
from .cache import (
    analysis_key,
    load_analysis_cache,
    save_analysis_cache,
    shard_content_hash,
)
from .manifest import ShardManifest
from .shards import ShardStore
from .stitch import StitchOffsets

__all__ = [
    "AnalysisReducer",
    "ClassReport",
    "PerClassValidation",
    "ShardAnalysisTask",
    "SourceAnalysis",
    "analyze_shard",
    "analyze_shards",
    "analyze_source",
    "characterize_source",
    "class_rng",
    "class_seed",
    "reduce_source",
    "validate_per_class",
]


def class_seed(seed: int, request_class: str) -> int:
    """A deterministic 31-bit seed derived from a class name.

    Used for the replay harness of one class's synthetic requests, so
    per-class validation is reproducible and classes never share an
    RNG stream regardless of iteration order.
    """
    return (seed * 1000003 + zlib.crc32(request_class.encode())) % (2**31)


def class_rng(seed: int, request_class: str) -> np.random.Generator:
    """The RNG stream used to synthesize one class's requests.

    Seeded with ``[seed, crc32(class)]`` so streams are independent
    across classes and across base seeds — and reproducible by tests
    that re-derive the same generator.
    """
    return np.random.default_rng([seed, zlib.crc32(request_class.encode())])


@dataclass(frozen=True)
class ShardAnalysisTask:
    """One worker's share: fold one shard through the accumulators.

    The task carries the shard's manifest and directory, so a worker
    reads that shard's streams and nothing else of the store.
    """

    directory: str
    manifest: ShardManifest
    shard_dir: str
    offsets: StitchOffsets
    window: float = 0.25
    cores: int = 8
    max_quantile_values: Optional[int] = None


#: Columns ``WorkloadProfileBuilder.update_batch`` reads, per stream.
#: The fold loads these plus the feature join's
#: :data:`~repro.core.features.FEATURE_COLUMNS`: columnar shards open
#: only those ``.bin`` files; jsonl shards decode once and pivot to the
#: same subset.  The two ``json`` columns (``extra``, ``annotations``)
#: are never requested: no analysis statistic consumes them.
_PROFILE_COLUMNS = {
    "network": ("timestamp", "size_bytes", "direction"),
    "cpu": ("timestamp", "busy_seconds"),
    "memory": ("timestamp", "size_bytes", "op"),
    "storage": ("timestamp", "lbn", "size_bytes", "op", "queue_depth"),
    "requests": ("request_class", "arrival_time", "completion_time"),
    "spans": ("start", "end"),
}


def _fold_columns(
    load,
    offsets: StitchOffsets,
    window: float,
    cores: int,
    max_quantile_values: Optional[int],
):
    """The one shard fold: ``(profile_builder, feature_stats, per_class_stats)``.

    ``load(stream, names)`` returns one stream's full column arrays
    (zero-length for an empty stream).  Each stream is shifted in column
    space by the stitch ``offsets`` and folded through the vectorized
    ``update_batch`` accumulators, so per-record Python dispatch never
    runs on this path and every source — columnar shard, jsonl shard,
    flat dump, in-memory ``TraceSet`` — is analyzed from the identical
    arrays.
    """
    builder = WorkloadProfileBuilder(
        window=window, cores=cores, max_quantile_values=max_quantile_values
    )
    shard_columns: dict[str, dict] = {}
    for stream in STREAM_TYPES:
        names = sorted({*_PROFILE_COLUMNS[stream], *FEATURE_COLUMNS.get(stream, ())})
        cols = shift_columns(
            stream,
            load(stream, names),
            time_offset=offsets.time,
            request_id_offset=offsets.request_id,
            span_id_offset=offsets.span_id,
        )
        builder.update_batch(stream, cols)
        if stream != "spans":  # spans carry no request features
            shard_columns[stream] = cols
    features = request_feature_columns(shard_columns)
    overall = WorkloadFeatureStats.from_feature_columns(features)
    per_class: dict[str, WorkloadFeatureStats] = {}
    klass = features["request_class"]
    for code, name in enumerate(klass.values):
        mask = klass.codes == code
        if mask.any():
            per_class[name] = WorkloadFeatureStats.from_feature_columns(
                take_columns(features, mask)
            )
    return builder, overall, per_class


def analyze_shard(task: ShardAnalysisTask):
    """Worker entry point: accumulate one shard, return the accumulators.

    Returns ``(profile_builder, feature_stats, per_class_stats)``.
    Columnar shards serve their column buffers directly, jsonl shards
    decode once and pivot; both then run :func:`_fold_columns`, so
    analyses over the two codecs are byte-identical.
    """
    manifest = task.manifest
    store = ShardStore.for_shard(task.directory, manifest, task.shard_dir)
    return _fold_columns(
        lambda stream, names: store.load_shard_stream_columns(
            manifest, stream, names
        ),
        task.offsets,
        task.window,
        task.cores,
        task.max_quantile_values,
    )


def analyze_shards(
    store_dir: str | Path,
    shards: Sequence[tuple],
    params: Mapping[str, Any],
    workers: int = 1,
    cache: bool = False,
) -> tuple[list[tuple], int, int]:
    """Per-shard accumulators for ``(manifest, shard_dir, offsets)`` triples.

    ``params`` are the analysis parameters (``window``, ``cores``,
    ``max_quantile_values``; see :attr:`AnalysisReducer.params`).  With
    ``cache=True`` each shard's folded state is restored from
    ``<store>/_cache/<shard>/`` when its content hash, stitch offsets,
    codec and the parameter key all match; every other shard is folded
    by :func:`analyze_shard`, fanned over ``workers``, and saved back.
    Returns the accumulators in shard order plus the cache hit and miss
    counts (both 0 with the cache off).
    """
    key = analysis_key("profile", params)
    results: list = [None] * len(shards)
    pending: list[tuple] = []  # (position, manifest, shard_dir, offsets, hash)
    for position, (manifest, shard_dir, offsets) in enumerate(shards):
        content_hash = None
        if cache:
            content_hash = shard_content_hash(shard_dir)
            entry = load_analysis_cache(
                store_dir,
                shard_dir.name,
                key,
                content_hash,
                offsets,
                codec=manifest.codec,
            )
            if entry is not None:
                results[position] = entry
                continue
        pending.append((position, manifest, shard_dir, offsets, content_hash))
    tasks = [
        ShardAnalysisTask(
            str(store_dir), manifest, str(shard_dir), offsets, **params
        )
        for _, manifest, shard_dir, offsets, _ in pending
    ]
    folded = run_sharded(analyze_shard, tasks, workers)
    for (position, manifest, shard_dir, offsets, content_hash), result in zip(
        pending, folded
    ):
        results[position] = result
        if cache:
            save_analysis_cache(
                store_dir,
                shard_dir.name,
                key,
                content_hash,
                offsets,
                *result,
                compress=manifest.compress,
                codec=manifest.codec,
            )
    misses = len(pending) if cache else 0
    return results, len(shards) - len(pending), misses


@dataclass
class SourceAnalysis:
    """Everything one streaming pass over a source produces."""

    profile: "WorkloadProfile"
    features: "WorkloadFeatureStats"
    per_class: dict[str, "WorkloadFeatureStats"]
    workers: int = 1
    elapsed_seconds: float = 0.0
    #: Shards restored from the persistent cache / re-folded by workers.
    #: Both stay 0 when caching is off or the source is not a store.
    cache_hits: int = 0
    cache_misses: int = 0


class AnalysisReducer:
    """Merged analysis accumulators: the left fold of per-shard results.

    Folding per-shard ``(builder, features, per_class)`` triples in
    shard-index order is the whole reduce behind
    :func:`analyze_source`; the ``repro serve`` daemon folds appended
    shards through the same object, so its resident analysis equals a
    batch re-analysis of the store.
    """

    def __init__(
        self,
        window: float = 0.25,
        cores: int = 8,
        max_quantile_values: Optional[int] = None,
    ):
        self.window = window
        self.cores = cores
        self.max_quantile_values = max_quantile_values
        self.builder = WorkloadProfileBuilder(
            window=window, cores=cores, max_quantile_values=max_quantile_values
        )
        self.features = WorkloadFeatureStats()
        self.per_class: dict[str, "WorkloadFeatureStats"] = {}

    @property
    def params(self) -> dict[str, Any]:
        """The analysis parameters, as the per-shard cache keys them."""
        return {
            "window": self.window,
            "cores": self.cores,
            "max_quantile_values": self.max_quantile_values,
        }

    def fold(self, builder, features, per_class: Mapping[str, Any]) -> None:
        """Merge one shard's accumulators; a class seen first is adopted."""
        self.builder.merge(builder)
        self.features.merge(features)
        for cls, stats in per_class.items():
            if cls in self.per_class:
                self.per_class[cls].merge(stats)
            else:
                self.per_class[cls] = stats

    def analysis(self, **counters: Any) -> SourceAnalysis:
        """The merged result; ``counters`` fill the bookkeeping fields."""
        return SourceAnalysis(
            profile=self.builder.profile(),
            features=self.features,
            per_class=dict(sorted(self.per_class.items())),
            **counters,
        )

    def state(self) -> dict[str, Any]:
        return {
            **self.params,
            "builder": self.builder.state(),
            "features": self.features.state(),
            "per_class": [
                [cls, stats.state()]
                for cls, stats in sorted(self.per_class.items())
            ],
        }

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "AnalysisReducer":
        max_quantile_values = state.get("max_quantile_values")
        reducer = cls(
            window=float(state["window"]),
            cores=int(state["cores"]),
            max_quantile_values=(
                None if max_quantile_values is None else int(max_quantile_values)
            ),
        )
        reducer.builder = WorkloadProfileBuilder.from_state(state["builder"])
        reducer.features = WorkloadFeatureStats.from_state(state["features"])
        reducer.per_class = {
            str(name): WorkloadFeatureStats.from_state(stats)
            for name, stats in state["per_class"]
        }
        return reducer


def reduce_source(
    source: TraceSource | str | Path,
    window: float = 0.25,
    cores: int = 8,
    workers: int = 1,
    cache: bool = False,
    max_quantile_values: Optional[int] = None,
) -> tuple[AnalysisReducer, int, int]:
    """Fold a source into an :class:`AnalysisReducer`.

    Returns the reducer plus the cache hit and miss counts.  A
    :class:`~repro.store.ShardStore` folds shard by shard through
    :func:`analyze_shards`; any other source is folded as one shard
    with zero stitch offsets.  Parameters as :func:`analyze_source`.
    """
    if isinstance(source, (str, Path)):
        source = load_traces(source)
    reducer = AnalysisReducer(window, cores, max_quantile_values)
    if isinstance(source, ShardStore):
        shards = [
            (manifest, source.shard_dir(manifest), offsets)
            for manifest, offsets in zip(source.manifests, source.offsets())
        ]
        results, hits, misses = analyze_shards(
            source.directory, shards, reducer.params, workers, cache
        )
    else:
        results = [
            _fold_columns(
                lambda stream, names: source_columns(source, stream, names),
                StitchOffsets(),
                window,
                cores,
                max_quantile_values,
            )
        ]
        hits = misses = 0
    for result in results:
        reducer.fold(*result)
    return reducer, hits, misses


def analyze_source(
    source: TraceSource | str | Path,
    window: float = 0.25,
    cores: int = 8,
    workers: int = 1,
    cache: bool = False,
    max_quantile_values: Optional[int] = None,
) -> SourceAnalysis:
    """One streaming pass: profile + validation statistics for a source.

    A :class:`~repro.store.ShardStore` (or a path to one) fans one
    worker per shard and merges the per-shard accumulators in
    shard-index order — numerically equal to the single-pass fold for
    any worker count.  Any other :class:`~repro.tracing.TraceSource`
    is folded inline as a single shard.

    With ``cache=True`` (stores only) each shard's folded accumulator
    state is persisted under ``<store>/_cache/<shard>/`` keyed by the
    shard's content hash, its stitch offsets, the accumulator schema
    version and the analysis parameters; matching entries are restored
    instead of re-reading the shard, so re-analysis after an append
    spawns workers only for the new round.  Cached and fresh results
    are merged in shard-index order, and JSON snapshots round-trip
    floats exactly, so the warm result equals the cold one.

    ``max_quantile_values`` bounds every exact-quantile buffer (see
    :class:`~repro.stats.ExactQuantiles`); it participates in the cache
    key.
    """
    start = time.perf_counter()
    reducer, hits, misses = reduce_source(
        source, window, cores, workers, cache, max_quantile_values
    )
    return reducer.analysis(
        workers=workers,
        elapsed_seconds=time.perf_counter() - start,
        cache_hits=hits,
        cache_misses=misses,
    )


def characterize_source(
    source: TraceSource | str | Path,
    window: float = 0.25,
    cores: int = 8,
    workers: int = 1,
    cache: bool = False,
    max_quantile_values: Optional[int] = None,
) -> "WorkloadProfile":
    """Streaming characterization of any trace source.

    Equal to the batch characterization oracle in ``tests/oracles.py``
    on the materialized merge (see ``docs/streaming_analysis.md`` for
    the tolerance contract) without ever building it.  ``cache=True`` enables the persistent
    per-shard cache for store sources (see :func:`analyze_source`).
    """
    return analyze_source(
        source,
        window=window,
        cores=cores,
        workers=workers,
        cache=cache,
        max_quantile_values=max_quantile_values,
    ).profile


@dataclass
class ClassReport:
    """Per-class Table-2 outcome (or why the class was skipped)."""

    request_class: str
    n_original: int
    n_synthetic: int = 0
    report: Optional["ValidationReport"] = None
    error: Optional[str] = None


@dataclass
class PerClassValidation:
    """Per-class replay validation plus the cross-class mix."""

    classes: list[ClassReport] = field(default_factory=list)
    #: The union of all per-class synthetics vs the whole original
    #: workload — the joint fidelity a mixed deployment would see.
    mix: Optional["ValidationReport"] = None
    workers: int = 1
    elapsed_seconds: float = 0.0
    #: Analysis-cache outcome of the underlying streaming pass (both 0
    #: when caching was off or a precomputed analysis was supplied).
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def n_validated(self) -> int:
        return sum(1 for c in self.classes if c.report is not None)

    @property
    def worst_feature_deviation_pct(self) -> float:
        worst = [
            c.report.worst_feature_deviation_pct
            for c in self.classes
            if c.report is not None
        ]
        if not worst:
            raise ValueError("no class produced a validation report")
        return max(worst)

    def to_table(self) -> str:
        """One summary row per class, plus the mix row."""
        lines = [
            f"{'class':>16} | {'n(o/s)':>11} | {'feat dev%':>9} | "
            f"{'lat dev%':>8} | {'KS':>6} | {'profiles':>8}"
        ]
        lines.append("-" * len(lines[0]))

        def row(name: str, n_o: int, n_s: int, report) -> str:
            return (
                f"{name:>16} | {n_o:>5}/{n_s:<5} | "
                f"{report.worst_feature_deviation_pct:>9.2f} | "
                f"{report.worst_latency_deviation_pct:>8.2f} | "
                f"{report.latency_ks:>6.3f} | {len(report.profiles):>8}"
            )

        for c in self.classes:
            if c.report is not None:
                lines.append(row(c.request_class, c.n_original, c.n_synthetic, c.report))
            else:
                lines.append(
                    f"{c.request_class:>16} | {c.n_original:>5}/{c.n_synthetic:<5} | "
                    f"skipped: {c.error}"
                )
        if self.mix is not None:
            lines.append(
                row("<mix>", self.mix.n_original, self.mix.n_synthetic, self.mix)
            )
        return "\n".join(lines)


def validate_per_class(
    source: TraceSource | str | Path,
    models: Optional[dict] = None,
    config=None,
    seed: int = 42,
    min_profile_count: int = 5,
    min_requests: int = 16,
    window: float = 0.25,
    cores: int = 8,
    workers: int = 1,
    analysis: Optional[SourceAnalysis] = None,
    cache: bool = False,
    max_quantile_values: Optional[int] = None,
) -> PerClassValidation:
    """Replay each class's model and grade it against the streamed original.

    ``models`` maps request class to a trained
    :class:`~repro.core.KoozaModel`; when omitted, per-class models are
    trained from ``source`` first (fanned over ``workers`` for a shard
    store).  Each class synthesizes as many requests as the original
    side contributed feature vectors, using :func:`class_rng` so the
    result is independent of class iteration order.  Classes whose
    original or synthetic side is too thin are reported as skipped,
    not raised.

    Pass a precomputed ``analysis`` to reuse one streaming pass for
    characterization and validation.  ``cache=True`` enables both the
    per-shard analysis cache and the per-class model cache for store
    sources (see :func:`analyze_source` and
    :func:`repro.store.training.train_per_class`).
    """
    from ..core.replay import ReplayHarness

    start = time.perf_counter()
    if isinstance(source, (str, Path)):
        source = load_traces(source)
    if analysis is None:
        analysis = analyze_source(
            source,
            window=window,
            cores=cores,
            workers=workers,
            cache=cache,
            max_quantile_values=max_quantile_values,
        )
    if models is None:
        from .training import train_per_class

        fit = train_per_class(
            source,
            config,
            workers=workers,
            min_requests=min_requests,
            cache=cache,
        )
        models = fit.models
    result = PerClassValidation(
        workers=workers,
        cache_hits=analysis.cache_hits,
        cache_misses=analysis.cache_misses,
    )
    synthetic_mix = WorkloadFeatureStats()
    for cls in sorted(analysis.per_class):
        original = analysis.per_class[cls]
        if cls not in models:
            result.classes.append(
                ClassReport(cls, original.n, error="no model for class")
            )
            continue
        synthetic = models[cls].synthesize(original.n, class_rng(seed, cls))
        replayed = ReplayHarness(seed=class_seed(seed + 1, cls)).replay(synthetic)
        stats = WorkloadFeatureStats.from_source(replayed)
        synthetic_mix.merge(stats)
        try:
            report = compare_feature_stats(
                original, stats, min_profile_count=min_profile_count
            )
        except ValueError as error:
            result.classes.append(
                ClassReport(cls, original.n, stats.n, error=str(error))
            )
            continue
        result.classes.append(ClassReport(cls, original.n, stats.n, report))
    if synthetic_mix.n:
        try:
            result.mix = compare_feature_stats(
                analysis.features,
                synthetic_mix,
                min_profile_count=min_profile_count,
            )
        except ValueError:
            result.mix = None
    result.elapsed_seconds = time.perf_counter() - start
    return result
