"""On-disk trace shard store: streaming persistence and stitched merge.

The scaling layer between trace collection and model training.  Fleet
replicas stream records straight to per-shard directories through a
:class:`ShardWriter` (only a :class:`ShardManifest` crosses the process
pool), a :class:`ShardStore` lazily re-reads and stitches the shards
into the same monotonic timeline the in-memory merge produces, and
:func:`train_per_class` reads any source once and fans KOOZA fits over
its request classes.

Import order note: submodules import only :mod:`repro.tracing` and
:mod:`repro.simulation` at module level; :mod:`repro.core` is imported
at call time, so reading, merging and verifying a store loads no model
code.
"""

from .. import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    ".cache": (
        "CACHE_DIRNAME", "analysis_key", "combine_hashes", "hash_file",
        "load_analysis_cache", "save_analysis_cache", "shard_content_hash",
        "shard_stream_hashes", "stream_content_hash",
    ),
    ".convert": ("convert_flat_dump", "convert_store"),
    ".manifest": (
        "MANIFEST_FILENAME", "SHARD_CODECS", "SHARD_FORMAT", "SHARD_VERSION",
        "STORE_INDEX_FILENAME", "ShardManifest", "StoreIndex", "compact_store",
        "load_store_index", "load_store_rounds", "parse_shard_index",
        "round_filename", "shard_manifest_paths", "write_round_file",
    ),
    ".shards": ("ShardStore", "is_shard_store", "shifter_for"),
    ".watch": ("StoreSnapshot", "take_snapshot"),
    ".stitch": (
        "StitchOffsets", "accumulate_offsets", "max_request_id", "max_span_id",
        "offsets_for", "trace_extent",
    ),
    ".writer": ("ShardWriter", "shard_dirname"),
    ".training": (
        "PerClassFit", "load_per_class_models", "save_per_class_models",
        "train_per_class",
    ),
    ".analyze": (
        "ClassReport", "PerClassValidation", "ShardAnalysisTask",
        "SourceAnalysis", "analyze_shard", "analyze_source",
        "characterize_source", "class_rng", "class_seed", "validate_per_class",
    ),
})

__all__ = [
    "CACHE_DIRNAME",
    "ClassReport",
    "PerClassValidation",
    "ShardAnalysisTask",
    "SourceAnalysis",
    "analyze_shard",
    "analyze_source",
    "characterize_source",
    "class_rng",
    "class_seed",
    "validate_per_class",
    "MANIFEST_FILENAME",
    "PerClassFit",
    "SHARD_CODECS",
    "SHARD_FORMAT",
    "SHARD_VERSION",
    "STORE_INDEX_FILENAME",
    "ShardManifest",
    "ShardStore",
    "ShardWriter",
    "StitchOffsets",
    "StoreIndex",
    "StoreSnapshot",
    "accumulate_offsets",
    "analysis_key",
    "combine_hashes",
    "compact_store",
    "convert_flat_dump",
    "convert_store",
    "hash_file",
    "is_shard_store",
    "load_analysis_cache",
    "load_per_class_models",
    "load_store_index",
    "load_store_rounds",
    "max_request_id",
    "max_span_id",
    "offsets_for",
    "parse_shard_index",
    "round_filename",
    "save_analysis_cache",
    "save_per_class_models",
    "shard_content_hash",
    "shard_dirname",
    "shard_manifest_paths",
    "shard_stream_hashes",
    "shifter_for",
    "stream_content_hash",
    "take_snapshot",
    "trace_extent",
    "train_per_class",
    "write_round_file",
]
