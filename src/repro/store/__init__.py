"""On-disk trace shard store: streaming persistence and stitched merge.

The scaling layer between trace collection and model training.  Fleet
replicas stream records straight to per-shard directories through a
:class:`ShardWriter` (only a :class:`ShardManifest` crosses the process
pool), a :class:`ShardStore` lazily re-reads and stitches the shards
into the same monotonic timeline the in-memory merge produces, and
:func:`train_per_class` reads any source once and fans KOOZA fits over
its request classes.

Import order note: submodules import only :mod:`repro.tracing` and
:mod:`repro.simulation` at module level; :mod:`repro.core` (which pulls
in :mod:`repro.datacenter`, which imports this package) is deferred to
call time inside :mod:`repro.store.training`.
"""

from .cache import (
    CACHE_DIRNAME,
    analysis_key,
    combine_hashes,
    hash_file,
    load_analysis_cache,
    save_analysis_cache,
    shard_content_hash,
    shard_stream_hashes,
    stream_content_hash,
)
from .convert import convert_flat_dump, convert_store
from .manifest import (
    MANIFEST_FILENAME,
    SHARD_CODECS,
    SHARD_FORMAT,
    SHARD_VERSION,
    STORE_INDEX_FILENAME,
    ShardManifest,
    StoreIndex,
    compact_store,
    load_store_index,
    load_store_rounds,
    parse_shard_index,
    round_filename,
    shard_manifest_paths,
    write_round_file,
)
from .shards import ShardStore, is_shard_store, shifter_for
from .watch import StoreSnapshot, take_snapshot
from .stitch import (
    StitchOffsets,
    accumulate_offsets,
    max_request_id,
    max_span_id,
    offsets_for,
    trace_extent,
)
from .writer import ShardWriter, shard_dirname
from .training import (
    PerClassFit,
    load_per_class_models,
    save_per_class_models,
    train_per_class,
)
from .analyze import (
    ClassReport,
    PerClassValidation,
    ShardAnalysisTask,
    SourceAnalysis,
    analyze_shard,
    analyze_source,
    characterize_source,
    class_rng,
    class_seed,
    validate_per_class,
)

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
