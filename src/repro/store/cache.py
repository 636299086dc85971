"""Persistent per-shard analysis caches with content-hash invalidation.

The memoization layer behind incremental re-analysis: after a worker
folds one shard through the streaming accumulators, its composite
state (``WorkloadProfileBuilder`` + ``WorkloadFeatureStats`` + the
per-class split) is persisted beside the store::

    store/
      _cache/
        shard-00000/
          profile-<key>.json[.gz]
        models/
          <class>-<key>.json

On the next analysis the driver folds cached states for unchanged
shards and spawns workers only for new or invalidated ones — appending
one round to a 50-round store re-reads one round.

A cache entry is valid only if **all** of the following match:

* the file parses and carries this module's format/version markers;
* ``schema`` equals :data:`~repro.snapshot.SNAPSHOT_VERSION` (an
  accumulator-layout bump invalidates every older cache);
* ``content_hash`` equals the sha256 digest of the shard's current
  stream-file bytes (editing a shard invalidates exactly that shard);
* ``offsets`` equal the shard's current stitch offsets (cached
  accumulator state embeds *shifted* timestamps and identifiers, so a
  shard whose predecessors changed must be re-folded even if its own
  bytes did not — appends never move prior shards, edits might);
* the analysis key — a digest of the analysis parameters — matches,
  which is implicit in the filename.

Any mismatch or corruption makes ``load_analysis_cache`` return
``None``; stale or damaged caches are skipped, never crashed on.
Writes go through a temp file + ``os.replace`` so a reader can never
observe a half-written entry.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
from pathlib import Path
from typing import Any, Mapping, Optional

from ..snapshot import SNAPSHOT_VERSION
from ..tracing.columnar import columnar_stream_files, find_columnar_stream
from ..tracing.store import _CanonicalGzipFile, find_stream_file
from .stitch import StitchOffsets

__all__ = [
    "CACHE_DIRNAME",
    "CACHE_FORMAT",
    "CACHE_VERSION",
    "analysis_key",
    "combine_hashes",
    "hash_file",
    "load_analysis_cache",
    "load_model_cache",
    "model_cache_path",
    "save_analysis_cache",
    "save_model_cache",
    "shard_content_hash",
    "shard_stream_hashes",
    "stream_content_hash",
]

CACHE_DIRNAME = "_cache"
CACHE_FORMAT = "repro-analysis-cache"
#: Version 2: vectorized batch folds changed the floating-point
#: association of moment accumulators, and entries carry the shard's
#: codec — older entries must be recomputed, not reused.
CACHE_VERSION = 2
MODEL_CACHE_FORMAT = "repro-model-cache"


# -- content hashing ----------------------------------------------------------


def hash_file(path: str | Path, chunk_size: int = 1 << 20) -> str:
    """sha256 hex digest of a file's raw bytes (compressed as stored)."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(chunk_size)
            if not chunk:
                break
            digest.update(chunk)
    return digest.hexdigest()


def stream_content_hash(directory: str | Path, stream: str) -> Optional[str]:
    """Content digest of one stream, whichever codec stores it.

    A jsonl stream hashes its single ``.jsonl[.gz]`` file directly
    (unchanged from the historical digest, so pre-codec manifests still
    verify); a columnar stream combines the digests of its header and
    per-column buffers.  ``None`` when the stream has no files.
    """
    path = find_stream_file(directory, stream)
    if path is not None:
        return hash_file(path)
    if find_columnar_stream(directory, stream) is not None:
        return combine_hashes(
            {f.name: hash_file(f) for f in columnar_stream_files(directory, stream)}
        )
    return None


def shard_stream_hashes(shard_dir: str | Path) -> dict[str, str]:
    """Per-stream sha256 of every stream file in a shard directory.

    Hashing is an order of magnitude cheaper than JSON-decoding the
    same bytes, which is what makes hash-checked cache hits a win.
    Streams stored columnar digest their header + column buffers
    through :func:`stream_content_hash`.
    """
    shard_dir = Path(shard_dir)
    hashes: dict[str, str] = {}
    streams = set()
    for pattern in ("*.jsonl", "*.jsonl.gz", "*.columns.json"):
        for path in shard_dir.glob(pattern):
            streams.add(path.name.split(".", 1)[0])
    for stream in sorted(streams):
        digest = stream_content_hash(shard_dir, stream)
        if digest is not None:
            hashes[stream] = digest
    return hashes


def combine_hashes(hashes: Mapping[str, str]) -> str:
    """One digest over a stream-name -> hash map (order-independent)."""
    digest = hashlib.sha256()
    for stream, value in sorted(hashes.items()):
        digest.update(f"{stream}:{value}\n".encode())
    return digest.hexdigest()


def shard_content_hash(shard_dir: str | Path) -> str:
    """Combined content digest of one shard's current stream files."""
    return combine_hashes(shard_stream_hashes(shard_dir))


# -- cache keys ---------------------------------------------------------------


def analysis_key(prefix: str, params: Mapping[str, Any]) -> str:
    """Filename-safe cache key for one analysis parameterization.

    Embeds the accumulator schema version and the cache format version,
    so bumping either retires old entries by never looking at them.
    """
    payload = json.dumps(
        {
            "schema": SNAPSHOT_VERSION,
            "cache": CACHE_VERSION,
            "params": dict(params),
        },
        sort_keys=True,
        default=str,
    )
    return f"{prefix}-{hashlib.sha256(payload.encode()).hexdigest()[:16]}"


def _entry_path(
    store_dir: str | Path, shard_dirname: str, key: str
) -> tuple[Path, Path]:
    base = Path(store_dir) / CACHE_DIRNAME / shard_dirname
    return base / f"{key}.json", base / f"{key}.json.gz"


def _read_json(plain: Path, gzipped: Path) -> Optional[dict]:
    try:
        if plain.exists():
            return json.loads(plain.read_text())
        if gzipped.exists():
            with gzip.open(gzipped, "rt", encoding="utf-8") as fh:
                return json.load(fh)
    except (OSError, ValueError):
        return None  # unreadable or corrupt: treat as a miss
    return None


def _write_json(path: Path, data: dict, compress: bool) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    text = json.dumps(data, sort_keys=True)
    if compress:
        # Canonical gzip header (mtime=0, no embedded filename):
        # identical payloads produce byte-identical cache files, so
        # re-running an analysis never dirties an unchanged store.
        import io

        with io.TextIOWrapper(
            _CanonicalGzipFile(tmp), encoding="utf-8"
        ) as fh:
            fh.write(text)
    else:
        tmp.write_text(text)
    os.replace(tmp, path)
    return path


# -- per-shard analysis entries ----------------------------------------------


def save_analysis_cache(
    store_dir: str | Path,
    shard_dirname: str,
    key: str,
    content_hash: str,
    offsets: StitchOffsets,
    builder,
    features,
    per_class: Mapping[str, Any],
    compress: bool = False,
    codec: str = "jsonl",
) -> Path:
    """Persist one shard's folded accumulator states beside the store."""
    plain, gzipped = _entry_path(store_dir, shard_dirname, key)
    data = {
        "format": CACHE_FORMAT,
        "version": CACHE_VERSION,
        "schema": SNAPSHOT_VERSION,
        "codec": codec,
        "content_hash": content_hash,
        "offsets": [offsets.time, offsets.request_id, offsets.span_id],
        "builder": builder.state(),
        "features": features.state(),
        "per_class": [
            [cls, stats.state()] for cls, stats in sorted(per_class.items())
        ],
    }
    return _write_json(gzipped if compress else plain, data, compress)


def load_analysis_cache(
    store_dir: str | Path,
    shard_dirname: str,
    key: str,
    content_hash: str,
    offsets: StitchOffsets,
    codec: str = "jsonl",
):
    """Restore one shard's cached fold, or ``None`` if it cannot be used.

    Returns ``(builder, features, per_class)`` on a hit.  Every
    validity rule from the module docstring is enforced here; failures
    of any kind — including snapshot-layer ``ValueError`` on a stale
    schema — are treated as a miss, never raised.  ``codec`` must match
    the shard's manifest codec: converting a shard between codecs
    changes its bytes anyway, but the explicit check keeps the cache
    key honest even if a future codec hashed to the same digest.
    """
    from ..core import WorkloadFeatureStats, WorkloadProfileBuilder

    data = _read_json(*_entry_path(store_dir, shard_dirname, key))
    if not isinstance(data, dict):
        return None
    if data.get("format") != CACHE_FORMAT or data.get("version") != CACHE_VERSION:
        return None
    if data.get("schema") != SNAPSHOT_VERSION:
        return None
    if data.get("codec") != codec:
        return None
    if data.get("content_hash") != content_hash:
        return None
    if data.get("offsets") != [offsets.time, offsets.request_id, offsets.span_id]:
        return None
    try:
        builder = WorkloadProfileBuilder.from_state(data["builder"])
        features = WorkloadFeatureStats.from_state(data["features"])
        per_class = {
            str(cls): WorkloadFeatureStats.from_state(state)
            for cls, state in data["per_class"]
        }
    except (KeyError, TypeError, ValueError):
        return None
    return builder, features, per_class


# -- per-class model entries --------------------------------------------------


def _safe_name(name: str) -> str:
    return "".join(c if c.isalnum() or c in "-_." else "_" for c in name)


def model_cache_path(
    store_dir: str | Path, request_class: str, store_hash: str, config_digest: str
) -> Path:
    """Location of one class's cached model fit.

    The key digests the store-wide content hash, the class name and the
    training configuration: a whole-model cache (fits are not
    incrementally mergeable), valid only while no shard changes.
    """
    payload = f"{store_hash}\n{request_class}\n{config_digest}"
    digest = hashlib.sha256(payload.encode()).hexdigest()[:16]
    return (
        Path(store_dir)
        / CACHE_DIRNAME
        / "models"
        / f"{_safe_name(request_class)}-{digest}.json"
    )


def save_model_cache(path: Path, request_class: str, model_dict: dict) -> Path:
    return _write_json(
        path,
        {
            "format": MODEL_CACHE_FORMAT,
            "version": CACHE_VERSION,
            "class": request_class,
            "model": model_dict,
        },
        compress=False,
    )


def load_model_cache(path: Path, request_class: str) -> Optional[dict]:
    """The cached ``model_to_dict`` payload, or ``None`` on any mismatch."""
    data = _read_json(path, path)
    if not isinstance(data, dict):
        return None
    if (
        data.get("format") != MODEL_CACHE_FORMAT
        or data.get("version") != CACHE_VERSION
        or data.get("class") != request_class
        or not isinstance(data.get("model"), dict)
    ):
        return None
    return data["model"]
