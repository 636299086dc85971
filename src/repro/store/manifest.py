"""Per-shard manifests: everything a merge needs without reading records.

A manifest is the only thing a fleet worker returns through the process
pool — a few hundred bytes instead of a pickled million-record
``TraceSet``.  It carries exactly the quantities the stitch arithmetic
consumes (``extent``, ``max_request_id``, ``max_span_id``) plus the
replica's provenance (seed, index, spec parameters) so downstream
analysis can group shards by sweep parameters without opening a single
stream file.

Version 2 adds two fields for multi-round stores:

* ``round`` — which collection round wrote the shard (``repro append``
  adds rounds to an existing store; round 0 is the initial collect).
* ``content_hashes`` — sha256 of each stream file's raw bytes, computed
  at finalize time.  These make shard edits and corruption detectable
  (`ShardStore.verify`) and key the incremental analysis cache.

Round files (``round-<n>.json`` at the store root) record which shard
indices each round produced; ``compact_store`` folds them into a single
``index.json`` so a reader of a many-round store stats one file instead
of globbing.

Version 3 adds ``codec`` — which stream layout the shard's files use
(``"jsonl"`` for ``.jsonl[.gz]`` lines, ``"columnar"`` for the binary
struct-of-arrays layout of :mod:`repro.tracing.columnar`).  Readers
negotiate per shard, so a store may mix codecs freely; v1/v2 manifests
read as ``codec="jsonl"``.

Version 4 adds ``tool_version`` — the package version of the tool that
wrote the shard, for provenance when a long-lived store accumulates
rounds across upgrades.  Pre-v4 manifests read as ``tool_version=""``.

Version 5 adds ``continues`` — set on every window shard after a
replica's first when ``repro collect --windows N`` splits one replica
across N shards.  A continuation shard carries timestamps and ids that
are already absolute within its replica, so the stitch arithmetic gives
the whole continuation group the group leader's offsets and advances by
the group max instead of summing (see
:func:`repro.store.stitch.accumulate_offsets`).  Pre-v5 manifests read
as ``continues=False``.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional

__all__ = [
    "MANIFEST_FILENAME",
    "SHARD_CODECS",
    "SHARD_FORMAT",
    "SHARD_VERSION",
    "STORE_INDEX_FILENAME",
    "ShardManifest",
    "StoreIndex",
    "compact_store",
    "load_store_index",
    "load_store_rounds",
    "parse_shard_index",
    "read_round_file",
    "round_filename",
    "shard_manifest_paths",
    "write_round_file",
]

SHARD_FORMAT = "repro-shard"
SHARD_VERSION = 5
MANIFEST_FILENAME = "manifest.json"

#: Stream layouts a shard may use (`ShardManifest.codec`).
SHARD_CODECS = ("jsonl", "columnar")

ROUND_FORMAT = "repro-store-round"
STORE_INDEX_FORMAT = "repro-store-index"
STORE_INDEX_VERSION = 1
STORE_INDEX_FILENAME = "index.json"


@dataclass(frozen=True)
class ShardManifest:
    """What one shard contains and where it sits in a merge."""

    index: int
    app: str = ""
    seed: int = 0
    #: Replica spec parameters (n_requests, arrival_rate, sample_every,
    #: plus anything a sweep varied) — the group-by key space.
    params: dict[str, Any] = field(default_factory=dict)
    #: Simulated duration the replica reported (0.0 when unknown).
    duration: float = 0.0
    #: Stitch extent: max(duration, latest timestamp in any stream).
    extent: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)
    max_request_id: int = 0
    max_span_id: int = 0
    #: Completed-request counts per request class (requests are only
    #: recorded on completion, so these are trainable-population sizes).
    request_classes: dict[str, int] = field(default_factory=dict)
    compress: bool = False
    #: Stream layout of this shard's files: ``"jsonl"`` line files or
    #: the binary ``"columnar"`` struct-of-arrays layout.  Pre-v3
    #: manifests have no codec field and read as ``"jsonl"``.
    codec: str = "jsonl"
    #: Collection round that wrote this shard (0 = initial collect;
    #: each ``repro append`` increments it).
    round: int = 0
    #: sha256 hex digest of each stream file's raw bytes at finalize
    #: time, keyed by stream name.  Empty for version-1 shards.
    content_hashes: dict[str, str] = field(default_factory=dict)
    #: Package version of the tool that wrote the shard ("" pre-v4).
    tool_version: str = ""
    #: True when this shard continues the previous shard's replica (a
    #: non-first window of a windowed collection): its timestamps and
    #: ids are absolute within that replica, so it shares the group
    #: leader's stitch offsets instead of opening a new timeline slot.
    continues: bool = False
    version: int = SHARD_VERSION

    @property
    def n_records(self) -> int:
        return sum(self.counts.values())

    def stitch_part(self) -> tuple[float, int, int, bool]:
        """The ``(extent, max_request_id, max_span_id, continues)`` tuple."""
        return (self.extent, self.max_request_id, self.max_span_id, self.continues)

    def param(self, key: str, default: Any = None) -> Any:
        """Look up a grouping key: manifest field first, then params."""
        if key in ("index", "app", "seed", "duration", "extent", "round"):
            return getattr(self, key)
        return self.params.get(key, default)

    def to_dict(self) -> dict[str, Any]:
        data = asdict(self)
        data["format"] = SHARD_FORMAT
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ShardManifest":
        data = dict(data)
        fmt = data.pop("format", SHARD_FORMAT)
        if fmt != SHARD_FORMAT:
            raise ValueError(f"not a shard manifest (format {fmt!r})")
        version = data.get("version", SHARD_VERSION)
        if not isinstance(version, int) or version > SHARD_VERSION:
            raise ValueError(f"unsupported shard manifest version {version!r}")
        # Version-1 manifests predate rounds and hashes, version-2 ones
        # predate codecs; the dataclass defaults (round 0, no hashes,
        # jsonl codec) are the right reading.
        manifest = cls(**data)
        if manifest.codec not in SHARD_CODECS:
            raise ValueError(f"unknown shard codec {manifest.codec!r}")
        return manifest

    def save(self, directory: str | Path) -> Path:
        """Write ``manifest.json`` into a shard directory.

        Written via a temp file + ``os.replace`` so a concurrent store
        watcher either sees no manifest (shard still being written) or a
        complete one — never a torn read.  Manifest presence is the
        shard-visibility signal for :func:`repro.store.take_snapshot`.
        """
        path = Path(directory) / MANIFEST_FILENAME
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        os.replace(tmp, path)
        return path

    @classmethod
    def load(cls, path: str | Path) -> "ShardManifest":
        """Read a manifest from ``manifest.json`` (or its directory)."""
        path = Path(path)
        if path.is_dir():
            path = path / MANIFEST_FILENAME
        return cls.from_dict(json.loads(path.read_text()))


def parse_shard_index(name: str) -> Optional[int]:
    """Shard index parsed from a ``shard-<n>`` directory name.

    Accepts any zero-pad width (historic stores pad to 5 digits, new
    ones to 8); returns ``None`` for names that are not shard dirs.
    """
    prefix = "shard-"
    if not name.startswith(prefix):
        return None
    digits = name[len(prefix):]
    return int(digits) if digits.isdigit() else None


def shard_manifest_paths(directory: str | Path) -> list[Path]:
    """Every ``shard-*/manifest.json`` path, sorted by parsed index.

    Lexicographic glob order diverges from index order once pad widths
    mix (``shard-100000`` sorts before ``shard-99999``), so every store
    reader iterates in parsed-index order instead.
    """
    paths = list(Path(directory).glob("shard-*/manifest.json"))
    paths.sort(
        key=lambda p: (
            parse_shard_index(p.parent.name) is None,
            parse_shard_index(p.parent.name) or 0,
            p.parent.name,
        )
    )
    return paths


# -- store-level round tracking ----------------------------------------------


def round_filename(round_index: int) -> str:
    """Name of the per-round index file at the store root."""
    return f"round-{round_index:05d}.json"


def write_round_file(
    directory: str | Path, round_index: int, shard_indices: list[int]
) -> Path:
    """Record which shard indices a collection round produced.

    Merges with an existing round file (union of shard indices) rather
    than overwriting it: two writers that allocated the same round
    number — e.g. a batch ``repro append`` racing a live-ingest commit —
    each add their shards instead of delisting the other's, which under
    complete-rounds-only visibility gating would otherwise leave those
    shards permanently invisible.  An unreadable existing file is
    replaced.  Written via temp + ``os.replace`` so readers never see a
    torn round file.
    """
    path = Path(directory) / round_filename(round_index)
    shards = set(int(i) for i in shard_indices)
    if path.exists():
        try:
            existing = json.loads(path.read_text())
            if existing.get("format") == ROUND_FORMAT:
                shards.update(int(i) for i in existing.get("shards", []))
        except (OSError, ValueError):
            pass  # corrupt round file: rewrite it from what we know
    tmp = path.with_suffix(".json.tmp")
    tmp.write_text(
        json.dumps(
            {
                "format": ROUND_FORMAT,
                "version": STORE_INDEX_VERSION,
                "round": round_index,
                "shards": sorted(shards),
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    os.replace(tmp, path)
    return path


def load_store_rounds(directory: str | Path) -> dict[int, list[int]]:
    """Read every ``round-*.json`` file: round index -> shard indices.

    Single-round stores written before rounds existed have no round
    files; callers treat every shard as round 0 in that case.
    """
    return dict(
        read_round_file(path)
        for path in sorted(Path(directory).glob("round-*.json"))
    )


def read_round_file(path: str | Path) -> tuple[int, list[int]]:
    """One ``round-*.json`` file as ``(round index, shard indices)``."""
    data = json.loads(Path(path).read_text())
    if data.get("format") != ROUND_FORMAT:
        raise ValueError(f"{path} is not a store round file")
    return int(data["round"]), [int(i) for i in data["shards"]]


@dataclass(frozen=True)
class StoreIndex:
    """Compacted store-level index: one file instead of N round files.

    Holds the round → shard-indices map plus per-shard content-hash
    digests, so integrity checks and cache invalidation can start
    without touching any per-shard manifest.
    """

    rounds: dict[int, list[int]] = field(default_factory=dict)
    #: Combined digest per shard index: sha256 over the shard's sorted
    #: per-stream hashes (empty string for hashless v1 shards).
    shard_digests: dict[int, str] = field(default_factory=dict)

    @property
    def n_shards(self) -> int:
        return sum(len(v) for v in self.rounds.values())

    def to_dict(self) -> dict[str, Any]:
        return {
            "format": STORE_INDEX_FORMAT,
            "version": STORE_INDEX_VERSION,
            "rounds": {str(k): sorted(v) for k, v in sorted(self.rounds.items())},
            "shard_digests": {
                str(k): v for k, v in sorted(self.shard_digests.items())
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StoreIndex":
        fmt = data.get("format")
        if fmt != STORE_INDEX_FORMAT:
            raise ValueError(f"not a store index (format {fmt!r})")
        version = data.get("version")
        if not isinstance(version, int) or version > STORE_INDEX_VERSION:
            raise ValueError(f"unsupported store index version {version!r}")
        return cls(
            rounds={int(k): [int(i) for i in v] for k, v in data["rounds"].items()},
            shard_digests={
                int(k): str(v) for k, v in data.get("shard_digests", {}).items()
            },
        )

    def save(self, directory: str | Path) -> Path:
        path = Path(directory) / STORE_INDEX_FILENAME
        path.write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        return path


def load_store_index(directory: str | Path) -> Optional[StoreIndex]:
    """Read ``index.json`` if present (None otherwise)."""
    path = Path(directory) / STORE_INDEX_FILENAME
    if not path.exists():
        return None
    return StoreIndex.from_dict(json.loads(path.read_text()))


def compact_store(directory: str | Path) -> StoreIndex:
    """Fold round files (and shard manifests) into one ``index.json``.

    Reads every shard manifest once, groups shards by their recorded
    round, writes the combined :class:`StoreIndex`, and removes the now
    redundant ``round-*.json`` files.  Idempotent: compacting twice is
    a no-op, and appending after a compact simply adds new round files
    to fold in next time.
    """
    from .cache import combine_hashes  # local import: cache imports manifest

    directory = Path(directory)
    rounds: dict[int, list[int]] = {}
    digests: dict[int, str] = {}
    for manifest_path in shard_manifest_paths(directory):
        manifest = ShardManifest.load(manifest_path)
        rounds.setdefault(manifest.round, []).append(manifest.index)
        digests[manifest.index] = (
            combine_hashes(manifest.content_hashes)
            if manifest.content_hashes
            else ""
        )
    index = StoreIndex(rounds=rounds, shard_digests=digests)
    index.save(directory)
    for path in directory.glob("round-*.json"):
        path.unlink()
    return index
