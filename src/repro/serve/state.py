"""Daemon state: resident accumulators and checkpoint/restore.

:class:`ResidentAnalysis` holds the daemon's long-lived
:class:`~repro.store.analyze.AnalysisReducer` — the object
:func:`repro.store.analyze_source` folds shards into — plus a ledger of
the shards it has absorbed.  Folding appended shards one poll at a time
therefore lands on accumulators *equal* to a batch re-analysis of the
full store, so ``/profile`` can promise byte-equality with
``repro characterize``.

:class:`ServeState` wraps the resident accumulators (plus the drift
monitor's window) in a versioned JSON checkpoint following the
repository-wide :mod:`repro.snapshot` protocol.  On restart the daemon
restores it, validates the folded-shard ledger against what is on disk
(combined content hashes from the manifests — no re-hashing of stream
files), and resumes; a stale or mismatched checkpoint is discarded and
the store is cold-folded through the analysis cache instead, which is
merely slower, never wrong.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional

from ..snapshot import (
    SNAPSHOT_VERSION as _SNAPSHOT_VERSION,
    SnapshotFormatError,
    check_state as _check_state,
    load_snapshot,
    save_snapshot,
)
from ..store.analyze import AnalysisReducer, SourceAnalysis
from ..store.manifest import ShardManifest

__all__ = [
    "SERVE_STATE_FORMAT",
    "FoldedShard",
    "ResidentAnalysis",
    "ServeState",
]

SERVE_STATE_FORMAT = "repro-serve-state"


@dataclass(frozen=True)
class FoldedShard:
    """Ledger entry: one shard the resident accumulators have absorbed."""

    index: int
    #: Combined content digest, from the manifest's per-stream hashes.
    digest: str
    round: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {"index": self.index, "digest": self.digest, "round": self.round}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FoldedShard":
        return cls(
            index=int(data["index"]),
            digest=str(data["digest"]),
            round=int(data.get("round", 0)),
        )


def manifest_digest(manifest: ShardManifest) -> str:
    """The shard's combined content digest ("" for hashless v1 shards)."""
    from ..store.cache import combine_hashes

    return (
        combine_hashes(manifest.content_hashes)
        if manifest.content_hashes
        else ""
    )


def _reduced(name: str) -> property:
    """Read-through to one attribute of the resident reducer."""
    return property(lambda self: getattr(self.reducer, name))


class ResidentAnalysis:
    """Live merged accumulators over a contiguous folded-shard prefix."""

    window = _reduced("window")
    cores = _reduced("cores")
    max_quantile_values = _reduced("max_quantile_values")
    builder = _reduced("builder")
    features = _reduced("features")
    per_class = _reduced("per_class")

    def __init__(
        self,
        window: float = 0.25,
        cores: int = 8,
        max_quantile_values: Optional[int] = None,
    ):
        self.reducer = AnalysisReducer(window, cores, max_quantile_values)
        self.folded: list[FoldedShard] = []
        #: Bumped on every fold; endpoint caches key on it.
        self.generation = 0

    @property
    def next_index(self) -> int:
        """The only shard index :meth:`fold` will accept next."""
        return len(self.folded)

    @property
    def n_requests(self) -> int:
        return self.features.n

    def fold(self, manifest: ShardManifest, shard_builder, shard_features,
             shard_classes: Mapping[str, Any]) -> None:
        """Fold the next shard's accumulators into the reducer and ledger."""
        if manifest.index != self.next_index:
            raise ValueError(
                f"fold out of order: expected shard {self.next_index}, "
                f"got {manifest.index}"
            )
        self.reducer.fold(shard_builder, shard_features, shard_classes)
        self.folded.append(
            FoldedShard(
                index=manifest.index,
                digest=manifest_digest(manifest),
                round=manifest.round,
            )
        )
        self.generation += 1

    def profile(self):
        return self.builder.profile()

    def analysis(self) -> SourceAnalysis:
        """The batch-shaped view, accepted by ``validate_per_class``."""
        return self.reducer.analysis()

    def matches_prefix(self, manifests) -> bool:
        """Whether the folded ledger equals the store's current prefix."""
        if len(manifests) < len(self.folded):
            return False
        return all(
            entry.index == manifest.index
            and entry.digest == manifest_digest(manifest)
            for entry, manifest in zip(self.folded, manifests)
        )

    # -- snapshots -----------------------------------------------------------

    def state(self) -> dict[str, Any]:
        return {
            "kind": "resident-analysis",
            "version": _SNAPSHOT_VERSION,
            **self.reducer.state(),
            "folded": [entry.to_dict() for entry in self.folded],
            "generation": self.generation,
        }

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "ResidentAnalysis":
        _check_state(state, "resident-analysis")
        resident = cls()
        resident.reducer = AnalysisReducer.from_state(state)
        resident.folded = [
            FoldedShard.from_dict(entry) for entry in state["folded"]
        ]
        resident.generation = int(state.get("generation", len(resident.folded)))
        return resident


@dataclass
class ServeState:
    """Versioned daemon checkpoint: resident analysis + drift window."""

    resident: ResidentAnalysis
    drift: Optional[dict[str, Any]] = None
    tool_version: str = ""
    store: str = ""
    extra: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "format": SERVE_STATE_FORMAT,
            "version": _SNAPSHOT_VERSION,
            "tool_version": self.tool_version,
            "store": self.store,
            "resident": self.resident.state(),
            "drift": self.drift,
            "extra": self.extra,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ServeState":
        fmt = data.get("format") if isinstance(data, Mapping) else None
        if fmt != SERVE_STATE_FORMAT:
            raise SnapshotFormatError(f"not a serve checkpoint (format {fmt!r})")
        _check_state(data, SERVE_STATE_FORMAT, kind_key="format")
        return cls(
            resident=ResidentAnalysis.from_state(data["resident"]),
            drift=data.get("drift"),
            tool_version=str(data.get("tool_version", "")),
            store=str(data.get("store", "")),
            extra=dict(data.get("extra", {})),
        )

    # ``state``/``from_state`` complete the Snapshotable protocol; the
    # historic ``to_dict``/``from_dict`` names remain the primary spelling
    # inside the serve subsystem.
    def state(self) -> dict[str, Any]:
        return self.to_dict()

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "ServeState":
        return cls.from_dict(state)

    def save(self, path: str | Path) -> Path:
        """Atomic write via :func:`repro.snapshot.save_snapshot`."""
        return save_snapshot(self.to_dict(), path)

    @classmethod
    def load(cls, path: str | Path) -> "ServeState":
        return cls.from_dict(load_snapshot(path))
