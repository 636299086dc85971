"""Store watcher: fold newly appended shards into resident accumulators.

Polls :func:`repro.store.take_snapshot`, incrementally over the
previous poll's snapshot, and folds whatever complete, contiguous
shards appeared beyond the resident prefix.  Per-shard
results come from :func:`repro.store.analyze.analyze_shards`, the same
cached lookup the batch path uses, so:

* a daemon restart warm-loads every previously analyzed shard from
  cache instead of re-reading stream files, and
* a batch ``repro characterize`` run after the daemon (or vice versa)
  hits the cache entries the other one populated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from ..store.analyze import analyze_shards
from ..store.manifest import ShardManifest
from ..store.watch import StoreSnapshot, take_snapshot
from .state import ResidentAnalysis, manifest_digest

__all__ = ["PollResult", "StoreWatcher"]


class StoreShrunkError(RuntimeError):
    """The watched store lost shards the daemon already folded."""


class StoreRewrittenError(StoreShrunkError):
    """A shard the daemon already folded was replaced by another one."""


@dataclass
class PollResult:
    """What one watcher poll changed."""

    snapshot: StoreSnapshot
    folded: list[ShardManifest] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    elapsed_seconds: float = 0.0


class StoreWatcher:
    """Folds a store's growing shard prefix into a resident analysis."""

    def __init__(
        self,
        directory: str | Path,
        cache: bool = True,
        complete_rounds_only: bool = True,
    ):
        self.directory = Path(directory)
        self.cache = cache
        self.complete_rounds_only = complete_rounds_only
        #: The last snapshot taken; the next one reads only what changed.
        self.snapshot: Optional[StoreSnapshot] = None
        #: The manifest objects already checked against the resident fold.
        self._verified: tuple[ShardManifest, ...] = ()

    def refresh(self) -> StoreSnapshot:
        """Take (and keep) a snapshot, incremental over the last one."""
        self.snapshot = take_snapshot(
            self.directory,
            complete_rounds_only=self.complete_rounds_only,
            previous=self.snapshot,
        )
        return self.snapshot

    def poll(
        self,
        resident: ResidentAnalysis,
        on_fold: Optional[Callable[[ShardManifest, StoreSnapshot], None]] = None,
    ) -> PollResult:
        """Fold every newly visible shard beyond the resident prefix.

        ``on_fold(manifest, snapshot)`` fires after each shard merges —
        the daemon uses it to feed the drift window and metrics.
        """
        start = time.perf_counter()
        snapshot = self.refresh()
        if snapshot.n_shards < len(resident.folded):
            raise StoreShrunkError(
                f"store {self.directory} has {snapshot.n_shards} foldable "
                f"shards but {len(resident.folded)} are already resident"
            )
        # Finalized shards are write-once, so a prefix manifest the
        # snapshot reused from a verified one is unchanged; only reloaded
        # ones are checked against the fold.  A refused manifest is never
        # marked verified, so every later poll refuses it too.
        for i, entry in enumerate(resident.folded):
            manifest = snapshot.manifests[i]
            if i < len(self._verified) and manifest is self._verified[i]:
                continue
            if manifest_digest(manifest) != entry.digest:
                raise StoreRewrittenError(
                    f"shard {i} of store {self.directory} was replaced "
                    f"after it was folded"
                )
        result = PollResult(snapshot=snapshot)
        new = snapshot.manifests[len(resident.folded):]
        accumulators, result.cache_hits, result.cache_misses = analyze_shards(
            self.directory,
            [
                (m, snapshot.dirs[m.index], snapshot.offsets[m.index])
                for m in new
            ],
            resident.reducer.params,
            cache=self.cache,
        )
        for manifest, shard in zip(new, accumulators):
            resident.fold(manifest, *shard)
            result.folded.append(manifest)
            if on_fold is not None:
                on_fold(manifest, snapshot)
        self._verified = snapshot.manifests[: len(resident.folded)]
        result.elapsed_seconds = time.perf_counter() - start
        return result
