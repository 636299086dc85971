"""Watch hooks: consistent snapshots of a store that is still growing.

A live store is racy in two ways a batch reader never sees:

* **Shard completeness.**  Fleet workers create their shard directory
  the moment they start and write ``manifest.json`` only at finalize
  (atomically, via rename).  A readable manifest therefore *is* the
  completeness signal — a ``shard-*`` directory without one is a shard
  still being written.
* **Prefix contiguity.**  Stitch offsets are cumulative: shard *i*'s
  placement on the merged timeline depends on every shard below *i*.
  Parallel workers finish out of order, so shard 3 may be complete
  while shard 2 is still streaming.  Folding shard 3 early would pin
  it to wrong offsets, so a snapshot only exposes the longest
  *contiguous* complete prefix starting at index 0; later complete
  shards are reported as ``pending`` and become visible once the gap
  closes.

With ``complete_rounds_only`` the visibility unit is coarsened from
shards to rounds: a shard is only exposed once its collection round's
``round-<n>.json`` (or a compacted ``index.json``) lists it, which the
collectors write only after *every* shard of the round finalized.
That is the daemon's default — the resident profile then moves in
whole-round steps instead of churning mid-append.  Stores that predate
round files have no round records at all; every complete shard is
visible there.

Snapshots are incremental.  Pass the previous snapshot as ``previous``
and a poll costs one listing of the store root plus:

* a manifest read for each shard directory past the previous prefix
  (prefix manifests are reused while their directory keeps its name
  and inode: finalized shards are write-once);
* a ``stat`` of each round file and ``index.json``, re-read only when
  its ``(st_ino, st_mtime_ns, st_size)`` changed.

A snapshot without ``previous`` is the cold case of the same code: it
reads every manifest and record file.  Either way the result equals a
fresh snapshot of the store as it stands, as long as finalized shards
are not edited in place.  A prefix shard directory deleted and
recreated between two snapshots is noticed unless the filesystem hands
the new directory the old one's inode number, which ext4 may do.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Any, Mapping, NamedTuple, Optional

from .manifest import (
    STORE_INDEX_FILENAME,
    ShardManifest,
    StoreIndex,
    parse_shard_index,
    read_round_file,
)
from .stitch import StitchOffsets, offsets_for

__all__ = ["StoreSnapshot", "take_snapshot"]

#: ``(st_ino, st_mtime_ns, st_size)``: a record file is re-read only
#: when this changes.  Writers replace round files by rename (a new
#: inode) and ``compact_store`` rewrites ``index.json`` in place.
_FileKey = tuple[int, int, int]


class _Shard(NamedTuple):
    """A listed shard directory; ``manifest`` is None while incomplete."""

    name: str
    index: int
    inode: int
    path: Path
    manifest: Optional[ShardManifest]


@dataclass(frozen=True)
class StoreSnapshot:
    """One consistent view of a growing store: the foldable prefix.

    ``manifests`` is the contiguous complete prefix in index order
    (``manifests[i].index == i``) with ``offsets[i]`` its stitch
    offsets; ``pending`` lists shard indices that exist beyond the
    prefix but are not yet foldable (incomplete, behind a gap, or
    waiting for their round record).
    """

    directory: Path
    manifests: tuple[ShardManifest, ...]
    offsets: tuple[StitchOffsets, ...]
    #: Shard directory per prefix entry (pad width varies across eras).
    dirs: tuple[Path, ...]
    pending: tuple[int, ...]
    #: What the next incremental snapshot reuses, left out of equality
    #: so an incremental snapshot equals a cold one: the prefix shards
    #: by directory name, and the parsed round files and ``index.json``
    #: by file name as ``(key, contents)``.
    prefix: Mapping[str, _Shard] = field(
        default_factory=dict, compare=False, repr=False
    )
    records: Mapping[str, tuple[_FileKey, Any]] = field(
        default_factory=dict, compare=False, repr=False
    )

    @property
    def n_shards(self) -> int:
        return len(self.manifests)

    @property
    def n_records(self) -> int:
        return sum(m.n_records for m in self.manifests)

    @property
    def max_round(self) -> int:
        return max((m.round for m in self.manifests), default=-1)


def _load_manifest(shard_dir: Path) -> Optional[ShardManifest]:
    """The shard's manifest, or None while it is incomplete/unreadable."""
    try:
        return ShardManifest.load(shard_dir)
    except FileNotFoundError:
        return None
    except (OSError, ValueError, TypeError, json.JSONDecodeError):
        # A torn or foreign manifest reads the same as an absent one:
        # the shard is not foldable yet.  (Writers rename manifests into
        # place, so torn reads only happen on non-atomic filesystems.)
        return None


def _read_round(path: str) -> Optional[tuple[int, list[int]]]:
    """A round file's ``(round, shards)``, or None when unreadable."""
    try:
        return read_round_file(path)
    except (OSError, ValueError):
        return None


def _read_index(path: str) -> StoreIndex:
    return StoreIndex.from_dict(json.loads(Path(path).read_text()))


def _recorded_shards(
    index: Optional[StoreIndex], rounds: list[Optional[tuple[int, list[int]]]]
) -> Optional[frozenset[int]]:
    """Shard indices listed by the round files / the compacted index.

    ``rounds`` holds the parsed round files in name order, ``None`` for
    one that cannot be read.  ``None`` when the store has no round
    records at all (legacy single-round store) — round gating does not
    apply there.  An unreadable round file still gates: the shards only
    it would list stay hidden.  A round number that two files claim
    keeps the later file's shards.
    """
    if index is None and not rounds:
        return None
    recorded: set[int] = set()
    if index is not None:
        for shards in index.rounds.values():
            recorded.update(shards)
    for shards in dict(r for r in rounds if r is not None).values():
        recorded.update(shards)
    return frozenset(recorded)


def take_snapshot(
    directory: str | Path,
    complete_rounds_only: bool = False,
    previous: Optional[StoreSnapshot] = None,
) -> StoreSnapshot:
    """Snapshot the foldable contiguous prefix of a (growing) store.

    With ``previous`` (an earlier snapshot of the same directory) the
    prefix manifests and unchanged record files it read are reused;
    see the module docstring.
    """
    directory = Path(directory)
    if previous is None or previous.directory != directory:
        previous = StoreSnapshot(directory, (), (), (), ())

    shards: dict[int, _Shard] = {}
    record_entries: list[os.DirEntry] = []
    with os.scandir(directory) as entries:
        for entry in entries:
            name = entry.name
            known = previous.prefix.get(name)
            if known is not None and known.inode == entry.inode() and entry.is_dir():
                shards[known.index] = known
            elif name.startswith("shard-"):
                index = parse_shard_index(name)
                if index is not None and entry.is_dir():
                    path = Path(entry.path)
                    shards[index] = _Shard(
                        name, index, entry.inode(), path, _load_manifest(path)
                    )
            elif complete_rounds_only and (
                name == STORE_INDEX_FILENAME or fnmatchcase(name, "round-*.json")
            ):
                record_entries.append(entry)

    records: dict[str, tuple[_FileKey, Any]] = {}
    for entry in sorted(record_entries, key=lambda e: e.name):
        try:
            stat = entry.stat()
        except FileNotFoundError:
            continue  # removed since the listing (compact_store)
        key = (stat.st_ino, stat.st_mtime_ns, stat.st_size)
        known_record = previous.records.get(entry.name)
        if known_record is not None and known_record[0] == key:
            records[entry.name] = known_record
        elif entry.name == STORE_INDEX_FILENAME:
            records[entry.name] = (key, _read_index(entry.path))
        else:
            records[entry.name] = (key, _read_round(entry.path))
    visible = None
    if complete_rounds_only:
        index_record = records.get(STORE_INDEX_FILENAME)
        visible = _recorded_shards(
            None if index_record is None else index_record[1],
            [
                contents
                for name, (_, contents) in records.items()
                if name != STORE_INDEX_FILENAME
            ],
        )

    def foldable(index: int) -> bool:
        shard = shards.get(index)
        return (
            shard is not None
            and shard.manifest is not None
            and (visible is None or index in visible)
        )

    n_prefix = 0
    while foldable(n_prefix):
        n_prefix += 1
    prefix = [shards[index] for index in range(n_prefix)]
    manifests = tuple(shard.manifest for shard in prefix)
    pending = tuple(
        index for index in sorted(shards) if index >= n_prefix and foldable(index)
    )
    return StoreSnapshot(
        directory=directory,
        manifests=manifests,  # type: ignore[arg-type]
        offsets=tuple(offsets_for([m.stitch_part() for m in manifests])),
        dirs=tuple(shard.path for shard in prefix),
        pending=pending,
        prefix={shard.name: shard for shard in prefix},
        records=records,
    )
