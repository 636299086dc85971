"""Codec conversion for shard stores: rewrite streams, keep the timeline.

``convert_store`` rewrites every shard of a store into a destination
directory under a chosen codec (``"jsonl"`` or ``"columnar"``), shard
by shard.  Records are read **unshifted** and re-streamed through a
fresh :class:`~repro.store.ShardWriter` carrying the same index, app,
seed, params, round and duration — so the regenerated manifest's
stitch quantities (extent, max ids, counts, per-class counts) are
recomputed from identical records and come out identical, and any
analysis over the converted store is byte-identical to the original
(the acceptance bar ``tests/test_columnar_store.py`` pins down).

Round files / ``index.json`` are regenerated to mirror the source
store's round structure.  The analysis cache (``_cache/``) is *not*
copied: entries key on content hashes and codec, so none would hit.
"""

from __future__ import annotations

from pathlib import Path

from ..tracing.store import STREAM_TYPES, check_codec
from .manifest import (
    ShardManifest,
    load_store_index,
    load_store_rounds,
    write_round_file,
)
from .shards import ShardStore, is_shard_store
from .writer import ShardWriter, shard_dirname

__all__ = ["convert_flat_dump", "convert_store"]


def convert_store(
    source: str | Path,
    destination: str | Path,
    codec: str,
    compress: bool = False,
) -> list[ShardManifest]:
    """Rewrite a shard store under another codec; returns new manifests.

    ``compress`` gzips jsonl stream files (rejected for columnar, whose
    column buffers are raw binary).  The destination must not already
    hold a shard store.
    """
    check_codec(codec, compress)
    source = Path(source)
    destination = Path(destination)
    if not is_shard_store(source):
        raise FileNotFoundError(f"{source} is not a shard store")
    if is_shard_store(destination):
        raise FileExistsError(
            f"{destination} already holds a shard store; choose a fresh "
            "directory"
        )
    store = ShardStore(source)
    destination.mkdir(parents=True, exist_ok=True)
    manifests: list[ShardManifest] = []
    for manifest in store.manifests:
        writer = ShardWriter(
            destination / shard_dirname(manifest.index),
            index=manifest.index,
            app=manifest.app,
            seed=manifest.seed,
            params=manifest.params,
            compress=compress,
            round=manifest.round,
            codec=codec,
        )
        with writer:
            for stream in STREAM_TYPES:
                for record in store.iter_shard_stream(manifest, stream):
                    writer.write(stream, record)
            new_manifest = writer.finalize(duration=manifest.duration)
        manifests.append(new_manifest)
    # Mirror the source's round bookkeeping.  Pre-round stores have no
    # round files; fall back to the manifests' recorded rounds.
    rounds = load_store_rounds(source)
    if not rounds:
        grouped: dict[int, list[int]] = {}
        for m in manifests:
            grouped.setdefault(m.round, []).append(m.index)
        rounds = grouped
    for round_index, shard_indices in sorted(rounds.items()):
        write_round_file(destination, round_index, shard_indices)
    if load_store_index(source) is not None:
        from .manifest import compact_store

        compact_store(destination)
    return manifests


def convert_flat_dump(
    source: str | Path,
    destination: str | Path,
    codec: str,
    compress: bool = False,
) -> Path:
    """Rewrite a flat trace dump under another codec.

    The flat-dump counterpart of :func:`convert_store`: records stream
    from a :class:`~repro.tracing.FlatTraceDump` (either codec) through
    :func:`~repro.tracing.save_traces`, one record at a time.  The
    destination must not already hold a stream file (of either codec):
    writing into it would truncate the streams still being read when it
    is the source, and leave a directory mixing codecs otherwise.
    """
    from ..tracing.source import FlatTraceDump
    from ..tracing.store import refuse_stream_files, save_traces

    dump = FlatTraceDump(source)
    refuse_stream_files(destination)
    return save_traces(dump, destination, compress=compress, codec=codec)
