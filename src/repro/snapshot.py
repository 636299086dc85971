"""Unified versioned-snapshot protocol.

Every checkpoint-capable component in the repository — streaming
accumulators (:mod:`repro.stats.streaming`), composite profile builders
(:mod:`repro.core.profile`), the serve daemon's resident state
(:mod:`repro.serve.state`) and the simulation engine checkpoints
(:mod:`repro.simulation.checkpoint`) — speaks one snapshot dialect:

* a snapshot is a JSON-able mapping carrying ``kind`` (what it is) and
  ``version`` (the schema it was written under);
* :data:`SNAPSHOT_VERSION` is the single schema version all writers
  embed; readers accept anything up to it and reject newer snapshots
  (typed :class:`SnapshotVersionError`) so stale code skips — never
  misreads — state written by a later release;
* :func:`check_state` is the one validator every ``from_state``
  restores through;
* :func:`save_snapshot` / :func:`load_snapshot` move snapshots through
  atomic JSON[.gz] files (unique temp + ``os.replace``, so concurrent
  writers each publish a whole file and readers never see a torn one).

Components implement the :class:`Snapshotable` protocol —
``state()`` returning a snapshot mapping and a ``from_state``
classmethod restoring an equivalent object — and the contract is
behavioral: ``from_state(x.state())`` acts identically to ``x`` for
every future operation.

``repro.stats.STREAMING_STATE_VERSION`` and
``repro.serve.SERVE_STATE_VERSION`` remain as plain aliases of
:data:`SNAPSHOT_VERSION`.
"""

from __future__ import annotations

import gzip
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Mapping, Protocol, runtime_checkable

__all__ = [
    "SNAPSHOT_VERSION",
    "Snapshotable",
    "SnapshotError",
    "SnapshotFormatError",
    "SnapshotMismatchError",
    "SnapshotVersionError",
    "check_state",
    "load_snapshot",
    "make_state",
    "save_snapshot",
]

#: Schema version embedded in every snapshot.  Bump when any ``state()``
#: layout changes incompatibly; readers reject newer versions, and the
#: analysis cache keys on it so old cache files are invalidated rather
#: than misinterpreted.
SNAPSHOT_VERSION = 1


class SnapshotError(ValueError):
    """Base for all snapshot protocol failures.

    Subclasses ``ValueError`` so pre-protocol callers that caught
    ``ValueError`` around ``from_state`` keep working.
    """


class SnapshotFormatError(SnapshotError):
    """The payload is not a snapshot, or is a snapshot of the wrong kind."""


class SnapshotVersionError(SnapshotError):
    """The snapshot was written by a newer schema than this build reads."""


class SnapshotMismatchError(SnapshotError):
    """A restored object failed validation against its recorded state.

    Raised by engine checkpoint restores when the deterministic replay
    lands on a different state than the checkpoint recorded — typically
    a code change between save and restore, or a snapshot moved to an
    incompatible environment.
    """


@runtime_checkable
class Snapshotable(Protocol):
    """The protocol every snapshot-capable component implements."""

    def state(self) -> dict[str, Any]:
        """A JSON-able snapshot carrying ``kind`` and ``version``."""
        ...  # pragma: no cover - protocol declaration

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "Snapshotable":
        """Restore an object behaviorally identical to the snapshotted one."""
        ...  # pragma: no cover - protocol declaration


def make_state(
    kind: str, payload: Mapping[str, Any], *, version: int = SNAPSHOT_VERSION
) -> dict[str, Any]:
    """Assemble a snapshot mapping: ``kind`` + ``version`` + payload."""
    state: dict[str, Any] = {"kind": kind, "version": version}
    state.update(payload)
    return state


def check_state(
    state: Mapping[str, Any],
    kind: str,
    *,
    version: int = SNAPSHOT_VERSION,
    kind_key: str = "kind",
) -> Mapping[str, Any]:
    """Validate a snapshot's kind and version before restoring from it.

    ``kind_key`` accommodates pre-protocol layouts that tagged
    themselves under another key (the serve checkpoint's ``format``);
    new snapshot kinds always use ``kind``.
    """
    if not isinstance(state, Mapping):
        raise SnapshotFormatError(
            f"accumulator state must be a mapping, got {type(state)}"
        )
    got = state.get(kind_key)
    if got != kind:
        raise SnapshotFormatError(f"expected {kind!r} state, got {got!r}")
    got_version = state.get("version")
    if not isinstance(got_version, int) or got_version > version:
        raise SnapshotVersionError(
            f"unsupported {kind} state version {got_version!r} "
            f"(this build reads <= {version})"
        )
    return state


def save_snapshot(
    state: Mapping[str, Any], path: str | Path, *, indent: int | None = None
) -> Path:
    """Write a snapshot to a JSON[.gz] file atomically.

    A ``.gz`` suffix selects gzip (written with a canonical header —
    zero mtime, no filename — so identical snapshots are byte-identical
    files).  The write goes to a unique temp file in the target
    directory and lands via ``os.replace``: concurrent savers each
    publish a whole snapshot, last writer wins, readers never observe a
    torn file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(state, sort_keys=True, indent=indent) + "\n"
    fd, tmp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=path.parent
    )
    try:
        if path.suffix == ".gz":
            with os.fdopen(fd, "wb") as raw:
                with gzip.GzipFile(
                    fileobj=raw, mode="wb", mtime=0, filename=""
                ) as handle:
                    handle.write(text.encode("utf-8"))
        else:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def load_snapshot(path: str | Path) -> dict[str, Any]:
    """Read a snapshot written by :func:`save_snapshot`.

    Raises :class:`SnapshotFormatError` for files that are not JSON
    mappings; kind/version validation is the caller's ``from_state``
    (via :func:`check_state`), which knows what it expects.
    """
    path = Path(path)
    try:
        if path.suffix == ".gz":
            with gzip.open(path, "rt", encoding="utf-8") as handle:
                data = json.load(handle)
        else:
            data = json.loads(path.read_text())
    except (json.JSONDecodeError, gzip.BadGzipFile, UnicodeDecodeError) as error:
        raise SnapshotFormatError(f"{path} is not a snapshot file: {error}")
    if not isinstance(data, dict):
        raise SnapshotFormatError(
            f"{path} is not a snapshot file: expected a JSON mapping, "
            f"got {type(data).__name__}"
        )
    return data
