"""The time-dependency queue: KOOZA's structural component.

"…and a queue, configurable for each workload, that demonstrates the
structure of the application, i.e. the order in which each model
becomes active" (§4).  The queue is mined from Dapper-style span
traces: for each request profile, the modal ordered sequence of
subsystem activations.  :func:`stage_sequences` reads each trace's
activation order straight off the span columns, with no span or tree
objects; :func:`mine_dependency_queue` takes the modes.  Control-plane
stages (master lookups) are optional hops and are excluded from the
canonical structure.  :func:`span_preorder` is the one span-structure
path: the in-depth studies' walks (:func:`trace_walks`) come from it
too, so bad span input follows one rule everywhere.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Hashable, Mapping, Optional, Sequence

import numpy as np

__all__ = [
    "STAGE_COLUMNS",
    "WALK_COLUMNS",
    "DependencyQueue",
    "mine_dependency_queue",
    "span_preorder",
    "stage_sequences",
    "trace_walks",
]

#: The span columns :func:`stage_sequences` reads.
STAGE_COLUMNS = ("trace_id", "span_id", "parent_id", "name", "start")

#: The span columns :func:`trace_walks` reads.
WALK_COLUMNS = STAGE_COLUMNS + ("end",)

#: Span names that are optional control-plane hops, not the structure.
_OPTIONAL_STAGES = ("master_lookup",)


class DependencyQueue:
    """Per-profile modal stage sequences with support counts."""

    def __init__(
        self,
        sequences: dict[Hashable, tuple[str, ...]],
        supports: dict[Hashable, int],
        default: tuple[str, ...],
    ):
        if not default:
            raise ValueError("default stage sequence must be non-empty")
        self.sequences = dict(sequences)
        self.supports = dict(supports)
        self.default = tuple(default)

    def sequence_for(self, profile: Hashable = None) -> tuple[str, ...]:
        """Stage order for a request profile (the global mode if the
        profile was never observed)."""
        return self.sequences.get(profile, self.default)

    @property
    def n_profiles(self) -> int:
        return len(self.sequences)

    def describe(self) -> str:
        lines = [f"DependencyQueue: default={' -> '.join(self.default)}"]
        for profile, seq in sorted(self.sequences.items(), key=lambda kv: str(kv[0])):
            lines.append(
                f"  profile {profile}: {' -> '.join(seq)}"
                f" (n={self.supports.get(profile, 0)})"
            )
        return "\n".join(lines)


def span_preorder(spans: Mapping[str, Any]) -> tuple[np.ndarray, np.ndarray]:
    """Every single-root trace's reached spans in depth-first preorder.

    ``spans`` is a span column dict carrying :data:`STAGE_COLUMNS`
    (:func:`repro.tracing.source_columns`).  Returns ``(rows,
    has_child)``: the column rows of each trace with exactly one root,
    in trace id order, as a walk from the root visits them (siblings by
    start time, then stream order), and whether each row parents a
    span.  Orphans are dropped with their subtrees, and so are parent
    cycles, which no root reaches.  Span ids must be unique within a
    trace (``ValueError`` otherwise).  A span's preorder position is
    the lexicographic order of its ancestors' sibling ranks.
    """
    n = spans["n"]
    if not n:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool)
    order = np.argsort(spans["trace_id"], kind="stable")
    trace = spans["trace_id"][order]
    span_id = spans["span_id"][order]
    parent = spans["parent_id"][order]
    start = spans["start"][order]

    head = np.ones(n, dtype=bool)
    head[1:] = trace[1:] != trace[:-1]
    trace_rank = np.cumsum(head) - 1
    is_root = np.isnan(parent)
    one_root = np.add.reduceat(is_root.astype(np.int64), np.flatnonzero(head)) == 1

    # Parent row of every span: look (trace, parent id) up among the
    # (trace, span id) keys; -1 for roots and orphans.
    ids = np.unique(span_id)
    key = trace_rank * ids.size + np.searchsorted(ids, span_id)
    by_key = np.argsort(key, kind="stable")
    keys = key[by_key]
    if np.any(keys[1:] == keys[:-1]):
        raise ValueError("span ids must be unique within a trace")
    rows = np.flatnonzero(~is_root)
    wanted = parent[rows].astype(np.int64)
    slot = np.minimum(np.searchsorted(ids, wanted), ids.size - 1)
    wanted_key = trace_rank[rows] * ids.size + slot
    at = np.minimum(np.searchsorted(keys, wanted_key), n - 1)
    found = (ids[slot] == wanted) & (keys[at] == wanted_key)
    rows = rows[found]
    parent_of = by_key[at[found]]
    parent_row = np.full(n, -1)
    parent_row[rows] = parent_of

    # Depth from the root, level by level; -1 marks spans no root reaches.
    depth = np.full(n, -1)
    depth[is_root & one_root[trace_rank]] = 0
    level = 0
    while True:
        reached = rows[depth[parent_of] == level]
        if not reached.size:
            break
        level += 1
        depth[reached] = level
    has_child = np.zeros(n, dtype=bool)
    has_child[parent_of] = True
    reached = np.flatnonzero(depth >= 0)

    # Sibling rank of each reached span: its position in an order that
    # groups spans by parent and sorts each group by (start, stream
    # order).  Only comparisons between siblings are ever made.
    inner = np.flatnonzero(depth > 0)
    inner = inner[np.lexsort((inner, start[inner], parent_row[inner]))]
    rank = np.zeros(n, dtype=np.int64)
    rank[inner] = np.arange(inner.size)

    # Each span's root path of sibling ranks: row k holds the rank of
    # its ancestor at depth k + 1, or -1 past the span's own depth, so
    # an ancestor sorts before its descendants.
    node = reached.copy()
    node_depth = depth[reached]
    path = np.full((level, reached.size), -1, dtype=np.int64)
    for _ in range(level):
        up = np.flatnonzero(node_depth > 0)
        path[node_depth[up] - 1, up] = rank[node[up]]
        node[up] = parent_row[node[up]]
        node_depth[up] -= 1
    reached = reached[np.lexsort((*path[::-1], trace_rank[reached]))]
    return order[reached], has_child[reached]


def _per_trace(spans: Mapping[str, Any], rows: np.ndarray):
    """``(trace_id, a, b)`` of each trace's run ``rows[a:b]``, and the
    rows' span names."""
    trace = spans["trace_id"][rows]
    head = np.ones(rows.size, dtype=bool)
    head[1:] = trace[1:] != trace[:-1]
    cuts = np.flatnonzero(head)
    bounds = cuts.tolist() + [rows.size]
    table = spans["name"].values
    names = [table[code] for code in spans["name"].codes[rows].tolist()]
    return list(zip(trace[cuts].tolist(), bounds, bounds[1:])), names


def stage_sequences(
    spans: Mapping[str, Any],
) -> list[tuple[int, tuple[str, ...]]]:
    """Each trace's stage sequence, mined from span columns.

    Returns ``(trace_id, names)`` in trace id order for every trace
    :func:`span_preorder` reaches.  ``names`` are the trace's leaf
    spans — reached from the root, parent of no span — stably sorted
    by start time from depth-first preorder.  This is the leaf order of
    the span tree the trace reassembles to.
    """
    rows, has_child = span_preorder(spans)
    leaves = rows[~has_child]
    leaves = leaves[np.lexsort((spans["start"][leaves], spans["trace_id"][leaves]))]
    traces, names = _per_trace(spans, leaves)
    return [(trace_id, tuple(names[a:b])) for trace_id, a, b in traces]


def trace_walks(
    spans: Mapping[str, Any],
) -> list[tuple[int, list[str], list[float]]]:
    """Each trace's span names and durations in depth-first preorder.

    ``spans`` carries :data:`WALK_COLUMNS`.  Returns ``(trace_id,
    names, durations)`` in trace id order for every trace
    :func:`span_preorder` reaches, root first; a duration is the span's
    ``end - start``.
    """
    rows, _ = span_preorder(spans)
    durations = (spans["end"][rows] - spans["start"][rows]).tolist()
    traces, names = _per_trace(spans, rows)
    return [(trace_id, names[a:b], durations[a:b]) for trace_id, a, b in traces]


def mine_dependency_queue(
    sequences: Sequence[tuple[int, Sequence[str]]],
    profile_of: Optional[dict[int, Hashable]] = None,
) -> DependencyQueue:
    """Extract the dependency queue from sampled traces' stage sequences.

    ``sequences`` holds ``(trace_id, stage names)`` pairs in trace id
    order (:func:`stage_sequences`).  ``profile_of`` maps trace ids to
    request profiles (e.g. the KOOZA network state of the request);
    without it a single global sequence is mined.  The modal sequence
    per profile wins — occasional divergent orderings (overlapping
    replica activity, lost spans) are treated as noise.
    """
    if not sequences:
        raise ValueError("no stage sequences to mine")
    per_profile: dict[Hashable, Counter] = {}
    overall: Counter = Counter()
    for trace_id, names in sequences:
        sequence = tuple(
            name for name in names if name not in _OPTIONAL_STAGES
        )
        if not sequence:
            continue
        overall[sequence] += 1
        if profile_of is not None and trace_id in profile_of:
            profile = profile_of[trace_id]
            per_profile.setdefault(profile, Counter())[sequence] += 1
    if not overall:
        raise ValueError("all traces were empty after filtering")
    default = overall.most_common(1)[0][0]
    modes = {}
    supports = {}
    for profile, counter in per_profile.items():
        modes[profile], supports[profile] = counter.most_common(1)[0]
    return DependencyQueue(modes, supports, default)
