"""Dapper-style spans and trace trees.

Following Sigelman et al. (the paper's in-depth exemplar), a traced
request is represented as a tree of nested spans.  Each span covers one
named unit of work (an RPC, or a subsystem stage such as ``storage``)
on one server, carries timestamped annotations, and points at its
parent.  The KOOZA *time-dependency queue* is the ordered sequence of
subsystem activations — the trees' leaf order — for each request
class; :func:`repro.core.dependency.stage_sequences` mines it from span
columns without building these objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

__all__ = ["Annotation", "Span", "TraceTree", "build_trace_trees"]


@dataclass(slots=True)
class Annotation:
    """A timestamped note attached to a span (Dapper annotation)."""

    timestamp: float
    message: str


@dataclass(slots=True)
class Span:
    """One unit of work within a traced request."""

    trace_id: int
    span_id: int
    parent_id: Optional[int]
    name: str
    server: str
    start: float
    end: float = float("nan")
    annotations: list[Annotation] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def annotate(self, timestamp: float, message: str) -> None:
        """Attach a timestamped annotation."""
        self.annotations.append(Annotation(timestamp, message))

    # Literal dicts in field order (``asdict`` recurses + deep-copies on
    # the span-close hot path); emitted key order is unchanged.
    def to_dict(self) -> dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "server": self.server,
            "start": self.start,
            "end": self.end,
            "annotations": [
                {"timestamp": a.timestamp, "message": a.message}
                for a in self.annotations
            ],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Span":
        annotations = [Annotation(**a) for a in data.pop("annotations", [])]
        return cls(annotations=annotations, **data)


class TraceTree:
    """The reassembled span tree for one traced request."""

    def __init__(self, root: Span, children: dict[int, list[Span]]):
        self.root = root
        self._children = children

    @property
    def trace_id(self) -> int:
        return self.root.trace_id

    def children_of(self, span: Span) -> list[Span]:
        """Direct children of ``span``, ordered by start time."""
        return sorted(self._children.get(span.span_id, []), key=lambda s: s.start)

    def walk(self) -> Iterator[Span]:
        """Depth-first, start-time-ordered traversal of all spans."""
        stack = [self.root]
        while stack:
            span = stack.pop()
            yield span
            stack.extend(reversed(self.children_of(span)))

    def span_count(self) -> int:
        return sum(1 for _ in self.walk())

    def critical_path(self) -> list[Span]:
        """Spans on the longest start-to-end chain through the tree."""
        path = [self.root]
        current = self.root
        while True:
            kids = self.children_of(current)
            if not kids:
                return path
            current = max(kids, key=lambda s: s.duration)
            path.append(current)


def build_trace_trees(spans: list[Span]) -> list[TraceTree]:
    """Group flat span lists by ``trace_id`` and rebuild each tree.

    Spans whose parent is missing (e.g. lost records) are dropped with
    their subtrees, mirroring how real tracing pipelines handle
    incomplete traces.
    """
    by_trace: dict[int, list[Span]] = {}
    for span in spans:
        by_trace.setdefault(span.trace_id, []).append(span)

    trees = []
    for trace_id in sorted(by_trace):
        group = by_trace[trace_id]
        roots = [s for s in group if s.parent_id is None]
        if len(roots) != 1:
            continue  # malformed trace: zero or multiple roots
        ids = {s.span_id for s in group}
        children: dict[int, list[Span]] = {}
        for span in group:
            if span.parent_id is None:
                continue
            if span.parent_id not in ids:
                continue  # orphan: parent record lost
            children.setdefault(span.parent_id, []).append(span)
        trees.append(TraceTree(roots[0], children))
    return trees
