"""Dapper-style spans.

Following Sigelman et al. (the paper's in-depth exemplar), a traced
request is a set of nested spans sharing a trace id.  Each span covers
one named unit of work (an RPC, or a subsystem stage such as
``storage``) on one server, carries timestamped annotations, and
points at its parent.  The library reads span structure off span
columns (:func:`repro.core.dependency.span_preorder`), never from tree
objects: the KOOZA *time-dependency queue* and the in-depth per-stage
durations both come from each trace's depth-first walk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = ["Annotation", "Span"]


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
