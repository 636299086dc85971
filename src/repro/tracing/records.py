"""Typed trace records for the four subsystems plus end-to-end requests.

These are the raw material of every modeling technique in the paper:

* in-breadth models train on the per-subsystem streams
  (:class:`StorageRecord`, :class:`CpuRecord`, :class:`MemoryRecord`,
  :class:`NetworkRecord`),
* in-depth models train on arrival times and per-tier service times
  (from :class:`RequestRecord` and spans),
* KOOZA trains on all of the above.

Records carry the global ``request_id`` (the Dapper-style identifier
that ties every message to its originating request) so joint,
per-request feature vectors can be reassembled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "CpuRecord",
    "MemoryRecord",
    "NetworkRecord",
    "RequestRecord",
    "StorageRecord",
    "READ",
    "WRITE",
]

#: Operation type constants shared by memory and storage records.
READ = "read"
WRITE = "write"


@dataclass(slots=True)
class NetworkRecord:
    """One message on the wire (request arrival or response departure)."""

    request_id: int
    server: str
    timestamp: float
    size_bytes: int
    direction: str  # "rx" | "tx"

    # Literal dicts in field order: ``dataclasses.asdict`` recurses and
    # deep-copies per call, which dominates the record-serialization
    # profile; the emitted key order (and therefore store bytes) is
    # identical.
    def to_dict(self) -> dict[str, Any]:
        return {
            "request_id": self.request_id,
            "server": self.server,
            "timestamp": self.timestamp,
            "size_bytes": self.size_bytes,
            "direction": self.direction,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "NetworkRecord":
        return cls(**data)


@dataclass(slots=True)
class CpuRecord:
    """One burst of computation on a server.

    ``busy_seconds`` is core-seconds consumed; per-request CPU
    *utilization* (the paper's processor-model metric) is derived by the
    request record as busy time over request latency.
    """

    request_id: int
    server: str
    timestamp: float
    busy_seconds: float
    phase: str  # e.g. "lookup", "aggregate"

    def to_dict(self) -> dict[str, Any]:
        return {
            "request_id": self.request_id,
            "server": self.server,
            "timestamp": self.timestamp,
            "busy_seconds": self.busy_seconds,
            "phase": self.phase,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CpuRecord":
        return cls(**data)


@dataclass(slots=True)
class MemoryRecord:
    """One memory access burst: bank, size, operation type."""

    request_id: int
    server: str
    timestamp: float
    bank: int
    size_bytes: int
    op: str  # READ | WRITE
    duration: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "request_id": self.request_id,
            "server": self.server,
            "timestamp": self.timestamp,
            "bank": self.bank,
            "size_bytes": self.size_bytes,
            "op": self.op,
            "duration": self.duration,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "MemoryRecord":
        return cls(**data)


@dataclass(slots=True)
class StorageRecord:
    """One disk I/O: logical block number, size, operation type."""

    request_id: int
    server: str
    timestamp: float
    lbn: int
    size_bytes: int
    op: str  # READ | WRITE
    duration: float = 0.0
    queue_depth: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "request_id": self.request_id,
            "server": self.server,
            "timestamp": self.timestamp,
            "lbn": self.lbn,
            "size_bytes": self.size_bytes,
            "op": self.op,
            "duration": self.duration,
            "queue_depth": self.queue_depth,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "StorageRecord":
        return cls(**data)


@dataclass(slots=True)
class RequestRecord:
    """End-to-end view of one user request.

    Aggregates what Table 2 of the paper reports per request: the
    network request size, achieved CPU utilization, memory and storage
    footprints, and the end-to-end latency.
    """

    request_id: int
    request_class: str
    server: str
    arrival_time: float
    completion_time: float = 0.0
    network_bytes: int = 0
    cpu_busy_seconds: float = 0.0
    memory_bytes: int = 0
    memory_op: str = READ
    storage_bytes: int = 0
    storage_op: str = READ
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def latency(self) -> float:
        """End-to-end request latency in (simulated) seconds."""
        return self.completion_time - self.arrival_time

    @property
    def cpu_utilization(self) -> float:
        """Fraction of one core busy over the request's lifetime."""
        if self.latency <= 0:
            return 0.0
        return self.cpu_busy_seconds / self.latency

    def to_dict(self) -> dict[str, Any]:
        return {
            "request_id": self.request_id,
            "request_class": self.request_class,
            "server": self.server,
            "arrival_time": self.arrival_time,
            "completion_time": self.completion_time,
            "network_bytes": self.network_bytes,
            "cpu_busy_seconds": self.cpu_busy_seconds,
            "memory_bytes": self.memory_bytes,
            "memory_op": self.memory_op,
            "storage_bytes": self.storage_bytes,
            "storage_op": self.storage_op,
            "extra": dict(self.extra),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RequestRecord":
        return cls(**data)
