"""Mechanical disk model: seek, rotation, transfer, caching.

The storage substrate under the GFS simulator.  The analytic part
(:class:`DiskModel`) computes per-I/O service times from head position
and cache state and is reusable outside the event loop (the replay
validator uses it directly); :class:`Disk` wraps it with a request
queue and emits :class:`StorageRecord` trace entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...simulation import Environment, Resource
from ...tracing import READ, StorageRecord, Tracer

__all__ = ["Disk", "DiskModel", "DiskSpec"]


@dataclass(frozen=True)
class DiskSpec:
    """Parameters of the mechanical disk model.

    Defaults approximate a 7200 rpm nearline SATA drive with a
    write-back cache, the kind of disk GFS chunkservers of the paper's
    era used.
    """

    block_size: int = 4096  # bytes per logical block
    capacity_blocks: int = 1 << 28  # ~1 TiB of 4 KiB blocks
    min_seek: float = 0.4e-3  # track-to-track seek (s)
    max_seek: float = 8.0e-3  # full-stroke seek (s)
    rpm: float = 7200.0
    transfer_rate: float = 150e6  # sustained media rate (bytes/s)
    controller_overhead: float = 0.15e-3  # per-I/O fixed cost (s)
    write_cache: bool = True
    cache_transfer_rate: float = 600e6  # write-back cache rate (bytes/s)
    cache_flush_probability: float = 0.05  # chance a write stalls on flush
    readahead_blocks: int = 512  # sequential read-ahead window

    @property
    def rotation_period(self) -> float:
        """One full platter revolution in seconds."""
        return 60.0 / self.rpm


class DiskModel:
    """Stateful analytic service-time model for one disk.

    Tracks head position and the read-ahead window so sequential runs
    are detected and serviced at media rate without repositioning —
    the mechanism behind the spatial locality the paper's storage model
    captures with LBN-range Markov states.
    """

    def __init__(self, spec: DiskSpec, rng: np.random.Generator):
        self.spec = spec
        self.rng = rng
        self._head_lbn = 0
        self._readahead_end = -1

    def _blocks(self, size_bytes: int) -> int:
        return max(1, -(-size_bytes // self.spec.block_size))

    def _seek_time(self, distance_blocks: int) -> float:
        if distance_blocks == 0:
            return 0.0
        spec = self.spec
        frac = min(1.0, distance_blocks / spec.capacity_blocks)
        return spec.min_seek + (spec.max_seek - spec.min_seek) * np.sqrt(frac)

    def service_time(self, lbn: int, size_bytes: int, op: str) -> float:
        """Service time for one I/O; updates head and cache state."""
        spec = self.spec
        blocks = self._blocks(size_bytes)
        time = spec.controller_overhead

        if op != READ and spec.write_cache:
            # Write-back: absorbed at cache speed, occasionally stalling
            # on a flush of earlier dirty data.
            time += size_bytes / spec.cache_transfer_rate
            if self.rng.random() < spec.cache_flush_probability:
                time += self._seek_time(abs(lbn - self._head_lbn))
                time += self.rng.uniform(0.0, spec.rotation_period)
            self._head_lbn = lbn + blocks
            self._readahead_end = -1
            return time

        sequential = (
            self._readahead_end >= 0 and self._head_lbn <= lbn <= self._readahead_end
        )
        if sequential:
            # Read-ahead hit: stream at media rate, no repositioning.
            time += size_bytes / spec.transfer_rate
        else:
            time += self._seek_time(abs(lbn - self._head_lbn))
            time += self.rng.uniform(0.0, spec.rotation_period)
            time += size_bytes / spec.transfer_rate
        self._head_lbn = lbn + blocks
        self._readahead_end = lbn + blocks + spec.readahead_blocks
        return time


class Disk:
    """Simulated disk: a FIFO I/O queue in front of a :class:`DiskModel`."""

    def __init__(
        self,
        env: Environment,
        server: str,
        spec: DiskSpec,
        rng: np.random.Generator,
        tracer: Tracer,
    ):
        self.env = env
        self.server = server
        self.model = DiskModel(spec, rng)
        self.tracer = tracer
        self._queue = Resource(env, capacity=1)

    def io(self, request_id: int, lbn: int, size_bytes: int, op: str):
        """Generator performing one disk I/O, driven inline; returns duration."""
        submit = self.env.now
        depth = self._queue.count + self._queue.queue_length
        with self._queue.request() as slot:
            yield slot
            duration = self.model.service_time(lbn, size_bytes, op)
            yield self.env.timeout(duration)
        self.tracer.record_storage(
            StorageRecord(
                request_id=request_id,
                server=self.server,
                timestamp=submit,
                lbn=lbn,
                size_bytes=size_bytes,
                op=op,
                duration=self.env.now - submit,
                queue_depth=depth,
            )
        )
        return self.env.now - submit

    def busy_seconds(self) -> float:
        """Cumulative busy slot-time (checkpoint for sliding windows)."""
        return self._queue.meter.busy_time()

    def utilization(self, since: float = 0.0) -> float:
        """Fraction of time the disk arm was busy since ``since``."""
        return self._queue.utilization(since)
