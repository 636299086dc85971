"""Memory device: banked DRAM with row-buffer behaviour.

The paper's memory model captures "the type of requests (block size,
type ...) and the spatial locality in the granularity of Memory Banks";
this device provides the matching substrate: accesses map to banks,
row-buffer hits stream at full bandwidth, and bank conflicts pay the
activate/precharge penalty.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...simulation import Environment, Resource
from ...tracing import MemoryRecord, Tracer

__all__ = ["Memory", "MemorySpec"]


@dataclass(frozen=True)
class MemorySpec:
    """Parameters of the banked memory model."""

    banks: int = 8
    channels: int = 2  # concurrent access streams
    bank_interleave: int = 4096  # bytes per bank stripe
    row_hit_latency: float = 30e-9  # row-buffer hit (s)
    row_miss_latency: float = 95e-9  # activate + CAS (s)
    bandwidth: float = 12.8e9  # per-channel stream rate (bytes/s)

    def bank_of(self, address: int) -> int:
        """Bank an address maps to under stripe interleaving."""
        return (address // self.bank_interleave) % self.banks


class Memory:
    """Simulated banked memory with per-access trace records."""

    def __init__(
        self,
        env: Environment,
        server: str,
        spec: MemorySpec,
        rng: np.random.Generator,
        tracer: Tracer,
    ):
        if spec.banks < 1:
            raise ValueError(f"need >= 1 bank, got {spec.banks}")
        self.env = env
        self.server = server
        self.spec = spec
        self.rng = rng
        self.tracer = tracer
        self._channels = Resource(env, capacity=spec.channels)
        self._open_row: dict[int, int] = {}  # bank -> open row id

    def _row_of(self, address: int) -> int:
        # Rows are bank stripes: consecutive stripes on a bank share a row
        # often enough for streaming to hit the row buffer.
        return address // (self.spec.bank_interleave * self.spec.banks)

    def access(self, request_id: int, address: int, size_bytes: int, op: str):
        """Generator for one memory access burst, driven inline.

        Returns the access duration.  Row-buffer state persists across
        requests, so access patterns with locality are measurably
        faster — the signal the memory Markov model learns.
        """
        if size_bytes <= 0:
            raise ValueError(f"size must be positive, got {size_bytes}")
        spec = self.spec
        bank = spec.bank_of(address)
        row = self._row_of(address)
        submit = self.env.now
        with self._channels.request() as slot:
            yield slot
            if self._open_row.get(bank) == row:
                latency = spec.row_hit_latency
            else:
                latency = spec.row_miss_latency
                self._open_row[bank] = row
            duration = latency + size_bytes / spec.bandwidth
            yield self.env.timeout(duration)
        self.tracer.record_memory(
            MemoryRecord(
                request_id=request_id,
                server=self.server,
                timestamp=submit,
                bank=bank,
                size_bytes=size_bytes,
                op=op,
                duration=self.env.now - submit,
            )
        )
        return self.env.now - submit

    def busy_seconds(self) -> float:
        """Cumulative busy slot-time (checkpoint for sliding windows)."""
        return self._channels.meter.busy_time()

    def utilization(self, since: float = 0.0) -> float:
        """Mean fraction of channels busy since ``since``."""
        return self._channels.utilization(since)
