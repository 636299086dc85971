"""Network interface / link model.

Messages are serialized over a finite-bandwidth link with propagation
delay.  Arrival (``rx``) records are the network trace stream whose
interarrival process the paper's network queueing model captures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...simulation import Environment, Resource
from ...tracing import NetworkRecord, Tracer

__all__ = ["Nic", "NicSpec"]


@dataclass(frozen=True)
class NicSpec:
    """Parameters of the NIC/link model (defaults: 10 GbE datacenter link)."""

    bandwidth: float = 1.25e9  # bytes/s (10 Gb/s)
    propagation: float = 100e-6  # one-way latency (s)
    per_message_overhead: float = 20e-6  # protocol/interrupt cost (s)


class Nic:
    """Simulated NIC: serializes messages onto the link."""

    def __init__(
        self,
        env: Environment,
        server: str,
        spec: NicSpec,
        rng: np.random.Generator,
        tracer: Tracer,
    ):
        if spec.bandwidth <= 0:
            raise ValueError(f"bandwidth must be > 0, got {spec.bandwidth}")
        self.env = env
        self.server = server
        self.spec = spec
        self.rng = rng
        self.tracer = tracer
        self._link = Resource(env, capacity=1)

    def transfer(self, request_id: int, size_bytes: int, direction: str):
        """Generator moving ``size_bytes`` over the link, driven inline.

        ``direction`` is ``"rx"`` for messages arriving at this server,
        ``"tx"`` for responses leaving it.  Returns the transfer
        duration.
        """
        if direction not in ("rx", "tx"):
            raise ValueError(f"direction must be 'rx' or 'tx', got {direction!r}")
        spec = self.spec
        submit = self.env.now
        with self._link.request() as slot:
            yield slot
            duration = (
                spec.per_message_overhead
                + spec.propagation
                + size_bytes / spec.bandwidth
            )
            yield self.env.timeout(duration)
        self.tracer.record_network(
            NetworkRecord(
                request_id=request_id,
                server=self.server,
                timestamp=submit,
                size_bytes=size_bytes,
                direction=direction,
            )
        )
        return self.env.now - submit

    def busy_seconds(self) -> float:
        """Cumulative busy slot-time (checkpoint for sliding windows)."""
        return self._link.meter.busy_time()

    def utilization(self, since: float = 0.0) -> float:
        """Fraction of time the link was busy since ``since``."""
        return self._link.utilization(since)
