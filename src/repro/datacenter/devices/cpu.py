"""CPU device: a pool of cores with per-burst trace records.

Computation demand is expressed in *core-seconds of work*, not
utilization: as the paper argues (§2.1.2), utilization is a property of
workload *and* platform, so the simulator's native unit is work and
utilization is derived per request (busy time over latency).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...simulation import Environment, Resource
from ...tracing import CpuRecord, Tracer

__all__ = ["Cpu", "CpuSpec"]


@dataclass(frozen=True)
class CpuSpec:
    """Parameters of the CPU device.

    ``speed_factor`` scales all work (1.0 = reference core; 0.5 = a
    small/wimpy core taking twice as long — the paper's small-core
    efficiency studies are run by sweeping this).  ``work_jitter`` is
    the coefficient of variation applied to each burst, modeling
    microarchitectural noise (cache misses, branch mispredictions).
    """

    cores: int = 8
    speed_factor: float = 1.0
    work_jitter: float = 0.03


class Cpu:
    """Simulated multi-core CPU with utilization accounting."""

    def __init__(
        self,
        env: Environment,
        server: str,
        spec: CpuSpec,
        rng: np.random.Generator,
        tracer: Tracer,
    ):
        if spec.cores < 1:
            raise ValueError(f"need >= 1 core, got {spec.cores}")
        if spec.speed_factor <= 0:
            raise ValueError(f"speed_factor must be > 0, got {spec.speed_factor}")
        self.env = env
        self.server = server
        self.spec = spec
        self.rng = rng
        self.tracer = tracer
        self._cores = Resource(env, capacity=spec.cores)

    def compute(self, request_id: int, work_seconds: float, phase: str):
        """Generator burning ``work_seconds`` of core time, driven inline.

        Returns the busy time actually consumed (after speed scaling
        and jitter), which callers accumulate into per-request CPU
        utilization.
        """
        if work_seconds < 0:
            raise ValueError(f"negative work {work_seconds!r}")
        with self._cores.request() as slot:
            yield slot
            busy = work_seconds / self.spec.speed_factor
            if self.spec.work_jitter > 0:
                busy *= max(0.1, 1.0 + self.rng.normal(0.0, self.spec.work_jitter))
            start = self.env.now
            yield self.env.timeout(busy)
        self.tracer.record_cpu(
            CpuRecord(
                request_id=request_id,
                server=self.server,
                timestamp=start,
                busy_seconds=busy,
                phase=phase,
            )
        )
        return busy

    def busy_seconds(self) -> float:
        """Cumulative busy slot-time (checkpoint for sliding windows)."""
        return self._cores.meter.busy_time()

    def utilization(self, since: float = 0.0) -> float:
        """Mean fraction of all cores busy since ``since``."""
        return self._cores.utilization(since)
