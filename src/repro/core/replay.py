"""Replay harness: exercise a simulated server with synthetic requests.

Validation in the paper means checking that "requests generated using
the model have the same features and performance metrics as the
original requests" (§4).  The harness replays a synthetic workload on
the same device models the original application ran on, producing a
:class:`TraceSet` that the validation framework compares against the
original one — features *and* end-to-end latency.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from ..simulation import Environment, RandomStreams
from ..tracing import RequestRecord, Tracer, TraceSet
from .synthetic import SyntheticRequest

if TYPE_CHECKING:
    # The device models load when a harness is built, not with the
    # model stack: training and characterizing never replay.
    from ..datacenter.machine import Machine, MachineSpec

__all__ = ["ReplayHarness"]


class ReplayHarness:
    """Replays synthetic requests against simulated server hardware."""

    def __init__(
        self,
        machine_spec: Optional[MachineSpec] = None,
        seed: int = 1000,
        n_servers: int = 1,
        max_io_bytes: int = 4 << 20,
    ):
        from ..datacenter.machine import MachineSpec

        if n_servers < 1:
            raise ValueError(f"need >= 1 server, got {n_servers}")
        if max_io_bytes < 1:
            raise ValueError(f"max_io_bytes must be >= 1, got {max_io_bytes}")
        self.machine_spec = machine_spec or MachineSpec()
        self.seed = seed
        self.n_servers = n_servers
        self.max_io_bytes = max_io_bytes
        #: Machines of the most recent replay (for power/energy studies).
        self.machines: list[Machine] = []

    def replay(self, requests: Sequence[SyntheticRequest]) -> TraceSet:
        """Run the workload to completion; returns the replay traces."""
        from ..datacenter.machine import Machine

        if not requests:
            raise ValueError("no synthetic requests to replay")
        env = Environment()
        tracer = Tracer(sample_every=1)
        streams = RandomStreams(self.seed, prefix="replay")
        machines = [
            Machine(env, f"replay-{i}", self.machine_spec, streams, tracer)
            for i in range(self.n_servers)
        ]
        self.machines = machines
        ordered = sorted(requests, key=lambda r: r.arrival_time)

        def source(env):
            for i, request in enumerate(ordered):
                delay = request.arrival_time - env.now
                if delay > 0:
                    yield env.timeout(delay)
                machine = machines[i % self.n_servers]
                env.process(self._execute(env, tracer, machine, request))

        env.process(source(env))
        env.run()
        return tracer.traces

    def _execute(
        self,
        env: Environment,
        tracer: Tracer,
        machine: Machine,
        request: SyntheticRequest,
    ):
        request_id = tracer.new_request_id()
        root = tracer.start_span(request_id, "request", machine.name, env.now)
        record = RequestRecord(
            request_id=request_id,
            request_class=request.label,
            server=machine.name,
            arrival_time=env.now,
            network_bytes=request.network_bytes,
        )
        cpu_phase = "lookup"
        for stage in request.stages:
            span = tracer.start_span(
                request_id, stage.kind, machine.name, env.now, root
            )
            if stage.kind in ("network_rx", "network_tx"):
                direction = "rx" if stage.kind == "network_rx" else "tx"
                yield from machine.nic.transfer(
                    request_id, stage.size_bytes, direction
                )
            elif stage.kind == "cpu":
                busy = yield from machine.cpu.compute(
                    request_id, stage.busy_seconds, cpu_phase
                )
                record.cpu_busy_seconds += busy
                cpu_phase = "aggregate"
            elif stage.kind == "memory":
                yield from machine.memory.access(
                    request_id, stage.address, stage.size_bytes, stage.op
                )
                record.memory_bytes += stage.size_bytes
                record.memory_op = stage.op
            elif stage.kind == "storage":
                remaining = stage.size_bytes
                lbn = stage.lbn
                block = machine.disk.model.spec.block_size
                while remaining > 0:
                    size = min(remaining, self.max_io_bytes)
                    yield from machine.disk.io(request_id, lbn, size, stage.op)
                    lbn += -(-size // block)
                    remaining -= size
                record.storage_bytes += stage.size_bytes
                record.storage_op = stage.op
            tracer.end_span(span, env.now)
        record.completion_time = env.now
        tracer.end_span(root, env.now)
        tracer.record_request(record)
