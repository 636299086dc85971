"""GFS-like distributed file system — the paper's Figure 1 application.

A request arrives at a chunkserver over the network, exercises the CPU
(and memory) to locate and verify the data, performs I/O against the
storage system, exercises the CPU again to aggregate the data, and the
response is transmitted back to the client:

    Network -> CPU -> Memory -> Disk -> CPU -> Network

This module simulates that flow end to end, instrumented with both
subsystem records and Dapper-style spans.  An optional master server
resolves chunk locations (clients cache locations, so only a fraction
of requests pay the master RPC), and writes can replicate to ``R``
chunkservers in parallel as in real GFS.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..simulation import AllOf, Environment, RandomStreams
from ..tracing import READ, WRITE, RequestRecord, Tracer
from .machine import Machine, MachineSpec

__all__ = ["GfsCluster", "GfsRequest", "GfsSpec"]

#: Size of a request/acknowledgement header message in bytes.
HEADER_BYTES = 256


@dataclass(slots=True)
class GfsRequest:
    """One client request against the file system.

    ``lbn`` is the logical block the I/O starts at (chosen by the
    workload's file-access pattern); ``memory_bytes`` is the buffer/
    metadata footprint the chunkserver touches for this request.
    """

    request_class: str
    op: str  # READ | WRITE
    size_bytes: int
    lbn: int
    memory_bytes: int
    memory_op: str = READ

    def __post_init__(self) -> None:
        if self.op not in (READ, WRITE):
            raise ValueError(f"op must be read/write, got {self.op!r}")
        if self.size_bytes <= 0:
            raise ValueError(f"size must be positive, got {self.size_bytes}")


@dataclass(frozen=True)
class GfsSpec:
    """Configuration of the GFS cluster and its service costs.

    CPU costs are calibrated so achieved per-request utilization lands
    in the few-percent range the paper's Table 2 reports (2.1% for a
    64 KiB read, 5.1% for a 4 MiB write on their testbed).
    """

    chunkservers: int = 1
    replication: int = 1  # replicas per write (1 = paper's simple requests)
    max_io_bytes: int = 4 << 20  # chunkserver splits larger I/Os
    lookup_work: float = 100e-6  # CPU: locate chunk, verify handle (s)
    read_byte_work: float = 0.8e-9  # CPU: checksum/aggregate per byte read (s)
    write_byte_work: float = 0.15e-9  # CPU: checksum per byte written (s)
    ack_work: float = 40e-6  # CPU: build response (s)
    master_cache_hit: float = 0.95  # client location-cache hit probability
    master_work: float = 30e-6  # master CPU per location lookup (s)
    buffer_pool_bytes: int = 1 << 26  # chunkserver buffer pool (64 MiB)


class GfsCluster:
    """A master plus ``N`` chunkservers servicing client requests."""

    def __init__(
        self,
        env: Environment,
        spec: GfsSpec,
        streams: RandomStreams,
        tracer: Tracer,
        machine_spec: MachineSpec | None = None,
        machines: list[Machine] | None = None,
    ):
        if machines is not None and len(machines) != spec.chunkservers:
            raise ValueError(
                f"got {len(machines)} machines for {spec.chunkservers} "
                "chunkservers"
            )
        if spec.chunkservers < 1:
            raise ValueError(f"need >= 1 chunkserver, got {spec.chunkservers}")
        if not 1 <= spec.replication <= spec.chunkservers:
            raise ValueError(
                f"replication {spec.replication} must be in "
                f"[1, {spec.chunkservers}]"
            )
        if spec.max_io_bytes < 1:
            raise ValueError(
                f"max_io_bytes must be >= 1, got {spec.max_io_bytes}"
            )
        machine_spec = machine_spec or MachineSpec()
        self.env = env
        self.spec = spec
        self.tracer = tracer
        # Placement draws raw doubles only (cache-hit checks): buffered.
        self.rng = streams.buffered("gfs/placement")
        self.master = Machine(env, "master", machine_spec, streams, tracer)
        # Chunkservers can share machines with other tenants (pass
        # ``machines``) for colocation/QoS studies.
        self.chunkservers = machines or [
            Machine(env, f"chunkserver-{i}", machine_spec, streams, tracer)
            for i in range(spec.chunkservers)
        ]
        # The requesting client's own link: the bottleneck where
        # synchronized striped-read responses collide (TCP incast).
        self.client = Machine(env, "client", machine_spec, streams, tracer)
        # Per-chunkserver rotating buffer-pool allocation cursor: requests
        # walk the pool, producing the cyclic bank pattern the memory
        # Markov model learns.
        self._buffer_cursor = [0] * spec.chunkservers

    def place(self, lbn: int) -> int:
        """Primary chunkserver index for a block (static placement)."""
        chunk = lbn // 16384  # 64 MiB chunks of 4 KiB blocks
        return chunk % self.spec.chunkservers

    def _allocate_buffer(self, server_index: int, size_bytes: int) -> int:
        """Next buffer address from the rotating pool."""
        address = self._buffer_cursor[server_index]
        limit = self.spec.buffer_pool_bytes
        self._buffer_cursor[server_index] = (address + size_bytes) % limit
        return address

    def client_request(self, request: GfsRequest):
        """Process generator: full round trip of one client request.

        Returns the completed :class:`RequestRecord`.
        """
        env = self.env
        tracer = self.tracer
        request_id = tracer.new_request_id()
        primary_index = self.place(request.lbn)
        primary = self.chunkservers[primary_index]

        record = RequestRecord(
            request_id=request_id,
            request_class=request.request_class,
            server=primary.name,
            arrival_time=env.now,
            network_bytes=request.size_bytes,
            memory_bytes=request.memory_bytes,
            memory_op=request.memory_op,
            storage_bytes=request.size_bytes,
            storage_op=request.op,
        )
        root = tracer.start_span(request_id, "request", primary.name, env.now)

        # -- optional master lookup (client location-cache miss) ----------
        if self.rng.random() >= self.spec.master_cache_hit:
            span = tracer.start_span(
                request_id, "master_lookup", self.master.name, env.now, root
            )
            yield from self.master.nic.transfer(request_id, HEADER_BYTES, "rx")
            busy = yield from self.master.cpu.compute(
                request_id, self.spec.master_work, "lookup"
            )
            record.cpu_busy_seconds += busy
            yield from self.master.nic.transfer(request_id, HEADER_BYTES, "tx")
            tracer.end_span(span, env.now)

        # -- primary chunkserver services the request ----------------------
        busy = yield from self._serve(request_id, request, primary_index, root)
        record.cpu_busy_seconds += busy

        # -- replicate writes to R-1 secondaries in parallel ---------------
        if request.op == WRITE and self.spec.replication > 1:
            replicas = []
            for offset in range(1, self.spec.replication):
                index = (primary_index + offset) % self.spec.chunkservers
                replicas.append(
                    env.process(self._serve(request_id, request, index, root))
                )
            results = yield AllOf(env, replicas)
            record.extra["replica_cpu_busy"] = sum(results.values())

        record.completion_time = env.now
        tracer.end_span(root, env.now)
        tracer.record_request(record)
        return record

    def striped_read(self, request: GfsRequest, stripe_width: int):
        """Process generator: read one object striped over ``stripe_width``
        chunkservers, responses converging on the client's link.

        This is the synchronized-fan-in pattern behind the TCP incast
        problem (§5: "the model can replicate effects like the TCP/IP
        incast problem, or other events involving multiple machines
        servicing the same request"): all stripes complete at similar
        times and their responses serialize on the single client NIC.
        Returns the completed :class:`RequestRecord`.
        """
        if request.op != READ:
            raise ValueError("striped requests are reads")
        if not 1 <= stripe_width <= self.spec.chunkservers:
            raise ValueError(
                f"stripe width {stripe_width} must be in "
                f"[1, {self.spec.chunkservers}]"
            )
        env = self.env
        tracer = self.tracer
        request_id = tracer.new_request_id()
        primary_index = self.place(request.lbn)
        record = RequestRecord(
            request_id=request_id,
            request_class=request.request_class,
            server=self.chunkservers[primary_index].name,
            arrival_time=env.now,
            network_bytes=request.size_bytes,
            memory_bytes=request.memory_bytes,
            memory_op=request.memory_op,
            storage_bytes=request.size_bytes,
            storage_op=request.op,
        )
        root = tracer.start_span(request_id, "request", "client", env.now)
        stripe_bytes = max(1, request.size_bytes // stripe_width)

        def stripe(index: int, offset: int):
            sub = GfsRequest(
                request_class=request.request_class,
                op=READ,
                size_bytes=stripe_bytes,
                lbn=request.lbn + offset,
                memory_bytes=max(1, request.memory_bytes // stripe_width),
                memory_op=request.memory_op,
            )
            busy = yield from self._serve(request_id, sub, index, root)
            # The response crosses the client's (shared) downlink.
            span = tracer.start_span(
                request_id, "client_rx", "client", env.now, root
            )
            yield from self.client.nic.transfer(request_id, stripe_bytes, "rx")
            tracer.end_span(span, env.now)
            return busy

        stripes = []
        blocks_per_stripe = max(1, -(-stripe_bytes // 4096))
        for i in range(stripe_width):
            index = (primary_index + i) % self.spec.chunkservers
            stripes.append(
                env.process(stripe(index, i * blocks_per_stripe))
            )
        results = yield AllOf(env, stripes)
        record.cpu_busy_seconds = sum(results.values())
        record.completion_time = env.now
        tracer.end_span(root, env.now)
        tracer.record_request(record)
        return record

    def _serve(self, request_id: int, request: GfsRequest, server_index: int, root):
        """Generator: one chunkserver's part of a request.

        Driven inline for the primary and each stripe; write replicas
        run it as parallel processes.

        Returns CPU busy seconds consumed on this server.
        """
        env = self.env
        tracer = self.tracer
        spec = self.spec
        machine = self.chunkservers[server_index]
        cpu_busy = 0.0

        # 1. Network receive: writes carry the data in, reads a header.
        rx_bytes = request.size_bytes if request.op == WRITE else HEADER_BYTES
        span = tracer.start_span(request_id, "network_rx", machine.name, env.now, root)
        yield from machine.nic.transfer(request_id, rx_bytes, "rx")
        tracer.end_span(span, env.now)

        # 2. CPU: locate the chunk, verify the handle.
        span = tracer.start_span(request_id, "cpu_lookup", machine.name, env.now, root)
        busy = yield from machine.cpu.compute(request_id, spec.lookup_work, "lookup")
        cpu_busy += busy
        tracer.end_span(span, env.now)

        # 3. Memory: metadata + buffer traffic.
        address = self._allocate_buffer(server_index, request.memory_bytes)
        span = tracer.start_span(request_id, "memory", machine.name, env.now, root)
        yield from machine.memory.access(
            request_id, address, request.memory_bytes, request.memory_op
        )
        tracer.end_span(span, env.now)

        # 4. Storage: the I/O, split at the chunkserver's max I/O size.
        span = tracer.start_span(request_id, "storage", machine.name, env.now, root)
        remaining = request.size_bytes
        lbn = request.lbn
        block = machine.disk.model.spec.block_size
        while remaining > 0:
            size = min(remaining, spec.max_io_bytes)
            yield from machine.disk.io(request_id, lbn, size, request.op)
            lbn += -(-size // block)
            remaining -= size
        tracer.end_span(span, env.now)

        # 5. CPU: aggregate/checksum the data.
        byte_work = (
            spec.read_byte_work if request.op == READ else spec.write_byte_work
        )
        work = spec.ack_work + byte_work * request.size_bytes
        span = tracer.start_span(
            request_id, "cpu_aggregate", machine.name, env.now, root
        )
        busy = yield from machine.cpu.compute(request_id, work, "aggregate")
        cpu_busy += busy
        tracer.end_span(span, env.now)

        # 6. Network transmit: reads carry the data out, writes an ack.
        tx_bytes = request.size_bytes if request.op == READ else HEADER_BYTES
        span = tracer.start_span(request_id, "network_tx", machine.name, env.now, root)
        yield from machine.nic.transfer(request_id, tx_bytes, "tx")
        tracer.end_span(span, env.now)

        return cpu_busy
