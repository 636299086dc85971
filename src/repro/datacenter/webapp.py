"""3-tier web application — the in-depth family's native workload.

Liu et al. model "Web, Application and Database tier" request flows;
this module simulates that application: a request traverses web ->
app -> db tiers (each with its own machines), performs database I/O,
and returns through the tiers.  Spans reuse the canonical subsystem
stage names so the same model trainers work unchanged across
applications ("the basic structure of the model remains the same
across different applications", §4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..simulation import Environment, RandomStreams
from ..simulation.rng import choice_cdf, choice_index
from ..tracing import READ, WRITE, RequestRecord, Tracer
from .gfs import HEADER_BYTES
from .machine import Machine, MachineSpec

__all__ = ["WebAppCluster", "WebAppSpec", "WebRequest", "WebRequestClass"]

KIB = 1024


@dataclass(frozen=True)
class WebRequestClass:
    """One request class of the 3-tier application (TPC-W flavored)."""

    name: str
    weight: float
    db_op: str  # READ | WRITE
    db_io_bytes: int
    response_bytes: int
    memory_bytes: int  # per-tier buffer footprint
    web_cpu: float  # core-seconds on the web tier
    app_cpu: float
    db_cpu: float


#: A TPC-W-like browsing-heavy mix.
DEFAULT_CLASSES = (
    WebRequestClass(
        name="browse",
        weight=0.6,
        db_op=READ,
        db_io_bytes=8 * KIB,
        response_bytes=32 * KIB,
        memory_bytes=8 * KIB,
        web_cpu=60e-6,
        app_cpu=150e-6,
        db_cpu=80e-6,
    ),
    WebRequestClass(
        name="search",
        weight=0.25,
        db_op=READ,
        db_io_bytes=64 * KIB,
        response_bytes=16 * KIB,
        memory_bytes=32 * KIB,
        web_cpu=60e-6,
        app_cpu=400e-6,
        db_cpu=250e-6,
    ),
    WebRequestClass(
        name="order",
        weight=0.15,
        db_op=WRITE,
        db_io_bytes=16 * KIB,
        response_bytes=4 * KIB,
        memory_bytes=16 * KIB,
        web_cpu=80e-6,
        app_cpu=300e-6,
        db_cpu=200e-6,
    ),
)


@dataclass(frozen=True)
class WebAppSpec:
    """Cluster shape and request classes of the 3-tier application."""

    web_servers: int = 2
    app_servers: int = 2
    db_servers: int = 1
    classes: tuple[WebRequestClass, ...] = DEFAULT_CLASSES
    db_working_set_blocks: int = 1 << 22

    def __post_init__(self) -> None:
        if min(self.web_servers, self.app_servers, self.db_servers) < 1:
            raise ValueError("every tier needs >= 1 server")
        if not self.classes:
            raise ValueError("need at least one request class")


@dataclass(slots=True)
class WebRequest:
    """One user request against the 3-tier application."""

    request_class: str
    db_op: str
    db_io_bytes: int
    db_lbn: int
    response_bytes: int
    memory_bytes: int
    web_cpu: float
    app_cpu: float
    db_cpu: float


class WebAppCluster:
    """Web, application and database tiers servicing user requests."""

    def __init__(
        self,
        env: Environment,
        spec: WebAppSpec,
        streams: RandomStreams,
        tracer: Tracer,
        machine_spec: MachineSpec | None = None,
    ):
        machine_spec = machine_spec or MachineSpec()
        self.env = env
        self.spec = spec
        self.tracer = tracer
        self.rng = streams.get("webapp/placement")
        self.web = [
            Machine(env, f"web-{i}", machine_spec, streams, tracer)
            for i in range(spec.web_servers)
        ]
        self.app = [
            Machine(env, f"app-{i}", machine_spec, streams, tracer)
            for i in range(spec.app_servers)
        ]
        self.db = [
            Machine(env, f"db-{i}", machine_spec, streams, tracer)
            for i in range(spec.db_servers)
        ]
        self._rr = {"web": 0, "app": 0, "db": 0}
        self._buffer_cursor = 0
        weights = np.array([c.weight for c in spec.classes], dtype=float)
        self._class_cdf = choice_cdf(weights / weights.sum())

    def _pick(self, tier: str, machines: list[Machine]) -> Machine:
        machine = machines[self._rr[tier] % len(machines)]
        self._rr[tier] += 1
        return machine

    def make_request(self, rng: np.random.Generator) -> WebRequest:
        """Draw a request from the class mix (random DB block)."""
        rc = self.spec.classes[choice_index(self._class_cdf, rng)]
        lbn = int(rng.integers(0, self.spec.db_working_set_blocks))
        return WebRequest(
            request_class=rc.name,
            db_op=rc.db_op,
            db_io_bytes=rc.db_io_bytes,
            db_lbn=lbn,
            response_bytes=rc.response_bytes,
            memory_bytes=rc.memory_bytes,
            web_cpu=rc.web_cpu,
            app_cpu=rc.app_cpu,
            db_cpu=rc.db_cpu,
        )

    def _buffer_address(self, size_bytes: int) -> int:
        address = self._buffer_cursor
        self._buffer_cursor = (address + size_bytes) % (1 << 26)
        return address

    def client_request(self, request: WebRequest):
        """Process generator: one request through all three tiers."""
        env = self.env
        tracer = self.tracer
        request_id = tracer.new_request_id()
        web = self._pick("web", self.web)
        app = self._pick("app", self.app)
        db = self._pick("db", self.db)
        record = RequestRecord(
            request_id=request_id,
            request_class=request.request_class,
            server=web.name,
            arrival_time=env.now,
            network_bytes=request.response_bytes,
            memory_bytes=request.memory_bytes * 3,
            memory_op=READ if request.db_op == READ else WRITE,
            storage_bytes=request.db_io_bytes,
            storage_op=request.db_op,
        )
        root = tracer.start_span(request_id, "request", web.name, env.now)
        cpu_busy = 0.0

        def span(name: str, machine: Machine):
            return tracer.start_span(request_id, name, machine.name, env.now, root)

        # -- request path ---------------------------------------------------
        s = span("network_rx", web)
        yield from web.nic.transfer(request_id, HEADER_BYTES, "rx")
        tracer.end_span(s, env.now)

        for machine, work in ((web, request.web_cpu), (app, request.app_cpu),
                              (db, request.db_cpu)):
            s = span("cpu_lookup", machine)
            busy = yield from machine.cpu.compute(request_id, work, "lookup")
            cpu_busy += busy
            tracer.end_span(s, env.now)
            s = span("memory", machine)
            address = self._buffer_address(request.memory_bytes)
            yield from machine.memory.access(
                request_id, address, request.memory_bytes, record.memory_op
            )
            tracer.end_span(s, env.now)
            if machine is not db:
                s = span("network_rx", machine)  # forward to next tier
                yield from machine.nic.transfer(request_id, HEADER_BYTES, "tx")
                tracer.end_span(s, env.now)

        # -- database I/O ----------------------------------------------------
        s = span("storage", db)
        yield from db.disk.io(
            request_id, request.db_lbn, request.db_io_bytes, request.db_op
        )
        tracer.end_span(s, env.now)

        # -- response path ----------------------------------------------------
        for machine, work in ((db, request.db_cpu * 0.3),
                              (app, request.app_cpu * 0.3),
                              (web, request.web_cpu * 0.5)):
            s = span("cpu_aggregate", machine)
            busy = yield from machine.cpu.compute(request_id, work, "aggregate")
            cpu_busy += busy
            tracer.end_span(s, env.now)

        s = span("network_tx", web)
        yield from web.nic.transfer(request_id, request.response_bytes, "tx")
        tracer.end_span(s, env.now)

        record.cpu_busy_seconds = cpu_busy
        record.completion_time = env.now
        tracer.end_span(root, env.now)
        tracer.record_request(record)
        return record
