"""Replica drivers: one-call workload runs and checkpointable sessions.

Every simulated workload run in the repository is wired here.  The
``build_*_session`` functions assemble one replica — engine, RNG stream
factory, tracer, cluster, client — without running it, and two drivers
share them:

* the one-call drivers (:func:`run_gfs_workload`,
  :func:`run_webapp_workload`, :func:`run_mapreduce_jobs`) wire a run
  from ``RandomStreams(seed)``, drive it to exhaustion and return its
  traces — the standard trace-collection runs the benches, examples and
  a flat ``repro collect`` repeat;
* a :class:`ReplicaSession`, built from a :class:`ReplicaSpec`, exposes
  the same wiring *stepwise*: callers advance the simulation in
  increments (:meth:`~ReplicaSession.advance_progress`), snapshot it
  between steps (:meth:`~ReplicaSession.checkpoint`), and rebuild a
  byte-identical live session from a snapshot
  (:meth:`~ReplicaSession.restore`).  The fleet
  (:mod:`repro.datacenter.fleet`) drives every replica this way.

Checkpoints are *replay recipes*, not frame dumps: simulation processes
are live Python generators, which cannot be serialized, but every
replica is a pure function of its spec — so a checkpoint records the
spec, the engine's step count and validation digests (engine
fingerprint, full RNG tree state, tracer counters).  Restore
re-executes the replica for exactly that many steps, then verifies the
digests; any drift (changed code, changed inputs) raises
:class:`~repro.snapshot.SnapshotMismatchError` instead of silently
continuing from a different state.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Any, Callable, Mapping, Optional

import numpy as np

from ..queueing import ArrivalProcess, PoissonArrivals
from ..simulation import Environment, RandomStreams, SimulationError
from ..simulation.checkpoint import engine_digest, verify_engine_digest
from ..snapshot import SnapshotMismatchError, check_state, make_state
from ..tracing import Tracer, TraceSet
from ..workloads import OpenLoopClient, WorkloadMix, table2_mix
from .gfs import GfsCluster, GfsSpec
from .machine import MachineSpec
from .mapreduce import JobResult, MapReduceCluster, MapReduceJob, MapReduceSpec
from .webapp import WebAppCluster, WebAppSpec

__all__ = [
    "GfsRun",
    "ReplicaSession",
    "ReplicaSpec",
    "default_mapreduce_jobs",
    "replica_streams",
    "build_gfs_session",
    "build_mapreduce_session",
    "build_webapp_session",
    "run_gfs_workload",
    "run_mapreduce_jobs",
    "run_webapp_workload",
]

CHECKPOINT_KIND = "replica-checkpoint"


@dataclass(frozen=True)
class ReplicaSpec:
    """One replica's share of a fleet run (picklable; sent to workers)."""

    app: str
    index: int
    seed: int
    n_requests: int
    arrival_rate: Optional[float]
    sample_every: int = 1


def replica_streams(seed: int, index: int) -> RandomStreams:
    """The stream factory for replica ``index`` of a fleet seeded ``seed``.

    Pure function of ``(seed, index)`` — workers reconstruct it locally,
    so no generator state crosses process boundaries.
    """
    return RandomStreams(seed).spawn("replica").spawn(str(index))


def default_mapreduce_jobs(rng, n_jobs: int = 8) -> list[MapReduceJob]:
    """Synthesize the standard batch of small MapReduce jobs."""
    return [
        MapReduceJob(
            name=f"job-{i}",
            input_bytes=int(rng.integers(16, 256)) * 1024 * 1024,
            n_map=int(rng.integers(2, 9)),
            n_reduce=int(rng.integers(1, 5)),
        )
        for i in range(n_jobs)
    ]


class _NullSink:
    """A tracer sink that discards records (checkpoint replay)."""

    def write(self, stream: str, record) -> None:
        pass


@dataclass
class SessionParts:
    """Everything one replica's wiring produced, before any event runs."""

    env: Environment
    streams: RandomStreams
    tracer: Tracer
    cluster: Any
    #: Progress denominator: requests to complete (gfs/webapp) or jobs
    #: to finish (mapreduce).
    total_progress: int


def build_gfs_session(
    n_requests: int,
    streams: RandomStreams,
    tracer: Tracer,
    arrival_rate: float,
    mix_factory=table2_mix,
    gfs_spec: Optional[GfsSpec] = None,
    machine_spec: Optional[MachineSpec] = None,
    arrivals: Optional[ArrivalProcess] = None,
) -> SessionParts:
    """Wire a GFS replica (cluster, mix, arrivals, client) without running.

    Component creation order is the determinism contract: cluster, then
    mix, then arrivals, then client start — every stochastic draw
    happens in this order, so a session built twice from equal inputs
    is bit-identical.  ``arrival_rate`` is ignored when an explicit
    ``arrivals`` process is passed.
    """
    env = Environment()
    cluster = GfsCluster(env, gfs_spec or GfsSpec(), streams, tracer, machine_spec)
    mix = mix_factory(streams.get("workload/mix"))
    if arrivals is None:
        arrivals = PoissonArrivals(arrival_rate, streams.buffered("workload/arrivals"))
    OpenLoopClient(env, cluster.client_request, mix.make_request, arrivals).start(
        n_requests
    )
    return SessionParts(env, streams, tracer, cluster, n_requests)


def build_webapp_session(
    n_requests: int, streams: RandomStreams, tracer: Tracer, arrival_rate: float
) -> SessionParts:
    """Wire a 3-tier web replica without running (same order contract)."""
    env = Environment()
    cluster = WebAppCluster(env, WebAppSpec(), streams, tracer)
    request_rng = streams.get("workload/requests")
    arrivals = PoissonArrivals(arrival_rate, streams.buffered("workload/arrivals"))
    OpenLoopClient(
        env,
        cluster.client_request,
        lambda: cluster.make_request(request_rng),
        arrivals,
    ).start(n_requests)
    return SessionParts(env, streams, tracer, cluster, n_requests)


def build_mapreduce_session(
    streams: RandomStreams,
    tracer: Tracer,
    jobs: Optional[list[MapReduceJob]] = None,
    spec: Optional[MapReduceSpec] = None,
) -> SessionParts:
    """Wire a MapReduce replica without running (same order contract)."""
    if jobs is None:
        jobs = default_mapreduce_jobs(streams.get("workload/jobs"))
    env = Environment()
    cluster = MapReduceCluster(env, spec or MapReduceSpec(), streams, tracer)

    def driver(env):
        for job in jobs:
            yield env.process(cluster.run_job(job))

    env.process(driver(env))
    return SessionParts(env, streams, tracer, cluster, len(jobs))


# -- one-call drivers ---------------------------------------------------------


@dataclass
class GfsRun:
    """Everything a GFS trace-collection run produced."""

    traces: TraceSet
    cluster: GfsCluster
    env: Environment
    duration: float
    settle_time: float = 0.0

    def throughput(self) -> float:
        """Completed requests per simulated second, after warm-up.

        Only requests completing *after* ``settle_time`` count, so a
        warm-up window shrinks both the numerator and the denominator.
        """
        if self.duration <= 0:
            return 0.0
        completed = sum(
            1
            for r in self.traces.completed_requests()
            if r.completion_time > self.settle_time
        )
        return completed / self.duration


def run_gfs_workload(
    n_requests: int = 2000,
    seed: int = 0,
    arrival_rate: float = 25.0,
    mix_factory: Callable[[np.random.Generator], WorkloadMix] = table2_mix,
    gfs_spec: Optional[GfsSpec] = None,
    machine_spec: Optional[MachineSpec] = None,
    arrivals: Optional[ArrivalProcess] = None,
    sample_every: int = 1,
    settle_time: float = 0.0,
) -> GfsRun:
    """Run an open-loop GFS workload and collect traces.

    ``arrival_rate`` is ignored when an explicit ``arrivals`` process is
    passed.  ``settle_time`` marks the warm-up window: requests
    completing inside it are still traced but excluded from
    :meth:`GfsRun.throughput`, and the run duration is counted from the
    end of the window.
    """
    if n_requests < 1:
        raise ValueError(f"need >= 1 request, got {n_requests}")
    parts = build_gfs_session(
        n_requests,
        RandomStreams(seed),
        Tracer(sample_every=sample_every),
        arrival_rate,
        mix_factory=mix_factory,
        gfs_spec=gfs_spec,
        machine_spec=machine_spec,
        arrivals=arrivals,
    )
    parts.env.run()
    return GfsRun(
        traces=parts.tracer.traces,
        cluster=parts.cluster,
        env=parts.env,
        duration=parts.env.now - settle_time,
        settle_time=settle_time,
    )


def run_webapp_workload(
    n_requests: int = 2000, seed: int = 0, arrival_rate: float = 120.0
) -> TraceSet:
    """Run an open-loop 3-tier web workload and collect traces."""
    if n_requests < 1:
        raise ValueError(f"need >= 1 request, got {n_requests}")
    parts = build_webapp_session(
        n_requests, RandomStreams(seed), Tracer(), arrival_rate
    )
    parts.env.run()
    return parts.tracer.traces


def run_mapreduce_jobs(
    jobs: Optional[list[MapReduceJob]] = None,
    seed: int = 0,
    spec: Optional[MapReduceSpec] = None,
) -> tuple[TraceSet, list[JobResult]]:
    """Run a batch of MapReduce jobs back-to-back; traces + results.

    When ``jobs`` is omitted a default batch is synthesized from the
    ``workload/jobs`` substream — *not* a raw generator seeded directly
    from ``seed`` — so job synthesis honors the repository invariant
    that every stochastic component draws from a named substream.
    """
    parts = build_mapreduce_session(
        RandomStreams(seed), Tracer(), jobs=jobs, spec=spec
    )
    parts.env.run()
    return parts.tracer.traces, parts.cluster.results


# -- checkpointable sessions --------------------------------------------------


class ReplicaSession:
    """One live, checkpointable replica of a standard fleet workload.

    Built from a :class:`ReplicaSpec`.  The session is inert until
    driven: :meth:`advance_progress` or :meth:`run_to_completion` step
    the engine; :meth:`checkpoint` may be called between any two steps.
    """

    def __init__(self, spec: ReplicaSpec, tracer: Optional[Tracer] = None):
        if spec.app not in ("gfs", "webapp", "mapreduce"):
            raise ValueError(f"unknown app {spec.app!r}")
        self.spec = spec
        streams = replica_streams(spec.seed, spec.index)
        if tracer is None:
            tracer = Tracer(sample_every=spec.sample_every)
        if spec.app == "gfs":
            parts = build_gfs_session(
                spec.n_requests, streams, tracer, spec.arrival_rate
            )
        elif spec.app == "webapp":
            parts = build_webapp_session(
                spec.n_requests, streams, tracer, spec.arrival_rate
            )
        else:
            parts = build_mapreduce_session(streams, tracer)
        self.env = parts.env
        self.streams = parts.streams
        self.tracer = parts.tracer
        self.cluster = parts.cluster
        self.total_progress = parts.total_progress

    # -- driving -------------------------------------------------------------

    @property
    def traces(self):
        return self.tracer.traces

    def progress(self) -> int:
        """Completed requests (gfs/webapp) or finished jobs (mapreduce)."""
        if self.spec.app == "mapreduce":
            return len(self.cluster.results)
        return self.tracer.emitted["requests"]

    def run_to_completion(self) -> None:
        self.env.run()

    def advance_progress(self, target: int) -> None:
        """Step until at least ``target`` progress units have completed.

        Stops *between* engine steps, so a checkpoint taken here replays
        exactly.  Running out of events before the target simply stops
        (the replica is finished).
        """
        while self.env._queue and self.progress() < target:
            self.env.step()

    def window_target(self, window: int, n_windows: int) -> int:
        """Progress owed by the end of window ``window`` (0-based)."""
        if not 0 <= window < n_windows:
            raise ValueError(f"window {window} outside 0..{n_windows - 1}")
        return -(-self.total_progress * (window + 1) // n_windows)

    # -- snapshots ------------------------------------------------------------

    def checkpoint(self) -> dict[str, Any]:
        """A JSON-able replay recipe + validation digests for this moment."""
        return make_state(
            CHECKPOINT_KIND,
            {
                "spec": asdict(self.spec),
                "engine": engine_digest(self.env),
                "rng": self.streams.state(),
                "tracer": {
                    "request_counter": self.tracer._request_counter,
                    "next_span_id": self.tracer._next_span_id,
                    "spans_flushed": self.tracer._spans_flushed,
                    "emitted": dict(self.tracer.emitted),
                },
                "progress": self.progress(),
            },
        )

    def _replay_steps(self, target_steps: int) -> None:
        try:
            while self.env.steps < target_steps:
                self.env.step()
        except SimulationError as error:
            raise SnapshotMismatchError(
                f"replay ran out of events at step {self.env.steps} "
                f"(checkpoint recorded {target_steps}): {error}"
            )

    @classmethod
    def restore(
        cls, state: Mapping[str, Any], keep_records: bool = True
    ) -> "ReplicaSession":
        """Rebuild a live session by deterministic replay, then validate.

        The replayed session's tracer discards records (they were
        already delivered — to memory or to earlier window shards — by
        the run that checkpointed); callers continuing a windowed
        collection attach their real sink afterwards
        (``session.tracer.sink = writer``).  With ``keep_records=True``
        the replay *re-accumulates* ``traces`` in memory, so the
        restored session's in-memory trace set continues exactly as the
        original's would.

        Raises :class:`SnapshotMismatchError` when the replay does not
        land on the recorded digests — the code or inputs changed
        between save and restore.  A checkpoint written by an older
        version of this code (an older engine clock or RNG state layout)
        is refused the same way.
        """
        check_state(state, CHECKPOINT_KIND)
        spec = ReplicaSpec(**state["spec"])
        sink = None if keep_records else _NullSink()
        tracer = Tracer(
            sample_every=spec.sample_every, sink=sink, keep_records=keep_records
        )
        session = cls(spec, tracer=tracer)
        engine = state["engine"]
        session._replay_steps(int(engine["steps"]))
        # ``run(until=t)`` parks the clock at ``t`` even when the last
        # event fired earlier; replay can only recover event times, so
        # the recorded clock is restored explicitly before validating.
        session.env._now = float(engine["now"])
        verify_engine_digest(session.env, engine, context=f"replica {spec.index}")
        session._validate_rng(state["rng"])
        session._restore_tracer(state["tracer"], spec.index)
        if session.progress() != int(state["progress"]):
            raise SnapshotMismatchError(
                f"replica {spec.index} replay progress "
                f"{session.progress()} != recorded {state['progress']}"
            )
        if not keep_records:
            session.tracer.sink = None
        return session

    def _validate_rng(self, recorded: Mapping[str, Any]) -> None:
        canonical = lambda s: json.dumps(s, sort_keys=True)  # noqa: E731
        replayed = json.loads(canonical(self.streams.state()))
        if canonical(replayed) != canonical(recorded):
            raise SnapshotMismatchError(
                f"replica {self.spec.index} RNG state diverged from "
                "checkpoint after replay; the code or inputs changed "
                "between save and restore"
            )

    def _restore_tracer(self, recorded: Mapping[str, Any], index: int) -> None:
        tracer = self.tracer
        mismatches = []
        if tracer._request_counter != int(recorded["request_counter"]):
            mismatches.append("request_counter")
        if tracer._next_span_id != int(recorded["next_span_id"]):
            mismatches.append("next_span_id")
        for stream, count in recorded["emitted"].items():
            if stream != "spans" and tracer.emitted.get(stream) != int(count):
                mismatches.append(f"emitted[{stream}]")
        if mismatches:
            raise SnapshotMismatchError(
                f"replica {index} tracer state diverged from checkpoint "
                f"after replay ({', '.join(mismatches)})"
            )
        # Spans flushed before the checkpoint already live in earlier
        # window shards; drop the replayed copies and realign counters.
        flushed = int(recorded["spans_flushed"])
        del tracer.traces.spans[: flushed - tracer._spans_base]
        tracer._spans_flushed = flushed
        tracer._spans_base = flushed
        tracer.emitted["spans"] = int(recorded["emitted"].get("spans", flushed))
