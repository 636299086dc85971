"""Replica sessions: stepwise-driven workload runs with checkpoint/restore.

A :class:`ReplicaSession` owns the full substrate of one workload
replica — engine, RNG stream factory, tracer, cluster, client — and
exposes it *stepwise*: callers advance the simulation in increments
(``run(until=...)``, :meth:`advance_progress`), snapshot it between
steps (:meth:`checkpoint`), and rebuild a byte-identical live session
from a snapshot (:meth:`restore`).  The one-call drivers in
:mod:`repro.datacenter.run` wire the exact same components through the
builder functions here, so a session replays precisely what a
single-shot run executes.

Checkpoints are *replay recipes*, not frame dumps: simulation processes
are live Python generators, which cannot be serialized, but every
replica is a pure function of its spec — so a checkpoint records the
spec, the engine's step count, the fork history, and validation digests
(engine fingerprint, full RNG tree state, tracer counters).  Restore
re-executes the replica for exactly that many steps, re-applies forks
at their recorded step counts, then verifies the digests; any drift
(changed code, changed inputs) raises
:class:`~repro.snapshot.SnapshotMismatchError` instead of silently
continuing from a different state.

:meth:`fork` turns one warmed-up session into independent determinstic
branches: it re-keys the whole RNG tree in place (see
:meth:`repro.simulation.RandomStreams.fork`), so two sessions restored
from the same checkpoint and forked with different keys share their
entire history and diverge only through their fork keys.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Any, Mapping, Optional

from ..queueing import PoissonArrivals
from ..simulation import Environment, RandomStreams, SimulationError
from ..simulation.checkpoint import engine_digest, verify_engine_digest
from ..snapshot import SnapshotMismatchError, check_state, make_state
from ..tracing import Tracer
from ..workloads import OpenLoopClient, table2_mix
from .gfs import GfsCluster, GfsSpec
from .mapreduce import MapReduceCluster, MapReduceJob, MapReduceSpec
from .webapp import WebAppCluster, WebAppSpec

__all__ = [
    "ReplicaSession",
    "default_mapreduce_jobs",
    "replica_streams",
    "build_gfs_session",
    "build_mapreduce_session",
    "build_webapp_session",
]

CHECKPOINT_KIND = "replica-checkpoint"


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
    client: Optional[OpenLoopClient]
    #: Progress denominator: requests to complete (gfs/webapp) or jobs
    #: to finish (mapreduce).
    total_progress: int


def build_gfs_session(
    n_requests: int,
    streams: RandomStreams,
    tracer: Tracer,
    arrival_rate: float = 25.0,
    mix_factory=table2_mix,
    gfs_spec: Optional[GfsSpec] = None,
    machine_spec=None,
    arrivals=None,
) -> SessionParts:
    """Wire a GFS replica (cluster, mix, arrivals, client) without running.

    Component creation order is the determinism contract: cluster, then
    mix, then arrivals, then client start — every stochastic draw
    happens in this order, so a session built twice from equal inputs
    is bit-identical.
    """
    env = Environment()
    cluster = GfsCluster(env, gfs_spec or GfsSpec(), streams, tracer, machine_spec)
    mix = mix_factory(streams.get("workload/mix"))
    if arrivals is None:
        arrivals = PoissonArrivals(arrival_rate, streams.buffered("workload/arrivals"))
    client = OpenLoopClient(env, cluster.client_request, mix.make_request, arrivals)
    client.start(n_requests)
    return SessionParts(env, streams, tracer, cluster, client, n_requests)


def build_webapp_session(
    n_requests: int,
    streams: RandomStreams,
    tracer: Tracer,
    arrival_rate: float = 120.0,
    webapp_spec: Optional[WebAppSpec] = None,
    machine_spec=None,
    arrivals=None,
) -> SessionParts:
    """Wire a 3-tier web replica without running (same order contract)."""
    env = Environment()
    cluster = WebAppCluster(
        env, webapp_spec or WebAppSpec(), streams, tracer, machine_spec
    )
    request_rng = streams.get("workload/requests")
    if arrivals is None:
        arrivals = PoissonArrivals(arrival_rate, streams.buffered("workload/arrivals"))
    client = OpenLoopClient(
        env,
        cluster.client_request,
        lambda: cluster.make_request(request_rng),
        arrivals,
    )
    client.start(n_requests)
    return SessionParts(env, streams, tracer, cluster, client, n_requests)


def build_mapreduce_session(
    streams: RandomStreams,
    tracer: Tracer,
    jobs: Optional[list[MapReduceJob]] = None,
    spec: Optional[MapReduceSpec] = None,
    machine_spec=None,
) -> SessionParts:
    """Wire a MapReduce replica without running (same order contract)."""
    if jobs is None:
        jobs = default_mapreduce_jobs(streams.get("workload/jobs"))
    env = Environment()
    cluster = MapReduceCluster(env, spec or MapReduceSpec(), streams, tracer, machine_spec)

    def driver(env):
        for job in jobs:
            yield env.process(cluster.run_job(job))

    env.process(driver(env))
    return SessionParts(env, streams, tracer, cluster, None, len(jobs))


class ReplicaSession:
    """One live, checkpointable replica of a standard fleet workload.

    Built from a :class:`~repro.datacenter.fleet.ReplicaSpec`.  The
    session is inert until driven:
    :meth:`run`, :meth:`advance_progress` or :meth:`run_to_completion`
    step the engine; :meth:`checkpoint` may be called between any two
    steps.
    """

    def __init__(self, spec, tracer: Optional[Tracer] = None):
        if spec.app not in ("gfs", "webapp", "mapreduce"):
            raise ValueError(f"unknown app {spec.app!r}")
        self.spec = spec
        streams = replica_streams(spec.seed, spec.index)
        if tracer is None:
            tracer = Tracer(sample_every=spec.sample_every)
        if spec.app == "gfs":
            parts = build_gfs_session(
                spec.n_requests, streams, tracer, arrival_rate=spec.arrival_rate
            )
        elif spec.app == "webapp":
            parts = build_webapp_session(
                spec.n_requests, streams, tracer, arrival_rate=spec.arrival_rate
            )
        else:
            parts = build_mapreduce_session(streams, tracer)
        self.env = parts.env
        self.streams = parts.streams
        self.tracer = parts.tracer
        self.cluster = parts.cluster
        self.client = parts.client
        self.total_progress = parts.total_progress
        self._fork_history: list[tuple[int, str]] = []

    # -- driving -------------------------------------------------------------

    @property
    def traces(self):
        return self.tracer.traces

    def progress(self) -> int:
        """Completed requests (gfs/webapp) or finished jobs (mapreduce)."""
        if self.spec.app == "mapreduce":
            return len(self.cluster.results)
        return self.tracer.emitted["requests"]

    def done(self) -> bool:
        return not self.env._queue

    def run(self, until: Optional[float] = None) -> None:
        """Advance to ``until`` (or exhaustion), as ``Environment.run``."""
        self.env.run(until)

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

    # -- forking -------------------------------------------------------------

    def fork(self, key: str) -> "ReplicaSession":
        """Re-key this session's randomness as deterministic branch ``key``.

        Applied in place between engine steps; everything already
        simulated is shared history, every future draw derives from the
        fork key.  Recorded in checkpoints (with the step count it was
        applied at) so a forked session's own checkpoints restore
        correctly.  Returns ``self`` for chaining.
        """
        self.streams.fork(key)
        self._fork_history.append((self.env.steps, key))
        return self

    # -- snapshots ------------------------------------------------------------

    def checkpoint(self) -> dict[str, Any]:
        """A JSON-able replay recipe + validation digests for this moment."""
        return make_state(
            CHECKPOINT_KIND,
            {
                "spec": asdict(self.spec),
                "engine": engine_digest(self.env),
                "rng": self.streams.state(),
                "forks": [[steps, key] for steps, key in self._fork_history],
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
        between save and restore.
        """
        check_state(state, CHECKPOINT_KIND)
        from .fleet import ReplicaSpec  # local import: fleet imports us

        spec = ReplicaSpec(**state["spec"])
        sink = None if keep_records else _NullSink()
        tracer = Tracer(
            sample_every=spec.sample_every, sink=sink, keep_records=keep_records
        )
        session = cls(spec, tracer=tracer)
        engine = state["engine"]
        for steps, key in state.get("forks", []):
            session._replay_steps(int(steps))
            session.streams.fork(str(key))
            session._fork_history.append((int(steps), str(key)))
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
