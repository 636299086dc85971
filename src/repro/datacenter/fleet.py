"""Fleet driver: N independent workload replicas, sharded across processes.

The paper's KOOZA validation trains on traces from many independent
workload runs; collecting them one-at-a-time in a single process wastes
every core but one.  This driver fans ``replicas`` independent copies of
one of the three standard workloads (gfs, webapp, mapreduce), each one
driven by a :class:`~repro.datacenter.session.ReplicaSession`, across
worker processes and stitches their traces onto one timeline.

:func:`collect_fleet_to_store` streams replicas into an on-disk shard
store through one worker, :func:`write_replica`: each replica is split
into N window shards, checkpointed at every window boundary when the
collect has a checkpoint directory.  A single-shot collect is the
one-window case without checkpoints, and :func:`resume_fleet_collection`
re-dispatches the same worker from a saved fleet plan.

Two properties make the merged result well-defined:

* **Deterministic sharding** — replica ``k`` seeds every stochastic
  component from the stream path ``("replica", str(k))`` under the
  fleet seed, so its traces are bit-identical no matter which worker
  process runs it or how many workers exist.  (This is exactly the
  disjointness contract the fixed :class:`RandomStreams` segment
  encoding provides; the old per-character keys could alias replica
  substreams onto workload-internal ones.)
* **Monotonic merge** — each replica's clock starts at zero, so replica
  ``k``'s records are shifted by the summed extent of replicas
  ``0..k-1`` before merging, and its request/span identifiers are
  shifted past its predecessors'.  Merged timestamps are then globally
  ordered by replica, and identifiers remain unique, so downstream
  consumers (model trainers, characterization) see one coherent trace.
"""

from __future__ import annotations

import itertools
import shutil
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Mapping, Optional, Sequence

from ..simulation import run_sharded
from ..snapshot import check_state, load_snapshot, make_state, save_snapshot
from ..store.manifest import MANIFEST_FILENAME, ShardManifest, write_round_file
from ..store.stitch import (
    accumulate_offsets,
    max_request_id,
    max_span_id,
    trace_extent,
)
from ..store.writer import ShardWriter, shard_dirname
from ..tracing import Tracer, TraceSet
from .mapreduce import JobResult
from .session import ReplicaSession, ReplicaSpec, _NullSink, replica_streams

__all__ = [
    "CHECKPOINT_DIRNAME",
    "FleetResult",
    "FleetSpec",
    "ReplicaResult",
    "ReplicaTask",
    "StoreFleetResult",
    "checkpoint_filename",
    "collect_fleet",
    "collect_fleet_to_store",
    "collect_replicas",
    "load_fleet_plan",
    "merge_replicas",
    "replica_params",
    "save_fleet_plan",
    "replica_streams",
    "resume_fleet_collection",
    "run_replica",
    "sweep_grid",
    "sweep_replica_specs",
    "write_replica",
]

#: Workloads the fleet can drive, with their default arrival rates.
_APPS = {"gfs": 25.0, "webapp": 120.0, "mapreduce": None}


@dataclass(frozen=True)
class FleetSpec:
    """What to run: which app, how many replicas, how big each one is."""

    app: str = "gfs"
    replicas: int = 1
    seed: int = 0
    n_requests: int = 2000
    arrival_rate: Optional[float] = None  # None = app default
    sample_every: int = 1

    def __post_init__(self) -> None:
        if self.app not in _APPS:
            raise ValueError(
                f"unknown app {self.app!r}; expected one of {sorted(_APPS)}"
            )
        if self.replicas < 1:
            raise ValueError(f"need >= 1 replica, got {self.replicas}")
        if self.n_requests < 1:
            raise ValueError(f"need >= 1 request, got {self.n_requests}")

    def replica(self, index: int) -> ReplicaSpec:
        rate = self.arrival_rate
        if rate is None:
            rate = _APPS[self.app]
        return ReplicaSpec(
            app=self.app,
            index=index,
            seed=self.seed,
            n_requests=self.n_requests,
            arrival_rate=rate,
            sample_every=self.sample_every,
        )

    def at_rate(self, arrival_rate: float) -> "FleetSpec":
        """The same fleet at a different operating point.

        Used by ``repro plan`` cross-validation to launch targeted
        simulations at scaled arrival rates.  Rate-less apps
        (mapreduce) cannot be rescaled this way.
        """
        if _APPS[self.app] is None:
            raise ValueError(
                f"app {self.app!r} has no arrival rate to scale"
            )
        if arrival_rate <= 0:
            raise ValueError(
                f"arrival rate must be > 0, got {arrival_rate}"
            )
        return replace(self, arrival_rate=arrival_rate)


@dataclass
class ReplicaResult:
    """What one replica produced (picklable; returned from workers)."""

    index: int
    traces: TraceSet
    duration: float
    job_results: list[JobResult] = field(default_factory=list)


@dataclass
class FleetResult:
    """The merged outcome of a fleet collection run."""

    traces: TraceSet
    spec: FleetSpec
    workers: int
    replica_durations: list[float]
    elapsed_seconds: float
    job_results: list[JobResult] = field(default_factory=list)

    @property
    def total_simulated_time(self) -> float:
        return sum(self.replica_durations)


def _replica_duration(session: ReplicaSession, extent: float) -> float:
    """How long a replica ran: gfs replicas report simulated time,
    webapp and mapreduce the ``extent`` of their streamed records."""
    return session.env.now if session.spec.app == "gfs" else extent


def run_replica(spec: ReplicaSpec) -> ReplicaResult:
    """Execute one replica; the worker-process entry point.

    All randomness comes from :func:`replica_streams`, so the result is
    a pure function of the spec.
    """
    session = ReplicaSession(spec)
    session.run_to_completion()
    traces = session.traces
    job_results = list(session.cluster.results) if spec.app == "mapreduce" else []
    return ReplicaResult(
        spec.index,
        traces,
        _replica_duration(session, trace_extent(traces)),
        job_results,
    )


def merge_replicas(results: list[ReplicaResult]) -> TraceSet:
    """Merge replica traces onto one timeline with unique identifiers.

    Replicas are laid out end-to-end in index order: replica ``k`` is
    shifted by the total extent of all earlier replicas (monotonic time
    offsets) and its request/span ids are shifted past the largest ids
    already merged.  The offset arithmetic lives in
    :mod:`repro.store.stitch` and is shared with the on-disk
    :class:`~repro.store.ShardStore`, which must reproduce this merge
    byte for byte from manifests alone.  An empty replica advances the
    timeline by its simulated duration but consumes no identifier
    space.
    """
    ordered = sorted(results, key=lambda r: r.index)
    parts = [
        (
            trace_extent(r.traces, r.duration),
            max_request_id(r.traces),
            max_span_id(r.traces),
        )
        for r in ordered
    ]
    merged = TraceSet()
    for result, offsets in zip(ordered, accumulate_offsets(parts)):
        merged = merged.merge(
            result.traces.shifted(
                time_offset=offsets.time,
                request_id_offset=offsets.request_id,
                span_id_offset=offsets.span_id,
            )
        )
    return merged


def collect_fleet(
    spec: Optional[FleetSpec] = None,
    workers: int = 1,
    **spec_kwargs,
) -> FleetResult:
    """Run a fleet of replicas and merge their traces.

    Either pass a prebuilt :class:`FleetSpec` or its fields as keyword
    arguments (``collect_fleet(app="gfs", replicas=8, workers=4)``).
    ``workers <= 0`` uses every available core.  The merged traces are
    bit-identical for any worker count.
    """
    if spec is None:
        spec = FleetSpec(**spec_kwargs)
    elif spec_kwargs:
        raise TypeError("pass either a FleetSpec or keyword fields, not both")
    replica_specs = [spec.replica(k) for k in range(spec.replicas)]
    start = time.perf_counter()
    results = run_sharded(run_replica, replica_specs, workers)
    elapsed = time.perf_counter() - start
    merged = merge_replicas(results)
    job_results = [jr for r in results for jr in r.job_results]
    return FleetResult(
        traces=merged,
        spec=spec,
        workers=workers,
        replica_durations=[r.duration for r in results],
        elapsed_seconds=elapsed,
        job_results=job_results,
    )


def collect_replicas(
    replica_specs: Sequence[ReplicaSpec], workers: int = 1
) -> list[ReplicaResult]:
    """Run an explicit replica list (e.g. a sweep) and keep traces in memory.

    The in-memory counterpart of :func:`collect_fleet_to_store` for the
    same spec list; ``merge_replicas`` of the result is the reference
    the on-disk stitch is validated against.
    """
    return run_sharded(run_replica, list(replica_specs), workers)


# -- parameter sweeps --------------------------------------------------------

#: Replica fields a sweep grid may vary.
_SWEEPABLE = ("app", "arrival_rate", "n_requests", "sample_every")


def sweep_grid(**axes: Sequence[Any]) -> list[dict[str, Any]]:
    """Cross product of parameter axes, e.g. ``sweep_grid(arrival_rate=[10, 25], n_requests=[500])``.

    Axis order follows keyword order with the rightmost axis varying
    fastest; each grid point is a dict of overrides for
    :func:`sweep_replica_specs`.
    """
    for key in axes:
        if key not in _SWEEPABLE:
            raise ValueError(
                f"cannot sweep {key!r}; sweepable: {sorted(_SWEEPABLE)}"
            )
    keys = list(axes)
    return [
        dict(zip(keys, values))
        for values in itertools.product(*(axes[k] for k in keys))
    ]


def sweep_replica_specs(
    base: FleetSpec,
    grid: Sequence[Mapping[str, Any]],
    repeats: Optional[int] = None,
) -> list[ReplicaSpec]:
    """Derive one replica per (grid point × repeat) from a base spec.

    ``repeats`` defaults to ``base.replicas``, so a fleet of R replicas
    swept over G grid points yields ``G*R`` replicas — R repetitions
    (distinct random substreams) at each parameter point.  Replica
    indices enumerate the list, which keeps every replica's stream path
    globally disjoint; the varied parameters are recorded per shard in
    its manifest, so downstream analysis groups by them via
    :meth:`repro.store.ShardStore.group_by`.
    """
    if repeats is None:
        repeats = base.replicas
    if repeats < 1:
        raise ValueError(f"need >= 1 repeat per grid point, got {repeats}")
    if not grid:
        raise ValueError("empty sweep grid")
    specs: list[ReplicaSpec] = []
    for point in grid:
        unknown = set(point) - set(_SWEEPABLE)
        if unknown:
            raise ValueError(
                f"cannot sweep {sorted(unknown)}; sweepable: {sorted(_SWEEPABLE)}"
            )
        app = point.get("app", base.app)
        if app not in _APPS:
            raise ValueError(
                f"unknown app {app!r}; expected one of {sorted(_APPS)}"
            )
        rate = point.get("arrival_rate", base.arrival_rate)
        if rate is None:
            rate = _APPS[app]
        for _ in range(repeats):
            index = len(specs)
            specs.append(
                replace(
                    base.replica(index),
                    app=app,
                    arrival_rate=rate,
                    n_requests=point.get("n_requests", base.n_requests),
                    sample_every=point.get("sample_every", base.sample_every),
                )
            )
    return specs


# -- streaming collection into an on-disk shard store ------------------------


def replica_params(
    spec: ReplicaSpec, window: Optional[int] = None, n_windows: int = 1
) -> dict[str, Any]:
    """The spec parameters a shard manifest records for grouping.

    A checkpointed collect passes ``window``, and its shards also
    record which replica and window of how many they hold.
    """
    params = {
        "n_requests": spec.n_requests,
        "arrival_rate": spec.arrival_rate,
        "sample_every": spec.sample_every,
    }
    if window is not None:
        params.update(replica=spec.index, window=window, windows=n_windows)
    return params


@dataclass
class StoreFleetResult:
    """The outcome of a fleet collection that persisted shards to disk."""

    directory: Path
    manifests: list[ShardManifest]
    workers: int
    elapsed_seconds: float
    #: Collection round these manifests belong to (0 = initial collect).
    round: int = 0

    @property
    def n_records(self) -> int:
        return sum(m.n_records for m in self.manifests)

    @property
    def total_simulated_time(self) -> float:
        return sum(m.duration for m in self.manifests)

    def store(self):
        """Open the collected shards as a :class:`~repro.store.ShardStore`.

        The returned store is a lazy :class:`~repro.tracing.TraceSource`
        — hand it straight to ``characterize_source`` /
        ``train_per_class`` / ``compare_workloads`` without merging.
        """
        from ..store import ShardStore

        return ShardStore(self.directory)


def collect_fleet_to_store(
    spec: Optional[FleetSpec] = None,
    directory: str | Path = "traces",
    workers: int = 1,
    compress: bool = False,
    replica_specs: Optional[Sequence[ReplicaSpec]] = None,
    on_shard: Optional[Callable[[int, ShardManifest], None]] = None,
    append: bool = False,
    codec: str = "jsonl",
    windows: int = 1,
    checkpoint_dir: Optional[str | Path] = None,
    **spec_kwargs,
) -> StoreFleetResult:
    """Run a fleet (or explicit sweep list) streaming shards to ``directory``.

    Unlike :func:`collect_fleet`, no trace records cross the process
    pool: each replica writes ``directory/shard-<idx>/`` as it runs and
    only per-shard manifests come back.  ``on_shard(index, manifest)``
    fires as each shard lands on disk.  Stitch the store back into one
    trace timeline with :class:`repro.store.ShardStore` (or
    ``repro merge``); the result is byte-identical to
    ``merge_replicas(collect_replicas(...))`` for any worker count.

    Every replica runs through one worker, :func:`write_replica`, which
    splits it into ``windows`` shards.  With ``windows=N`` the ``i``-th
    spec of this call runs as replica ``start_replica + spec.index``
    (``spec.index == i`` for fleet and sweep lists) and owns shards
    ``start_shard + i*N .. start_shard + i*N + N-1``, where
    ``start_replica`` counts the replicas already in the store (one per
    shard not marked ``continues``) and ``start_shard`` is one past its
    largest shard index; both are 0 in a fresh directory.  Shard
    ``start_shard + i*N + w`` holds window ``w`` (every window after the
    first is marked ``continues``) and lands in collection round
    ``round + w``.  A single-shot collect is the ``windows=1`` case
    without checkpoints.

    ``append=True`` adds a new collection **round** to an existing
    store.  Replica streams being pure functions of ``(seed, index)``,
    collecting N replicas and appending M more with the same seed
    merges byte-identically to collecting N+M in one go, whichever
    ``windows`` each round used.  Each round records which shards it
    produced in a ``round-<n>.json`` file at the store root (folded
    into one ``index.json`` by :func:`repro.store.compact_store`).

    ``codec`` selects the per-shard stream layout (``"jsonl"`` line
    files or the binary ``"columnar"`` struct-of-arrays layout); the
    simulated records are identical either way, only the on-disk
    encoding differs, and a store may mix codecs across rounds.

    An append refuses (:class:`UnfinishedCollectionError`, before it
    writes anything) while the fleet plan it would replace, in
    ``checkpoint_dir`` or ``<directory>/_checkpoints``, still lacks a
    shard: only ``repro resume`` can finish that round.

    ``windows > 1`` (or an explicit ``checkpoint_dir``) checkpoints
    each replica's engine into ``checkpoint_dir`` (default
    ``<directory>/_checkpoints``) at every window boundary.  A worker
    killed mid-window is resumed from its last boundary by
    :func:`resume_fleet_collection` (``repro resume``); the finished
    store merges byte-identically to a single-shot collect of the same
    spec.  Since each window is its own collection round,
    complete-rounds visibility gating exposes a consistent
    all-replicas-through-window-``w`` prefix while later windows are
    still running.
    """
    if replica_specs is None:
        if spec is None:
            spec = FleetSpec(**spec_kwargs)
        elif spec_kwargs:
            raise TypeError(
                "pass either a FleetSpec or keyword fields, not both"
            )
        replica_specs = [spec.replica(k) for k in range(spec.replicas)]
    elif spec is not None or spec_kwargs:
        raise TypeError("pass either replica_specs or a spec, not both")
    if windows < 1:
        raise ValueError(f"need >= 1 window, got {windows}")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    existing = sorted(directory.glob("shard-*/manifest.json"))
    round_index = 0
    start_shard = 0
    start_replica = 0
    if append:
        if not existing:
            raise FileNotFoundError(
                f"append=True but {directory} holds no shard store "
                "(collect without append first)"
            )
        manifests_on_disk = [ShardManifest.load(p) for p in existing]
        start_shard = max(m.index for m in manifests_on_disk) + 1
        round_index = max(m.round for m in manifests_on_disk) + 1
        # Replica indices (the seeding identity) continue from the number
        # of replicas already collected — one per non-continuation shard —
        # not from the shard count, which windowed rounds inflate.
        start_replica = sum(1 for m in manifests_on_disk if not m.continues)
        _refuse_unfinished_plan(
            directory, checkpoint_dir or directory / CHECKPOINT_DIRNAME
        )
    elif existing:
        raise FileExistsError(
            f"{directory} already holds a shard store; pass append=True "
            "to add a collection round (or choose a fresh directory)"
        )
    if windows > 1 and checkpoint_dir is None:
        checkpoint_dir = directory / CHECKPOINT_DIRNAME
    if checkpoint_dir is not None:
        checkpoint_dir = str(checkpoint_dir)
    tasks = [
        ReplicaTask(
            replica=replace(r, index=r.index + start_replica),
            directory=str(directory),
            checkpoint_dir=checkpoint_dir,
            n_windows=windows,
            shard_base=start_shard + i * windows,
            round_base=round_index,
            compress=compress,
            codec=codec,
        )
        for i, r in enumerate(replica_specs)
    ]
    if checkpoint_dir is not None:
        save_fleet_plan(checkpoint_dir, directory, tasks)
    return _run_tasks(directory, tasks, workers, on_shard)


# -- the replica worker and its engine checkpoints ----------------------------

#: Where a windowed collection keeps its checkpoints, inside the store.
CHECKPOINT_DIRNAME = "_checkpoints"

FLEET_PLAN_KIND = "fleet-plan"
FLEET_PLAN_FILENAME = "fleet.json"


def checkpoint_filename(replica_index: int) -> str:
    """Name of one replica's engine-checkpoint file."""
    return f"replica-{replica_index:05d}.json"


@dataclass(frozen=True)
class ReplicaTask:
    """One worker's assignment: a replica split across N window shards.

    Windows ``0..n_windows-1`` land in shards ``shard_base + w`` (the
    coordinator allocates replica-major bases: replica ``r`` owns
    ``start + r*N .. start + r*N + N-1``) and rounds ``round_base + w``.
    With a ``checkpoint_dir`` the worker checkpoints its engine there
    after each window, so it resumes from the last completed boundary
    after a kill; a single-shot collect is ``n_windows=1`` without one.
    """

    replica: ReplicaSpec
    directory: str
    checkpoint_dir: Optional[str]
    n_windows: int
    shard_base: int
    round_base: int = 0
    compress: bool = False
    codec: str = "jsonl"


def write_replica(task: ReplicaTask) -> list[ShardManifest]:
    """Worker entry point: simulate one replica straight onto disk.

    The tracer streams every record into a :class:`ShardWriter` the
    moment it is collected (``keep_records=False`` — only the sampled
    spans are held until their window ends), so the worker's memory
    stays bounded and only the window manifests are pickled back
    through the pool.  Any shard directory already in the way is torn
    output of a killed run and is deleted before its window is written.

    With a checkpoint directory, the session's engine is checkpointed
    between windows (replay recipe + digests, see
    :meth:`ReplicaSession.checkpoint`) to
    ``checkpoint_dir/replica-<idx>.json``.  Called again after a crash
    — directly or via :func:`resume_fleet_collection` — the worker
    loads that checkpoint, returns the manifests of the windows it
    covers, restores the session by deterministic replay, and
    continues; determinism makes the rewritten shards byte-identical
    to the uninterrupted run's.
    """
    spec = task.replica
    n_windows = task.n_windows
    directory = Path(task.directory)
    ckpt_path = None
    if task.checkpoint_dir is not None:
        ckpt_path = Path(task.checkpoint_dir) / checkpoint_filename(spec.index)
    manifests: list[ShardManifest] = []
    boundaries: list[float] = []
    windows_done = 0
    session: Optional[ReplicaSession] = None
    if ckpt_path is not None and ckpt_path.exists():
        state = load_snapshot(ckpt_path)
        worker_meta = state.get("worker", {})
        done = [
            directory / shard_dirname(task.shard_base + w)
            for w in range(int(worker_meta.get("windows_done", 0)))
        ]
        # A window shard that lost its manifest after the checkpoint
        # cannot be restored from it: re-simulate the replica from its
        # start, which rewrites every one of its shards byte-identically.
        if all((shard / MANIFEST_FILENAME).exists() for shard in done):
            windows_done = len(done)
            boundaries = [float(b) for b in worker_meta.get("boundaries", [])]
            manifests = [ShardManifest.load(shard) for shard in done]
            if windows_done < n_windows:
                session = ReplicaSession.restore(state, keep_records=False)
    if session is None and windows_done < n_windows:
        session = ReplicaSession(
            spec,
            tracer=Tracer(
                sample_every=spec.sample_every,
                sink=_NullSink(),
                keep_records=False,
            ),
        )
        session.tracer.sink = None
    for w in range(windows_done, n_windows):
        shard_index = task.shard_base + w
        shard_dir = directory / shard_dirname(shard_index)
        if shard_dir.exists():  # torn shard from a killed worker
            shutil.rmtree(shard_dir)
        writer = ShardWriter(
            shard_dir,
            index=shard_index,
            app=spec.app,
            seed=spec.seed,
            params=replica_params(
                spec, None if ckpt_path is None else w, n_windows
            ),
            compress=task.compress,
            round=task.round_base + w,
            codec=task.codec,
            continues=w > 0,
        )
        session.tracer.sink = writer
        final = w == n_windows - 1
        if final:
            session.run_to_completion()
        else:
            session.advance_progress(session.window_target(w, n_windows))
        session.tracer.flush_spans(final=final)
        session.tracer.sink = None
        previous = boundaries[-1] if boundaries else 0.0
        # The absolute end of this window: simulated time for gfs, the
        # latest record timestamp for webapp and mapreduce.
        boundary = _replica_duration(session, max(previous, writer.extent))
        boundaries.append(boundary)
        # Duration stays the per-window delta (so durations sum to the
        # replica's) while the extent floor is the absolute boundary
        # (window records carry absolute timestamps).
        manifests.append(
            writer.finalize(boundary - previous, extent_floor=boundary)
        )
        if ckpt_path is None:
            continue
        state = session.checkpoint()
        state["worker"] = {
            "windows_done": w + 1,
            "n_windows": n_windows,
            "shard_base": task.shard_base,
            "boundaries": boundaries,
        }
        save_snapshot(state, ckpt_path)
    return manifests


def save_fleet_plan(
    checkpoint_dir: str | Path, directory: str | Path, tasks: Sequence[ReplicaTask]
) -> Path:
    """Persist a windowed collection's plan so ``repro resume`` can rebuild it."""
    state = make_state(
        FLEET_PLAN_KIND,
        {
            "directory": str(directory),
            "n_windows": tasks[0].n_windows if tasks else 1,
            "round_base": tasks[0].round_base if tasks else 0,
            "compress": bool(tasks[0].compress) if tasks else False,
            "codec": tasks[0].codec if tasks else "jsonl",
            "tasks": [
                {"spec": asdict(t.replica), "shard_base": t.shard_base}
                for t in tasks
            ],
        },
    )
    return save_snapshot(state, Path(checkpoint_dir) / FLEET_PLAN_FILENAME)


class UnfinishedCollectionError(RuntimeError):
    """An append would replace the plan of a windowed collection that
    has not finished, so ``repro resume`` could no longer finish it."""


def _refuse_unfinished_plan(directory: Path, checkpoint_dir: str | Path) -> None:
    """Raise unless the saved fleet plan in ``checkpoint_dir``, if any,
    has every one of its shards' manifests in ``directory``."""
    if not (Path(checkpoint_dir) / FLEET_PLAN_FILENAME).exists():
        return
    _, tasks = load_fleet_plan(checkpoint_dir)
    for task in tasks:
        for w in range(task.n_windows):
            shard = task.shard_base + w
            if not (directory / shard_dirname(shard) / MANIFEST_FILENAME).exists():
                raise UnfinishedCollectionError(
                    f"{directory} holds an unfinished windowed collection "
                    f"(shard {shard} has no manifest); finish it with "
                    f"`repro resume --out {directory}` before appending"
                )


def load_fleet_plan(
    checkpoint_dir: str | Path,
) -> tuple[Path, list[ReplicaTask]]:
    """Rebuild the store directory + task list from a saved fleet plan."""
    plan_path = Path(checkpoint_dir) / FLEET_PLAN_FILENAME
    if not plan_path.exists():
        raise FileNotFoundError(
            f"no fleet plan at {plan_path} "
            "(was this store collected with --windows/--checkpoint-dir?)"
        )
    state = load_snapshot(plan_path)
    check_state(state, FLEET_PLAN_KIND)
    directory = Path(state["directory"])
    tasks = [
        ReplicaTask(
            replica=ReplicaSpec(**entry["spec"]),
            directory=str(directory),
            checkpoint_dir=str(Path(checkpoint_dir)),
            n_windows=int(state["n_windows"]),
            shard_base=int(entry["shard_base"]),
            round_base=int(state["round_base"]),
            compress=bool(state["compress"]),
            codec=str(state["codec"]),
        )
        for entry in state["tasks"]
    ]
    return directory, tasks


def _run_tasks(
    directory: Path,
    tasks: list[ReplicaTask],
    workers: int,
    on_shard: Optional[Callable[[int, ShardManifest], None]] = None,
) -> StoreFleetResult:
    on_result = None
    if on_shard is not None:

        def on_result(_index: int, shard_manifests: list[ShardManifest]) -> None:
            for manifest in shard_manifests:
                on_shard(manifest.index, manifest)

    start = time.perf_counter()
    manifest_lists = run_sharded(
        write_replica, tasks, workers, on_result=on_result
    )
    elapsed = time.perf_counter() - start
    n_windows = tasks[0].n_windows if tasks else 1
    round_base = tasks[0].round_base if tasks else 0
    for w in range(n_windows):
        write_round_file(
            directory, round_base + w, [t.shard_base + w for t in tasks]
        )
    return StoreFleetResult(
        directory=directory,
        manifests=[m for ms in manifest_lists for m in ms],
        workers=workers,
        elapsed_seconds=elapsed,
        round=round_base,
    )


def resume_fleet_collection(
    directory: str | Path,
    checkpoint_dir: Optional[str | Path] = None,
    workers: int = 1,
    on_shard: Optional[Callable[[int, ShardManifest], None]] = None,
) -> StoreFleetResult:
    """Finish an interrupted windowed collection (``repro resume``).

    Reads the fleet plan persisted in ``checkpoint_dir`` (default
    ``<directory>/_checkpoints``), re-dispatches every replica, and lets
    each worker fast-forward: completed windows return their manifests
    straight from disk, a replica killed mid-window restores its engine
    from the last boundary checkpoint and re-simulates forward.  The
    finished store is byte-identical to one whose collection was never
    interrupted.  Idempotent — resuming a complete store re-reads
    manifests and rewrites round files without re-simulating.
    """
    directory = Path(directory)
    if checkpoint_dir is None:
        checkpoint_dir = directory / CHECKPOINT_DIRNAME
    plan_directory, tasks = load_fleet_plan(checkpoint_dir)
    if plan_directory.resolve() != directory.resolve():
        # The store moved since the plan was written; trust the caller's
        # location and point the tasks at it.
        tasks = [replace(t, directory=str(directory)) for t in tasks]
    return _run_tasks(directory, tasks, workers, on_shard)
