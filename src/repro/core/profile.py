"""Workload characterization profiles and their streaming builder.

:class:`WorkloadProfile` is the structured result of ``repro
characterize`` — per-subsystem summaries in the style of the surveyed
in-breadth papers (Gulati storage fingerprint, Abrahao utilization
patterns, Feitelson arrival features) plus request-level aggregates.

Characterization has one fold path: :class:`WorkloadProfileBuilder`, a
mergeable accumulator set that folds column batches of each stream
(:meth:`WorkloadProfileBuilder.update_batch`).  One builder per shard,
merged in shard order, equals one builder over the stitched whole, and
no path materializes the stitched trace set.  The batch reference it
is tested against — the materialized records through the numpy
helpers — is the oracle in ``tests/oracles.py``.

Equality contract (see ``docs/streaming_analysis.md``): against that
oracle, count, fraction, quantile, window-series and KS fields match
exactly; accumulated means/variances (interarrival moments, CoV) match
within a relative tolerance of 1e-9.  All windowed series are anchored
at ``origin=0.0`` — the simulated clock — on both, which is what makes
window bins identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

import numpy as np

from ..snapshot import SNAPSHOT_VERSION
from ..snapshot import check_state
from ..stats import (
    CategoricalCounter,
    ExactQuantiles,
    SeekStats,
    WindowedCounter,
    classify_utilization_pattern,
    interarrival_cov,
)
from ..tracing import READ

__all__ = [
    "CpuSummary",
    "MemorySummary",
    "NetworkSummary",
    "RequestSummary",
    "StorageSummary",
    "WorkloadProfile",
    "WorkloadProfileBuilder",
]

#: Minimum windows before a utilization pattern is classified.
_MIN_PATTERN_WINDOWS = 8


@dataclass(frozen=True)
class StorageSummary:
    """Gulati-style I/O fingerprint (mirrors ``StorageProfile``)."""

    n_ios: int
    read_fraction: float
    mean_size: float
    p95_size: float
    sequential_fraction: float
    mean_abs_seek: float
    mean_queue_depth: float
    mean_interarrival: float


@dataclass(frozen=True)
class CpuSummary:
    """Windowed utilization summary (Abrahao-style)."""

    n_bursts: int
    n_windows: int
    mean_utilization: float
    peak_utilization: float
    pattern: Optional[str]


@dataclass(frozen=True)
class NetworkSummary:
    """Arrival-stream fingerprint over the rx direction."""

    n_arrivals: int
    mean_rate: float
    interarrival_cov: Optional[float]
    index_of_dispersion: Optional[float]
    peak_to_mean: Optional[float]
    mean_size: float


@dataclass(frozen=True)
class MemorySummary:
    """Memory access-burst aggregates."""

    n_accesses: int
    read_fraction: float
    mean_size: float


@dataclass(frozen=True)
class RequestSummary:
    """End-to-end request aggregates over completed requests."""

    n_requests: int
    mean_latency: float
    p95_latency: float


@dataclass(frozen=True)
class WorkloadProfile:
    """Characterization of one workload, subsystem by subsystem.

    Sections are ``None`` when the source lacks enough records to
    compute them (e.g. fewer than two storage I/Os).
    """

    window: float
    cores: int
    extent: float
    classes: dict[str, int]
    storage: Optional[StorageSummary] = None
    cpu: Optional[CpuSummary] = None
    network: Optional[NetworkSummary] = None
    memory: Optional[MemorySummary] = None
    requests: Optional[RequestSummary] = None

    @property
    def request_rate(self) -> float:
        """Completed requests per simulated second over the whole extent.

        Replicas are stitched end-to-end on one timeline, so this is
        the sustained per-replica completion rate — the base operating
        point capacity planning scales from.
        """
        total = sum(self.classes.values())
        return total / self.extent if self.extent > 0 else 0.0

    def class_rates(self) -> dict[str, float]:
        """Per-class completed-request rates (requests per second).

        The per-class share of :attr:`request_rate`; the arrival-side
        parameters :func:`repro.queueing.plan.fit_cluster_model`
        extracts from a characterized store.
        """
        if self.extent <= 0:
            return {cls: 0.0 for cls in self.classes}
        return {
            cls: count / self.extent for cls, count in self.classes.items()
        }

    def describe(self) -> str:
        """Human-readable multi-line rendering (the CLI output)."""
        lines = []
        if self.storage is not None:
            s = self.storage
            lines.append(
                f"storage: {s.n_ios} I/Os, read fraction "
                f"{s.read_fraction:.2f}, mean size "
                f"{s.mean_size / 1024:.1f} KiB, sequential "
                f"{s.sequential_fraction:.2f}"
            )
        if self.cpu is not None:
            c = self.cpu
            lines.append(
                f"cpu: {c.n_windows} windows, mean utilization "
                f"{c.mean_utilization * 100:.1f}%, pattern {c.pattern}"
            )
        if self.network is not None:
            n = self.network
            cov = f"{n.interarrival_cov:.2f}" if n.interarrival_cov is not None else "n/a"
            lines.append(
                f"network: {n.n_arrivals} arrivals at {n.mean_rate:.1f}/s, "
                f"CoV {cov}, mean size {n.mean_size / 1024:.1f} KiB"
            )
        if self.memory is not None:
            m = self.memory
            lines.append(
                f"memory: {m.n_accesses} accesses, read fraction "
                f"{m.read_fraction:.2f}, mean size {m.mean_size / 1024:.1f} KiB"
            )
        if self.requests is not None:
            r = self.requests
            lines.append(
                f"requests: {r.n_requests} completed, mean latency "
                f"{r.mean_latency * 1000:.1f} ms, p95 "
                f"{r.p95_latency * 1000:.1f} ms"
            )
        classes = ", ".join(f"{k}={v}" for k, v in self.classes.items())
        lines.append(f"classes: {classes if classes else 'none'}")
        return "\n".join(lines)


@dataclass
class WorkloadProfileBuilder:
    """Streaming, mergeable builder for :class:`WorkloadProfile`.

    Feed each stream's column batches in stitched order via
    :meth:`update_batch`, or fold one builder per shard and
    :meth:`merge` them in shard-index order (the order-dependent
    storage seek/interarrival statistics are seam-merged, so shard
    folds compose exactly).
    """

    window: float = 0.25
    cores: int = 8
    #: Optional bound on every exact-quantile buffer (storage sizes and
    #: times, network times, request latencies): past this many values
    #: each degrades to a ReservoirQuantile — see
    #: :class:`repro.stats.ExactQuantiles`.
    max_quantile_values: Optional[int] = None
    # storage
    storage_n: int = 0
    storage_reads: int = 0
    storage_sizes: ExactQuantiles = field(default_factory=ExactQuantiles)
    storage_seeks: SeekStats = field(default_factory=SeekStats)
    storage_queue_sum: int = 0
    #: Timestamp buffers (O(n) floats, like ExactQuantiles): interarrival
    #: statistics are defined over *sorted* timestamps, and trace streams
    #: are not guaranteed perfectly time-ordered, so the sort happens at
    #: finish time — reproducing the batch arithmetic exactly.
    storage_times: ExactQuantiles = field(default_factory=ExactQuantiles)
    # cpu
    cpu_busy: WindowedCounter = None  # type: ignore[assignment]
    cpu_n: int = 0
    # network (rx)
    network_n: int = 0
    network_size_sum: int = 0
    network_times: ExactQuantiles = field(default_factory=ExactQuantiles)
    network_counts: WindowedCounter = None  # type: ignore[assignment]
    # memory
    memory_n: int = 0
    memory_reads: int = 0
    memory_size_sum: int = 0
    # requests
    latencies: ExactQuantiles = field(default_factory=ExactQuantiles)
    class_counts: CategoricalCounter = field(default_factory=CategoricalCounter)
    # timeline
    max_extent: float = 0.0

    #: ExactQuantiles fields, in state() order; the max_quantile_values
    #: bound applies to each.
    _QUANTILE_FIELDS = ("storage_sizes", "storage_times", "network_times", "latencies")

    def __post_init__(self) -> None:
        if self.cpu_busy is None:
            self.cpu_busy = WindowedCounter(self.window)
        if self.network_counts is None:
            self.network_counts = WindowedCounter(self.window)
        if self.max_quantile_values is not None:
            for name in self._QUANTILE_FIELDS:
                acc = getattr(self, name)
                if acc.max_values is None:
                    acc.max_values = self.max_quantile_values

    # -- folding -------------------------------------------------------------

    def update_batch(self, stream: str, cols: Mapping[str, Any]) -> None:
        """Fold a column-dict batch of one stream.

        ``cols`` is the representation produced by
        :func:`repro.tracing.columnar.read_columnar_columns` /
        ``columns_from_records``: an ``"n"`` row count plus one numpy
        array (or dictionary-encoded string column) per needed field.
        Every underlying accumulator fold here is exact (integer
        counts, buffer extends, ``np.add.at`` window bins), so splitting
        a stream into batches anywhere produces bit-identical state.
        """
        n = int(cols["n"])
        if n == 0:
            return
        if stream == "storage":
            self.storage_n += n
            self.storage_reads += int(cols["op"].mask(READ).sum())
            self.storage_sizes.update_batch(cols["size_bytes"])
            self.storage_seeks.update_batch(cols["lbn"], cols["size_bytes"])
            self.storage_queue_sum += int(cols["queue_depth"].sum())
            self.storage_times.update_batch(cols["timestamp"])
            self.max_extent = max(
                self.max_extent, float(cols["timestamp"].max())
            )
        elif stream == "cpu":
            self.cpu_n += n
            busy = cols["busy_seconds"]
            self.cpu_busy.update_batch(
                cols["timestamp"], weights=busy, advance=busy
            )
            self.max_extent = max(
                self.max_extent, float(cols["timestamp"].max())
            )
        elif stream == "network":
            rx = cols["direction"].mask("rx")
            if rx.any():
                times = cols["timestamp"][rx]
                self.network_n += int(rx.sum())
                self.network_size_sum += int(cols["size_bytes"][rx].sum())
                self.network_times.update_batch(times)
                self.network_counts.update_batch(times)
            self.max_extent = max(
                self.max_extent, float(cols["timestamp"].max())
            )
        elif stream == "memory":
            self.memory_n += n
            self.memory_reads += int(cols["op"].mask(READ).sum())
            self.memory_size_sum += int(cols["size_bytes"].sum())
            self.max_extent = max(
                self.max_extent, float(cols["timestamp"].max())
            )
        elif stream == "requests":
            arrival = cols["arrival_time"]
            completion = cols["completion_time"]
            self.max_extent = max(
                self.max_extent, float(arrival.max()), float(completion.max())
            )
            completed = completion > arrival
            if completed.any():
                self.latencies.update_batch(
                    (completion - arrival)[completed]
                )
                self.class_counts.update_batch(
                    cols["request_class"].take(completed)
                )
        elif stream == "spans":
            self.max_extent = max(self.max_extent, float(cols["start"].max()))
            ends = cols["end"]
            finite = ends == ends  # not NaN
            if finite.any():
                self.max_extent = max(
                    self.max_extent, float(ends[finite].max())
                )
        else:
            raise ValueError(f"unknown stream {stream!r}")

    def merge(self, other: "WorkloadProfileBuilder") -> "WorkloadProfileBuilder":
        """Fold in a builder covering the records that follow this one's."""
        if (
            self.window != other.window
            or self.cores != other.cores
            or self.max_quantile_values != other.max_quantile_values
        ):
            raise ValueError("cannot merge builders with different settings")
        self.storage_n += other.storage_n
        self.storage_reads += other.storage_reads
        self.storage_sizes.merge(other.storage_sizes)
        self.storage_seeks.merge(other.storage_seeks)
        self.storage_queue_sum += other.storage_queue_sum
        self.storage_times.merge(other.storage_times)
        self.cpu_busy.merge(other.cpu_busy)
        self.cpu_n += other.cpu_n
        self.network_n += other.network_n
        self.network_size_sum += other.network_size_sum
        self.network_times.merge(other.network_times)
        self.network_counts.merge(other.network_counts)
        self.memory_n += other.memory_n
        self.memory_reads += other.memory_reads
        self.memory_size_sum += other.memory_size_sum
        self.latencies.merge(other.latencies)
        self.class_counts.merge(other.class_counts)
        self.max_extent = max(self.max_extent, other.max_extent)
        return self

    # -- snapshot / restore --------------------------------------------------

    def state(self) -> dict[str, Any]:
        """Versioned JSON-able snapshot (see ``repro.stats.streaming``).

        ``from_state(b.state())`` is behaviorally identical to ``b``:
        same future adds, merges and :meth:`profile` output.  This is
        what the per-shard analysis cache persists.
        """
        return {
            "kind": "profile-builder",
            "version": SNAPSHOT_VERSION,
            "window": self.window,
            "cores": self.cores,
            "max_quantile_values": self.max_quantile_values,
            "storage_n": self.storage_n,
            "storage_reads": self.storage_reads,
            "storage_sizes": self.storage_sizes.state(),
            "storage_seeks": self.storage_seeks.state(),
            "storage_queue_sum": self.storage_queue_sum,
            "storage_times": self.storage_times.state(),
            "cpu_busy": self.cpu_busy.state(),
            "cpu_n": self.cpu_n,
            "network_n": self.network_n,
            "network_size_sum": self.network_size_sum,
            "network_times": self.network_times.state(),
            "network_counts": self.network_counts.state(),
            "memory_n": self.memory_n,
            "memory_reads": self.memory_reads,
            "memory_size_sum": self.memory_size_sum,
            "latencies": self.latencies.state(),
            "class_counts": self.class_counts.state(),
            "max_extent": self.max_extent,
        }

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "WorkloadProfileBuilder":
        check_state(state, "profile-builder")
        max_quantile_values = state.get("max_quantile_values")
        builder = cls(
            window=float(state["window"]),
            cores=int(state["cores"]),
            max_quantile_values=(
                None if max_quantile_values is None else int(max_quantile_values)
            ),
            storage_n=int(state["storage_n"]),
            storage_reads=int(state["storage_reads"]),
            storage_sizes=ExactQuantiles.from_state(state["storage_sizes"]),
            storage_seeks=SeekStats.from_state(state["storage_seeks"]),
            storage_queue_sum=int(state["storage_queue_sum"]),
            storage_times=ExactQuantiles.from_state(state["storage_times"]),
            cpu_busy=WindowedCounter.from_state(state["cpu_busy"]),
            cpu_n=int(state["cpu_n"]),
            network_n=int(state["network_n"]),
            network_size_sum=int(state["network_size_sum"]),
            network_times=ExactQuantiles.from_state(state["network_times"]),
            network_counts=WindowedCounter.from_state(state["network_counts"]),
            memory_n=int(state["memory_n"]),
            memory_reads=int(state["memory_reads"]),
            memory_size_sum=int(state["memory_size_sum"]),
            latencies=ExactQuantiles.from_state(state["latencies"]),
            class_counts=CategoricalCounter.from_state(state["class_counts"]),
            max_extent=float(state["max_extent"]),
        )
        return builder

    # -- finishing -----------------------------------------------------------

    def profile(self) -> WorkloadProfile:
        """Finish the accumulators into a :class:`WorkloadProfile`."""
        storage = None
        if self.storage_n >= 2:
            storage = StorageSummary(
                n_ios=self.storage_n,
                read_fraction=self.storage_reads / self.storage_n,
                mean_size=self.storage_sizes.mean,
                p95_size=self.storage_sizes.quantile(0.95),
                sequential_fraction=self.storage_seeks.sequential_fraction,
                mean_abs_seek=self.storage_seeks.mean_abs_seek,
                mean_queue_depth=self.storage_queue_sum / self.storage_n,
                mean_interarrival=(
                    float(np.diff(np.sort(self.storage_times.array())).mean())
                    if self.storage_n >= 2
                    else 0.0
                ),
            )
        cpu = None
        if self.cpu_n:
            series = np.clip(
                self.cpu_busy.series() / (self.window * self.cores), 0.0, 1.0
            )
            cpu = CpuSummary(
                n_bursts=self.cpu_n,
                n_windows=int(series.size),
                mean_utilization=float(series.mean()),
                peak_utilization=float(series.max()),
                pattern=(
                    classify_utilization_pattern(series)
                    if series.size >= _MIN_PATTERN_WINDOWS
                    else None
                ),
            )
        network = None
        if self.network_n >= 2:
            times = np.sort(self.network_times.array())
            span = float(times[-1] - times[0])
            gaps = np.diff(times)
            positive = gaps[gaps > 0]
            cov = (
                float(interarrival_cov(positive)) if positive.size >= 2 else None
            )
            counts = self.network_counts.series(end=float(times[-1]))
            mean_count = counts.mean()
            idc = float(counts.var() / mean_count) if mean_count > 0 else None
            ptm = float(counts.max() / mean_count) if mean_count > 0 else None
            network = NetworkSummary(
                n_arrivals=self.network_n,
                mean_rate=self.network_n / span if span > 0 else 0.0,
                interarrival_cov=cov,
                index_of_dispersion=idc,
                peak_to_mean=ptm,
                mean_size=self.network_size_sum / self.network_n,
            )
        memory = None
        if self.memory_n:
            memory = MemorySummary(
                n_accesses=self.memory_n,
                read_fraction=self.memory_reads / self.memory_n,
                mean_size=self.memory_size_sum / self.memory_n,
            )
        requests = None
        if self.latencies.n:
            requests = RequestSummary(
                n_requests=self.latencies.n,
                mean_latency=self.latencies.mean,
                p95_latency=self.latencies.quantile(0.95),
            )
        return WorkloadProfile(
            window=self.window,
            cores=self.cores,
            extent=self.max_extent,
            classes=dict(sorted(self.class_counts.counts.items())),
            storage=storage,
            cpu=cpu,
            network=network,
            memory=memory,
            requests=requests,
        )
