"""Validation framework: original vs synthetic workload fidelity.

Reproduces the paper's Table 2 methodology: group requests into
profiles (the paper's "user requests"), then compare per-profile
request features — network request size, CPU utilization, memory
size/type, storage size/type — and the latency performance metric.
Feature deviations are percentages (CPU utilization in absolute
percentage points, as the paper reports), latency deviation as a
percentage of the original mean.

Validation has one fold path: each side's request-feature columns fold
into a mergeable :class:`WorkloadFeatureStats` (per shard, then merged,
or a whole source at once) and :func:`compare_feature_stats` builds the
report.  :func:`compare_workloads` is that path over two trace sources.
The per-request record walk it replaced is the test oracle in
``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from ..snapshot import SNAPSHOT_VERSION
from ..snapshot import check_state
from ..stats import (
    CategoricalCounter,
    CoMomentsAccumulator,
    ExactQuantiles,
    MomentsAccumulator,
    ks_two_sample,
)
from ..tracing import TraceSource
from ..tracing.columnar import take_columns
from .features import source_feature_columns

__all__ = [
    "ProfileComparison",
    "ProfileFeatureStats",
    "ValidationReport",
    "WorkloadFeatureStats",
    "compare_feature_stats",
    "compare_workloads",
]


def _pct_deviation(original: float, synthetic: float) -> float:
    """|synthetic - original| as a percentage of the original."""
    if original == 0:
        return 0.0 if synthetic == 0 else float("inf")
    return abs(synthetic - original) / abs(original) * 100.0


@dataclass
class ProfileComparison:
    """Table-2 row pair: one request profile, original vs synthetic."""

    profile: tuple[str, int]
    n_original: int
    n_synthetic: int
    # Mean feature values.
    network_bytes: tuple[float, float]
    cpu_utilization: tuple[float, float]
    memory_bytes: tuple[float, float]
    storage_bytes: tuple[float, float]
    latency: tuple[float, float]
    latency_p95: tuple[float, float]
    memory_op_match: float  # fraction of synthetic with the modal original op
    storage_op_match: float

    @property
    def network_deviation_pct(self) -> float:
        return _pct_deviation(*self.network_bytes)

    @property
    def cpu_utilization_deviation_pp(self) -> float:
        """Absolute deviation in percentage points (paper's convention)."""
        return abs(self.cpu_utilization[1] - self.cpu_utilization[0]) * 100.0

    @property
    def memory_deviation_pct(self) -> float:
        return _pct_deviation(*self.memory_bytes)

    @property
    def storage_deviation_pct(self) -> float:
        return _pct_deviation(*self.storage_bytes)

    @property
    def latency_deviation_pct(self) -> float:
        return _pct_deviation(*self.latency)

    @property
    def latency_p95_deviation_pct(self) -> float:
        """Tail fidelity: deviation of the 95th latency percentile."""
        return _pct_deviation(*self.latency_p95)

    @property
    def max_feature_deviation_pct(self) -> float:
        """Worst of the size-feature deviations (the paper's "request
        features" bound)."""
        return max(
            self.network_deviation_pct,
            self.memory_deviation_pct,
            self.storage_deviation_pct,
        )


@dataclass
class ValidationReport:
    """Full original-vs-synthetic comparison."""

    profiles: list[ProfileComparison]
    latency_ks: float
    latency_ks_pvalue: float
    joint_correlation_original: float
    joint_correlation_synthetic: float
    n_original: int
    n_synthetic: int

    @property
    def joint_correlation_error(self) -> float:
        """|corr(net, storage sizes)| gap — collapses for models that
        sample subsystems independently."""
        return abs(
            self.joint_correlation_original - self.joint_correlation_synthetic
        )

    @property
    def worst_feature_deviation_pct(self) -> float:
        return max(p.max_feature_deviation_pct for p in self.profiles)

    @property
    def worst_latency_deviation_pct(self) -> float:
        return max(p.latency_deviation_pct for p in self.profiles)

    @property
    def mean_latency_deviation_pct(self) -> float:
        weights = np.array([p.n_original for p in self.profiles], dtype=float)
        values = np.array([p.latency_deviation_pct for p in self.profiles])
        return float(np.average(values, weights=weights))

    def to_table(self) -> str:
        """Render in the layout of the paper's Table 2."""
        lines = [
            f"{'profile':>16} | {'n(o/s)':>11} | {'net dev%':>8} | "
            f"{'cpu dev(pp)':>11} | {'mem dev%':>8} | {'sto dev%':>8} | "
            f"{'mem-op':>6} | {'sto-op':>6} | {'lat dev%':>8} | "
            f"{'p95 dev%':>8}"
        ]
        lines.append("-" * len(lines[0]))
        for p in sorted(self.profiles, key=lambda p: p.profile):
            name = f"{p.profile[0]}@2^{p.profile[1]}"
            lines.append(
                f"{name:>16} | {p.n_original:>5}/{p.n_synthetic:<5} | "
                f"{p.network_deviation_pct:>8.2f} | "
                f"{p.cpu_utilization_deviation_pp:>11.2f} | "
                f"{p.memory_deviation_pct:>8.2f} | "
                f"{p.storage_deviation_pct:>8.2f} | "
                f"{p.memory_op_match:>6.2f} | {p.storage_op_match:>6.2f} | "
                f"{p.latency_deviation_pct:>8.2f} | "
                f"{p.latency_p95_deviation_pct:>8.2f}"
            )
        lines.append(
            f"latency KS={self.latency_ks:.3f} (p={self.latency_ks_pvalue:.3f})  "
            f"joint corr: original={self.joint_correlation_original:.3f} "
            f"synthetic={self.joint_correlation_synthetic:.3f}"
        )
        return "\n".join(lines)


@dataclass
class ProfileFeatureStats:
    """Mergeable per-profile feature statistics (one side of Table 2).

    Moments for the mean columns, exact quantiles for the latency
    tail, categorical counts for the op-match columns.  ``merge``
    composes accumulator merges, so folding shard by shard and merging
    gives the same statistics as folding the stitched whole (see
    ``docs/streaming_analysis.md`` for the FP tolerance contract).
    """

    network_bytes: MomentsAccumulator = field(default_factory=MomentsAccumulator)
    cpu_utilization: MomentsAccumulator = field(
        default_factory=MomentsAccumulator
    )
    memory_bytes: MomentsAccumulator = field(default_factory=MomentsAccumulator)
    storage_bytes: MomentsAccumulator = field(default_factory=MomentsAccumulator)
    latency: ExactQuantiles = field(default_factory=ExactQuantiles)
    memory_ops: CategoricalCounter = field(default_factory=CategoricalCounter)
    storage_ops: CategoricalCounter = field(default_factory=CategoricalCounter)

    @property
    def n(self) -> int:
        return self.network_bytes.n

    def update_batch(self, cols: Mapping[str, Any]) -> None:
        """Fold a feature-column batch (one profile's subset of
        :func:`repro.core.features.request_feature_columns` output).

        Latency buffers, op counts and ``n`` are exact; the moment
        fields follow the 1e-9 relative contract of
        :meth:`repro.stats.MomentsAccumulator.update_batch`.
        """
        if not cols["n"]:
            return
        self.network_bytes.update_batch(cols["network_bytes"])
        self.cpu_utilization.update_batch(cols["cpu_utilization"])
        self.memory_bytes.update_batch(cols["memory_bytes"])
        self.storage_bytes.update_batch(cols["storage_bytes"])
        self.latency.update_batch(cols["latency"])
        self.memory_ops.update_batch(cols["memory_op"])
        self.storage_ops.update_batch(cols["storage_op"])

    def merge(self, other: "ProfileFeatureStats") -> "ProfileFeatureStats":
        self.network_bytes.merge(other.network_bytes)
        self.cpu_utilization.merge(other.cpu_utilization)
        self.memory_bytes.merge(other.memory_bytes)
        self.storage_bytes.merge(other.storage_bytes)
        self.latency.merge(other.latency)
        self.memory_ops.merge(other.memory_ops)
        self.storage_ops.merge(other.storage_ops)
        return self

    def state(self) -> dict[str, Any]:
        return {
            "kind": "profile-feature-stats",
            "version": SNAPSHOT_VERSION,
            "network_bytes": self.network_bytes.state(),
            "cpu_utilization": self.cpu_utilization.state(),
            "memory_bytes": self.memory_bytes.state(),
            "storage_bytes": self.storage_bytes.state(),
            "latency": self.latency.state(),
            "memory_ops": self.memory_ops.state(),
            "storage_ops": self.storage_ops.state(),
        }

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "ProfileFeatureStats":
        check_state(state, "profile-feature-stats")
        return cls(
            network_bytes=MomentsAccumulator.from_state(state["network_bytes"]),
            cpu_utilization=MomentsAccumulator.from_state(state["cpu_utilization"]),
            memory_bytes=MomentsAccumulator.from_state(state["memory_bytes"]),
            storage_bytes=MomentsAccumulator.from_state(state["storage_bytes"]),
            latency=ExactQuantiles.from_state(state["latency"]),
            memory_ops=CategoricalCounter.from_state(state["memory_ops"]),
            storage_ops=CategoricalCounter.from_state(state["storage_ops"]),
        )


@dataclass
class WorkloadFeatureStats:
    """Mergeable validation statistics for one whole workload side.

    Holds per-profile stats plus the workload-level aggregates the
    report needs: every latency (for the KS test) and the joint
    network/storage size co-moments (for the joint-correlation check).
    """

    profiles: dict = field(default_factory=dict)
    latencies: ExactQuantiles = field(default_factory=ExactQuantiles)
    joint: CoMomentsAccumulator = field(default_factory=CoMomentsAccumulator)
    n: int = 0

    def update_batch(self, cols: Mapping[str, Any]) -> "WorkloadFeatureStats":
        """Fold a whole feature-column batch (the output of
        :func:`repro.core.features.request_feature_columns`).

        A request's profile is its (storage op, log2 size bucket of
        the network payload) pair, which groups original and synthetic
        requests alike without ground-truth class labels.  Each group
        folds through :meth:`ProfileFeatureStats.update_batch` with
        row order preserved.
        """
        n = int(cols["n"])
        if n == 0:
            return self
        network_bytes = np.asarray(cols["network_bytes"])
        buckets = np.round(
            np.log2(np.maximum(1, network_bytes).astype(float))
        ).astype(np.int64)
        op = cols["storage_op"]
        pairs = np.stack([op.codes.astype(np.int64), buckets], axis=1)
        uniq, inverse = np.unique(pairs, axis=0, return_inverse=True)
        for gi in range(uniq.shape[0]):
            key = (op.values[int(uniq[gi, 0])], int(uniq[gi, 1]))
            if key not in self.profiles:
                self.profiles[key] = ProfileFeatureStats()
            self.profiles[key].update_batch(
                take_columns(cols, inverse == gi)
            )
        self.latencies.update_batch(cols["latency"])
        self.joint.update_batch(cols["network_bytes"], cols["storage_bytes"])
        self.n += n
        return self

    @classmethod
    def from_feature_columns(cls, cols: Mapping[str, Any]) -> "WorkloadFeatureStats":
        """Fresh statistics from one feature-column batch."""
        return cls().update_batch(cols)

    @classmethod
    def from_source(cls, source: TraceSource) -> "WorkloadFeatureStats":
        """Fold one source's feature columns into fresh statistics,
        the way the analysis side folds each shard."""
        return cls.from_feature_columns(source_feature_columns(source))

    def merge(self, other: "WorkloadFeatureStats") -> "WorkloadFeatureStats":
        for key, stats in other.profiles.items():
            if key in self.profiles:
                self.profiles[key].merge(stats)
            else:
                self.profiles[key] = stats
        self.latencies.merge(other.latencies)
        self.joint.merge(other.joint)
        self.n += other.n
        return self

    def state(self) -> dict[str, Any]:
        # Profile keys are (storage_op, bucket) tuples; JSON has no
        # tuple, so each entry is a [[op, bucket], state] pair.
        return {
            "kind": "workload-feature-stats",
            "version": SNAPSHOT_VERSION,
            "profiles": [
                [[key[0], key[1]], stats.state()]
                for key, stats in sorted(self.profiles.items())
            ],
            "latencies": self.latencies.state(),
            "joint": self.joint.state(),
            "n": self.n,
        }

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "WorkloadFeatureStats":
        check_state(state, "workload-feature-stats")
        stats = cls(
            latencies=ExactQuantiles.from_state(state["latencies"]),
            joint=CoMomentsAccumulator.from_state(state["joint"]),
            n=int(state["n"]),
        )
        for (op, bucket), profile_state in state["profiles"]:
            stats.profiles[(str(op), int(bucket))] = ProfileFeatureStats.from_state(
                profile_state
            )
        return stats


def compare_feature_stats(
    original: WorkloadFeatureStats,
    synthetic: WorkloadFeatureStats,
    min_profile_count: int = 5,
) -> ValidationReport:
    """Build a :class:`ValidationReport` from two accumulated sides.

    Given feature statistics folded (and possibly merged across shards
    or workers) for the original and synthetic workloads, produces the
    Table-2 report.  It matches the record-walk oracle in
    ``tests/oracles.py`` within the documented FP tolerance — exactly,
    for the count/quantile/KS/modal-op fields.  Profiles observed fewer
    than ``min_profile_count`` times on either side are skipped.
    """
    if original.n == 0 or synthetic.n == 0:
        raise ValueError("both trace sets must contain complete requests")
    profiles = []
    for key in sorted(set(original.profiles) & set(synthetic.profiles)):
        o, s = original.profiles[key], synthetic.profiles[key]
        if o.n < min_profile_count or s.n < min_profile_count:
            continue
        modal_mem_op = o.memory_ops.modal()
        modal_sto_op = o.storage_ops.modal()
        profiles.append(
            ProfileComparison(
                profile=key,
                n_original=o.n,
                n_synthetic=s.n,
                network_bytes=(o.network_bytes.mean, s.network_bytes.mean),
                cpu_utilization=(
                    o.cpu_utilization.mean,
                    s.cpu_utilization.mean,
                ),
                memory_bytes=(o.memory_bytes.mean, s.memory_bytes.mean),
                storage_bytes=(o.storage_bytes.mean, s.storage_bytes.mean),
                latency=(o.latency.mean, s.latency.mean),
                latency_p95=(o.latency.quantile(0.95), s.latency.quantile(0.95)),
                memory_op_match=s.memory_ops.fraction(modal_mem_op),
                storage_op_match=s.storage_ops.fraction(modal_sto_op),
            )
        )
    if not profiles:
        raise ValueError("no common profiles with enough requests to compare")
    ks, pvalue = ks_two_sample(original.latencies.array(), synthetic.latencies.array())
    return ValidationReport(
        profiles=profiles,
        latency_ks=ks,
        latency_ks_pvalue=pvalue,
        joint_correlation_original=original.joint.correlation,
        joint_correlation_synthetic=synthetic.joint.correlation,
        n_original=original.n,
        n_synthetic=synthetic.n,
    )


def compare_workloads(
    original: TraceSource,
    synthetic: TraceSource,
    min_profile_count: int = 5,
) -> ValidationReport:
    """Compare an original trace source against a replayed synthetic one.

    Accepts any :class:`~repro.tracing.TraceSource` on either side:
    each folds into :class:`WorkloadFeatureStats` and the two compare
    through :func:`compare_feature_stats`, the same fold and report
    ``repro validate`` prints.  Profiles observed fewer than
    ``min_profile_count`` times on either side are skipped (their
    means are too noisy to grade a model on).
    """
    return compare_feature_stats(
        WorkloadFeatureStats.from_source(original),
        WorkloadFeatureStats.from_source(synthetic),
        min_profile_count,
    )
