"""Capacity planning: analytic load sweeps cross-validated by simulation.

The "what happens at 10x traffic" tool (Tay's review: analytic models
are for cheap extrapolation, validated at a few operating points;
Thomasian's hierarchical pattern: fit per-machine submodels, compose
them into a cluster-level network).  Three stages:

1. **Fit** — :func:`fit_cluster_model` extracts per-class service
   demands by replaying each request class's trained KOOZA model on
   the simulated machine (the same synthesize → replay recipe as
   ``validate_per_class``, with the same per-class RNG streams) and
   reading the per-device busy seconds off the replay machine.
   Arrival rates come from the characterized store profile
   (:meth:`repro.core.WorkloadProfile.class_rates`) or, for a bare
   model file, from a user-supplied base rate split by training mix.
2. **Sweep** — :func:`plan_sweep` composes the per-device demands into
   a cluster-level queueing network and walks a load-multiplier grid
   through the saturation-aware solvers
   (:func:`~repro.queueing.mva.solve_jackson_saturating` open /
   :func:`~repro.queueing.mva.solve_mva` closed), reporting per-station
   utilization, latency, the bottleneck station and the saturation
   knee as data — never as an exception.
3. **Cross-validate** — :func:`cross_validate` runs targeted in-memory
   fleets (:func:`repro.datacenter.collect_fleet`) at user-chosen
   operating points and reports the analytic-vs-simulated relative
   error per point, Table-2 style.

Everything below the solvers is imported lazily: ``repro.core`` pulls
in ``repro.datacenter`` whose fleet module imports ``repro.store`` —
a module-level import here would close that cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Sequence

from .mva import AnalyticStation, solve_jackson_saturating, solve_mva

__all__ = [
    "CapacityPlan",
    "ClassDemand",
    "ClusterModel",
    "PlanPoint",
    "ValidationPoint",
    "cross_validate",
    "fit_cluster_model",
    "parse_multipliers",
    "plan_sweep",
    "solve_point",
    "validation_table",
]

#: Station order of the cluster network: one station per machine device,
#: matching :meth:`repro.datacenter.Machine.busy_report` keys.
STATION_DEVICES = ("cpu", "memory", "disk", "nic")

#: Default load-multiplier grid: 0.5x to 100x, geometric, 17 points.
DEFAULT_SCALE = "0.5:100:17"


def parse_multipliers(text: str) -> list[float]:
    """Parse a load-multiplier grid specification.

    Two forms: ``"0.5:100:17"`` is an inclusive geometric grid (low,
    high, point count); ``"1,2,5,10"`` is an explicit comma list.
    The result is ascending, deduplicated, strictly positive and
    finite: a NaN or infinite bound or value is rejected.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty multiplier grid")
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(
                f"bad grid {text!r}: expected LOW:HIGH:POINTS"
            )
        try:
            lo, hi = float(parts[0]), float(parts[1])
            n = int(parts[2])
        except ValueError:
            raise ValueError(f"bad grid {text!r}: expected LOW:HIGH:POINTS")
        _check_multipliers((lo, hi), text)
        if hi <= lo:
            raise ValueError(f"bad grid {text!r}: HIGH must exceed LOW")
        if n < 2:
            raise ValueError(f"bad grid {text!r}: need >= 2 points")
        ratio = hi / lo
        values = [lo * ratio ** (i / (n - 1)) for i in range(n)]
    else:
        try:
            values = [float(v) for v in text.split(",") if v.strip()]
        except ValueError:
            raise ValueError(f"bad multiplier list {text!r}")
        if not values:
            raise ValueError("empty multiplier grid")
        _check_multipliers(values, text)
    out: list[float] = []
    for v in sorted(values):
        if not out or v > out[-1]:
            out.append(v)
    return out


def _check_multipliers(values: Sequence[float], text: str) -> None:
    # ``0 < v < inf`` is false for NaN, so one comparison covers all three.
    if not all(0 < v < math.inf for v in values):
        raise ValueError(f"multipliers must be finite and > 0 in {text!r}")


@dataclass(frozen=True)
class ClassDemand:
    """One request class's fitted arrival and service parameters."""

    request_class: str
    #: Arrival rate at the 1x operating point (requests per second).
    arrival_rate: float
    #: Seconds of device occupancy per request, per station.
    demands: dict[str, float]
    #: Synthetic requests replayed to measure the demands.
    n_fit: int
    #: Mean end-to-end latency of the measurement replay (lightly
    #: loaded: a near-zero-queueing calibration point).
    replay_latency: float
    #: Mean latency observed in the source traces (None for a bare
    #: model input, which carries no observations).
    observed_latency: Optional[float] = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "request_class": self.request_class,
            "arrival_rate": self.arrival_rate,
            "demands": dict(self.demands),
            "n_fit": self.n_fit,
            "replay_latency": self.replay_latency,
            "observed_latency": self.observed_latency,
        }


@dataclass(frozen=True)
class ClusterModel:
    """Per-class demands composed into one cluster-level network."""

    #: (station, parallel servers) in :data:`STATION_DEVICES` order.
    stations: tuple[tuple[str, int], ...]
    classes: tuple[ClassDemand, ...]
    #: Total arrival rate at the 1x operating point.
    base_rate: float
    #: Where the fit came from: ``"store"`` or ``"model"``.
    fit_source: str
    #: Classes that could not be fitted, with reasons.
    skipped: tuple[tuple[str, str], ...] = ()

    def aggregate_demands(self) -> dict[str, float]:
        """Mix-weighted mean service demand per station (s/request).

        The standard multi-class to single-class reduction: each
        class's demand weighted by its share of the arrival stream.
        """
        totals = {name: 0.0 for name, _ in self.stations}
        for c in self.classes:
            share = c.arrival_rate / self.base_rate
            for name in totals:
                totals[name] += share * c.demands.get(name, 0.0)
        return totals

    def analytic_stations(self) -> list[AnalyticStation]:
        """The solvable network (stations with zero demand drop out)."""
        demands = self.aggregate_demands()
        return [
            AnalyticStation(name, 1.0, demands[name], servers)
            for name, servers in self.stations
            if demands[name] > 0.0
        ]

    @property
    def saturation_rate(self) -> float:
        """Exact arrival rate at which the first station saturates."""
        demands = self.aggregate_demands()
        limits = [
            servers / demands[name]
            for name, servers in self.stations
            if demands[name] > 0.0
        ]
        return min(limits) if limits else math.inf

    @property
    def bottleneck(self) -> str:
        """Station with the highest per-server demand (saturates first)."""
        demands = self.aggregate_demands()
        return max(
            self.stations, key=lambda s: demands[s[0]] / s[1]
        )[0]

    def to_dict(self) -> dict[str, Any]:
        return {
            "stations": [
                {"name": name, "servers": servers}
                for name, servers in self.stations
            ],
            "classes": [c.to_dict() for c in self.classes],
            "base_rate": self.base_rate,
            "fit_source": self.fit_source,
            "aggregate_demands": self.aggregate_demands(),
            "bottleneck": self.bottleneck,
            "saturation_rate": self.saturation_rate,
            "skipped": [list(pair) for pair in self.skipped],
        }


def fit_cluster_model(
    source=None,
    models: Optional[Mapping[str, Any]] = None,
    base_rate: Optional[float] = None,
    *,
    seed: int = 42,
    max_per_class: int = 256,
    workers: int = 1,
    cache: bool = False,
) -> ClusterModel:
    """Fit per-class service demands and arrival rates into a cluster model.

    Two input shapes:

    * ``source`` (a trace source / shard store): arrival rates and the
      class mix come from the streamed profile
      (:meth:`~repro.core.WorkloadProfile.class_rates`); per-class
      models are trained via ``train_per_class`` (default config)
      unless ``models`` is passed.
    * ``models`` alone (a loaded per-class table): ``base_rate`` is
      required, and the mix is split by each model's training size.

    Each class's station demands are measured by synthesizing
    ``min(class count, max_per_class)`` requests with the same
    per-class RNG streams as ``validate_per_class`` and replaying them
    on a simulated machine with the default :class:`MachineSpec`; the
    machine's cumulative per-device busy seconds divided by the request
    count are the per-request demands.  Classes without a model or
    with a zero rate are recorded in :attr:`ClusterModel.skipped`.
    """
    from ..core import ReplayHarness
    from ..datacenter import MachineSpec
    from ..store.analyze import analyze_source, class_rng, class_seed

    if source is None and models is None:
        raise ValueError("pass a trace source, a per-class model table, or both")
    observed_latency: dict[str, float] = {}
    if source is not None:
        analysis = analyze_source(source, workers=workers, cache=cache)
        profile = analysis.profile
        rates = profile.class_rates()
        counts = dict(profile.classes)
        observed_latency = {
            cls: stats.latencies.mean
            for cls, stats in analysis.per_class.items()
            if stats.latencies.n
        }
        if models is None:
            from ..store.training import train_per_class

            models = train_per_class(
                source, workers=workers, cache=cache
            ).models
        if base_rate is None:
            base_rate = profile.request_rate
        fit_source = "store"
    else:
        if base_rate is None:
            raise ValueError(
                "base_rate is required when fitting from a bare model table"
            )
        counts = {
            cls: int(model.n_training_requests)
            for cls, model in models.items()
        }
        total = sum(counts.values())
        if total <= 0:
            raise ValueError("model table carries no training counts")
        rates = {
            cls: base_rate * n / total for cls, n in counts.items()
        }
        fit_source = "model"
    if base_rate is None or base_rate <= 0:
        raise ValueError(f"base arrival rate must be > 0, got {base_rate}")
    if max_per_class < 1:
        raise ValueError(f"max_per_class must be >= 1, got {max_per_class}")

    spec = MachineSpec()
    servers = {
        "cpu": spec.cpu.cores,
        "memory": spec.memory.channels,
        "disk": 1,
        "nic": 1,
    }
    classes: list[ClassDemand] = []
    skipped: list[tuple[str, str]] = []
    for cls in sorted(rates):
        if models is None or cls not in models:
            skipped.append((cls, "no model for class"))
            continue
        rate = rates[cls]
        if rate <= 0:
            skipped.append((cls, "zero arrival rate"))
            continue
        n = max(1, min(int(counts.get(cls, max_per_class)), max_per_class))
        synthetic = models[cls].synthesize(n, class_rng(seed, cls))
        harness = ReplayHarness(
            machine_spec=spec, seed=class_seed(seed + 1, cls)
        )
        replayed = harness.replay(synthetic)
        busy = harness.machines[0].busy_report()
        demands = {
            device: busy[device] / n for device in STATION_DEVICES
        }
        latencies = [r.latency for r in replayed.completed_requests()]
        classes.append(
            ClassDemand(
                request_class=cls,
                arrival_rate=rate,
                demands=demands,
                n_fit=n,
                replay_latency=(
                    sum(latencies) / len(latencies) if latencies else 0.0
                ),
                observed_latency=observed_latency.get(cls),
            )
        )
    if not classes:
        reasons = "; ".join(f"{c}: {why}" for c, why in skipped)
        raise ValueError(
            f"no request class could be fitted ({reasons or 'no classes'})"
        )
    fitted_rate = sum(c.arrival_rate for c in classes)
    return ClusterModel(
        stations=tuple((name, servers[name]) for name in STATION_DEVICES),
        classes=tuple(classes),
        base_rate=fitted_rate,
        fit_source=fit_source,
        skipped=tuple(skipped),
    )


@dataclass(frozen=True)
class PlanPoint:
    """The analytic network solved at one load multiplier."""

    multiplier: float
    #: Offered arrival rate (open) or achieved throughput (closed).
    arrival_rate: float
    feasible: bool
    utilization: dict[str, float]
    bottleneck: str
    #: Mean request latency in seconds; ``inf`` past saturation.
    mean_latency: float
    #: Closed-solver population at this multiplier (None for open).
    n_customers: Optional[int] = None

    @property
    def bottleneck_utilization(self) -> float:
        return self.utilization[self.bottleneck]

    def to_dict(self) -> dict[str, Any]:
        return {
            "multiplier": self.multiplier,
            "arrival_rate": self.arrival_rate,
            "feasible": self.feasible,
            "utilization": dict(self.utilization),
            "bottleneck": self.bottleneck,
            "bottleneck_utilization": self.bottleneck_utilization,
            "mean_latency": (
                self.mean_latency
                if math.isfinite(self.mean_latency)
                else None
            ),
            "n_customers": self.n_customers,
        }


def solve_point(
    cluster: ClusterModel,
    multiplier: float,
    solver: str = "jackson",
    think_time: float = 0.0,
    customers: Optional[int] = None,
) -> PlanPoint:
    """Solve the cluster network at one load multiplier, non-raising.

    ``solver="jackson"`` scales the open arrival rate; past the knee
    the point comes back infeasible with infinite latency.
    ``solver="mva"`` scales a closed population of ``customers``
    interactive users with ``think_time`` seconds between requests;
    closed networks self-throttle, so a point is marked infeasible
    once its population exceeds the asymptotic-bound knee
    N* = (Z + sum D) / max D (latency then grows linearly, which is
    saturation for an interactive service).
    """
    if multiplier <= 0:
        raise ValueError(f"multiplier must be > 0, got {multiplier}")
    if solver not in ("jackson", "mva"):
        raise ValueError(f"unknown solver {solver!r}")
    stations = cluster.analytic_stations()
    if not stations:
        raise ValueError("cluster model has no station with positive demand")
    all_names = [name for name, _ in cluster.stations]
    if solver == "jackson":
        rate = cluster.base_rate * multiplier
        solution = solve_jackson_saturating(stations, rate)
        utilization = {
            name: solution.station_utilization.get(name, 0.0)
            for name in all_names
        }
        bottleneck = max(utilization, key=utilization.get)
        return PlanPoint(
            multiplier=multiplier,
            arrival_rate=rate,
            feasible=solution.feasible,
            utilization=utilization,
            bottleneck=bottleneck,
            mean_latency=solution.mean_latency,
        )
    if customers is None or customers < 1:
        raise ValueError("solver='mva' needs a base population (customers >= 1)")
    if think_time < 0:
        raise ValueError(f"think time must be >= 0, got {think_time}")
    n = max(1, round(customers * multiplier))
    solution = solve_mva(stations, n, think_time)
    throughput = solution.throughput
    per_server = {s.name: s.demand / s.servers for s in stations}
    utilization = {
        name: throughput * per_server.get(name, 0.0) for name in all_names
    }
    bottleneck = max(utilization, key=utilization.get)
    knee_population = (think_time + sum(per_server.values())) / max(
        per_server.values()
    )
    return PlanPoint(
        multiplier=multiplier,
        arrival_rate=throughput,
        feasible=n < knee_population,
        utilization=utilization,
        bottleneck=bottleneck,
        mean_latency=solution.response_time,
        n_customers=n,
    )


@dataclass
class CapacityPlan:
    """A solved load sweep: the structured feasibility result."""

    cluster: ClusterModel
    solver: str
    points: list[PlanPoint] = field(default_factory=list)
    think_time: float = 0.0
    customers: Optional[int] = None

    @property
    def knee_multiplier(self) -> Optional[float]:
        """First infeasible grid multiplier (None if none saturates)."""
        for point in self.points:
            if not point.feasible:
                return point.multiplier
        return None

    @property
    def max_feasible_multiplier(self) -> Optional[float]:
        feasible = [p.multiplier for p in self.points if p.feasible]
        return max(feasible) if feasible else None

    @property
    def bottleneck(self) -> str:
        return self.cluster.bottleneck

    @property
    def exact_knee_multiplier(self) -> float:
        """Saturation multiplier from the demand bound (open network)."""
        return self.cluster.saturation_rate / self.cluster.base_rate

    def to_dict(self) -> dict[str, Any]:
        return {
            "cluster": self.cluster.to_dict(),
            "solver": self.solver,
            "think_time": self.think_time,
            "customers": self.customers,
            "points": [p.to_dict() for p in self.points],
            "knee_multiplier": self.knee_multiplier,
            "max_feasible_multiplier": self.max_feasible_multiplier,
            "exact_knee_multiplier": (
                self.exact_knee_multiplier
                if math.isfinite(self.exact_knee_multiplier)
                else None
            ),
            "bottleneck": self.bottleneck,
        }

    def to_text(self) -> str:
        """Deterministic human-readable rendering (the CLI output)."""
        c = self.cluster
        demands = c.aggregate_demands()
        lines = [
            f"cluster model (fit from {c.fit_source}): base rate "
            f"{c.base_rate:.2f} req/s, {len(c.classes)} classes, "
            f"solver {self.solver}"
        ]
        for name, servers in c.stations:
            lines.append(
                f"  station {name:>6} x{servers}: demand "
                f"{demands[name] * 1000:.3f} ms/request"
            )
        for cls in c.classes:
            observed = (
                f", observed {cls.observed_latency * 1000:.1f} ms"
                if cls.observed_latency is not None
                else ""
            )
            lines.append(
                f"  class {cls.request_class}: {cls.arrival_rate:.2f} req/s, "
                f"replay latency {cls.replay_latency * 1000:.1f} ms"
                f"{observed} (n={cls.n_fit})"
            )
        for cls, why in c.skipped:
            lines.append(f"  class {cls}: skipped ({why})")
        header = (
            f"{'mult':>8} | {'rate/s':>9} | {'util%':>7} | "
            f"{'latency ms':>10} | feasible"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for p in self.points:
            latency = (
                f"{p.mean_latency * 1000:>10.3f}"
                if math.isfinite(p.mean_latency)
                else f"{'inf':>10}"
            )
            lines.append(
                f"{p.multiplier:>8.2f} | {p.arrival_rate:>9.2f} | "
                f"{p.bottleneck_utilization * 100:>7.1f} | {latency} | "
                f"{'yes' if p.feasible else 'SATURATED'}"
            )
        knee = self.knee_multiplier
        if knee is not None:
            lines.append(
                f"knee: first infeasible multiplier {knee:.2f}x "
                f"(bottleneck {self.bottleneck} saturates)"
            )
        else:
            lines.append(
                f"knee: none within the sweep (bottleneck {self.bottleneck})"
            )
        if self.solver == "jackson" and math.isfinite(
            self.exact_knee_multiplier
        ):
            lines.append(
                f"exact saturation at {self.exact_knee_multiplier:.2f}x base "
                f"({c.saturation_rate:.2f} req/s)"
            )
        return "\n".join(lines)


def plan_sweep(
    cluster: ClusterModel,
    multipliers: Sequence[float],
    solver: str = "jackson",
    think_time: float = 0.0,
    customers: Optional[int] = None,
) -> CapacityPlan:
    """Walk the multiplier grid through the saturation-aware solvers.

    Milliseconds per grid, never raises past the knee: infeasible
    points report their true (>= 1) bottleneck utilization and
    infinite latency, and the plan exposes the knee as the first
    infeasible multiplier.
    """
    if not multipliers:
        raise ValueError("empty multiplier grid")
    plan = CapacityPlan(
        cluster=cluster,
        solver=solver,
        think_time=think_time,
        customers=customers,
    )
    for multiplier in multipliers:
        plan.points.append(
            solve_point(cluster, multiplier, solver, think_time, customers)
        )
    return plan


@dataclass(frozen=True)
class ValidationPoint:
    """Analytic prediction vs targeted simulation at one multiplier."""

    multiplier: float
    #: Per-replica arrival rate the simulation ran at.
    arrival_rate: float
    n_requests: int
    replicas: int
    simulated_latency: float
    analytic_latency: float
    analytic_feasible: bool

    @property
    def relative_error_pct(self) -> float:
        """|analytic - simulated| as a percentage of the simulated mean."""
        if self.simulated_latency <= 0:
            return math.inf
        if not math.isfinite(self.analytic_latency):
            return math.inf
        return (
            abs(self.analytic_latency - self.simulated_latency)
            / self.simulated_latency
            * 100.0
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "multiplier": self.multiplier,
            "arrival_rate": self.arrival_rate,
            "n_requests": self.n_requests,
            "replicas": self.replicas,
            "simulated_latency": self.simulated_latency,
            "analytic_latency": (
                self.analytic_latency
                if math.isfinite(self.analytic_latency)
                else None
            ),
            "analytic_feasible": self.analytic_feasible,
            "relative_error_pct": (
                self.relative_error_pct
                if math.isfinite(self.relative_error_pct)
                else None
            ),
        }


def validation_table(points: Sequence[ValidationPoint]) -> str:
    """Deterministic text rendering of the cross-validation points."""
    header = (
        f"{'mult':>8} | {'rate/s':>9} | {'simulated ms':>12} | "
        f"{'analytic ms':>11} | {'rel err%':>8}"
    )
    lines = [header, "-" * len(header)]
    for p in points:
        analytic = (
            f"{p.analytic_latency * 1000:>11.3f}"
            if math.isfinite(p.analytic_latency)
            else f"{'inf':>11}"
        )
        error = (
            f"{p.relative_error_pct:>8.2f}"
            if math.isfinite(p.relative_error_pct)
            else f"{'inf':>8}"
        )
        lines.append(
            f"{p.multiplier:>8.2f} | {p.arrival_rate:>9.2f} | "
            f"{p.simulated_latency * 1000:>12.3f} | {analytic} | {error}"
        )
    return "\n".join(lines)


def cross_validate(
    cluster: ClusterModel,
    multipliers: Sequence[float],
    spec,
    *,
    solver: str = "jackson",
    think_time: float = 0.0,
    customers: Optional[int] = None,
    workers: int = 1,
) -> list[ValidationPoint]:
    """Validate the analytic curve by simulation at chosen multipliers.

    ``spec`` is a :class:`repro.datacenter.FleetSpec` describing the 1x
    operating point (app, replicas, requests per replica, seed); each
    multiplier runs an in-memory fleet at the scaled arrival rate via
    :func:`~repro.datacenter.collect_fleet` and compares its mean
    completed-request latency against the analytic prediction.  That
    mean is the one ``characterize`` reports for the same fleet
    collected to a store.  Results are deterministic under a fixed spec
    seed and equal for any worker count.
    """
    import numpy as np

    from ..datacenter import collect_fleet

    base_app_rate = spec.replica(0).arrival_rate
    if base_app_rate is None or base_app_rate <= 0:
        raise ValueError(
            f"app {spec.app!r} has no positive arrival rate to scale"
        )
    points: list[ValidationPoint] = []
    for multiplier in multipliers:
        if multiplier <= 0:
            raise ValueError(f"multiplier must be > 0, got {multiplier}")
        point_spec = spec.at_rate(base_app_rate * multiplier)
        traces = collect_fleet(point_spec, workers=workers).traces
        latencies = [r.latency for r in traces.completed_requests()]
        if not latencies:
            raise ValueError(
                f"validation run at {multiplier}x produced no completed "
                "requests; raise n_requests"
            )
        analytic = solve_point(
            cluster, multiplier, solver, think_time, customers
        )
        points.append(
            ValidationPoint(
                multiplier=multiplier,
                arrival_rate=base_app_rate * multiplier,
                n_requests=point_spec.n_requests,
                replicas=point_spec.replicas,
                simulated_latency=float(np.mean(latencies)),
                analytic_latency=analytic.mean_latency,
                analytic_feasible=analytic.feasible,
            )
        )
    return points
