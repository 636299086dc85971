"""Live drift detection: a sliding request window vs a trained baseline.

Three independent signals, each with its own hysteresis alarm:

* **latency** — two-sample KS distance (:func:`repro.stats.ks_distance`)
  between the window's latencies and the baseline's.  The same statistic
  the paper's Table-2 validation uses, pointed at time instead of at a
  synthetic replay; computed in numpy without the p-value, so a check
  after every commit loads no scipy.
* **mix** — total-variation distance between the window's request-class
  fractions and the baseline mix (½ Σ|p−q| over the class union).
* **rate** — z-score of the windowed request count against the expected
  per-window count, through the existing
  :class:`repro.depth.anomaly.StageProfile` z-score machinery with a
  Poisson-width prior (σ = √mean).

The baseline comes either from a trained per-class KOOZA model
(synthesize + replay, mirroring ``validate_per_class``) or, when no
model is loaded, from the store's own resident history — "drift against
the model" degrades gracefully to "drift against the past".

Alarms latch with hysteresis: they trip when a signal exceeds its
threshold and clear only once it falls below ``clear_ratio`` of it, so
a signal hovering *at* the threshold cannot flap the alarm.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

import numpy as np

from ..depth.anomaly import StageProfile
from ..stats import SlidingWindowCounter, ks_distance

__all__ = [
    "Alarm",
    "DriftBaseline",
    "DriftMonitor",
    "DriftReport",
    "DriftThresholds",
]

#: Standard-normal quantile at 0.99 (norm.ppf(0.99)).  The old
#: ``mean + 3*std`` bound was the ~p99.87 point mislabeled as p99.
_P99_Z = 2.3263478740408408


@dataclass(frozen=True)
class DriftThresholds:
    """Trip levels for the three drift signals."""

    ks: float = 0.25
    mix: float = 0.35
    rate_sigmas: float = 4.0
    #: An alarm clears only below ``threshold * clear_ratio``.
    clear_ratio: float = 0.8
    #: Windows thinner than this are not judged at all.
    min_window: int = 32

    def to_dict(self) -> dict[str, float]:
        return {
            "ks": self.ks,
            "mix": self.mix,
            "rate_sigmas": self.rate_sigmas,
            "clear_ratio": self.clear_ratio,
            "min_window": self.min_window,
        }


class Alarm:
    """A latched two-threshold (hysteresis) comparator."""

    def __init__(self, name: str, high: float, low: float):
        if low > high:
            raise ValueError(f"alarm {name!r}: low {low} exceeds high {high}")
        self.name = name
        self.high = high
        self.low = low
        self.firing = False
        self.value: Optional[float] = None
        #: Fire/clear edges seen — the flap counter the tests assert on.
        self.transitions = 0

    def update(self, value: float) -> bool:
        self.value = float(value)
        if self.firing:
            if self.value < self.low:
                self.firing = False
                self.transitions += 1
        elif self.value > self.high:
            self.firing = True
            self.transitions += 1
        return self.firing

    def state(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "high": self.high,
            "low": self.low,
            "firing": self.firing,
            "value": self.value,
            "transitions": self.transitions,
        }

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "Alarm":
        alarm = cls(str(state["name"]), float(state["high"]), float(state["low"]))
        alarm.firing = bool(state["firing"])
        value = state.get("value")
        alarm.value = None if value is None else float(value)
        alarm.transitions = int(state.get("transitions", 0))
        return alarm


@dataclass
class DriftBaseline:
    """What "no drift" looks like: latencies, class mix, request rate."""

    latencies: np.ndarray
    mix: dict[str, float]
    #: Mean completed-request rate, requests per second.
    mean_rate: float
    source: str = "history"

    @classmethod
    def from_resident(cls, resident) -> "DriftBaseline":
        """Baseline from the daemon's own folded history."""
        latencies = np.asarray(resident.features.latencies.array(), dtype=float)
        counts = dict(resident.builder.class_counts.counts)
        total = sum(counts.values())
        mix = {c: n / total for c, n in sorted(counts.items())} if total else {}
        extent = resident.builder.max_extent
        mean_rate = total / extent if extent > 0 else 0.0
        return cls(latencies=latencies, mix=mix, mean_rate=mean_rate,
                   source="history")

    @classmethod
    def from_models(
        cls,
        models: Mapping[str, Any],
        class_counts: Mapping[str, int],
        mean_rate: float,
        seed: int = 42,
        max_per_class: int = 512,
    ) -> "DriftBaseline":
        """Baseline replayed from trained per-class KOOZA models.

        Same synthesize→replay recipe as ``validate_per_class`` (same
        per-class RNG spawning), truncated to ``max_per_class`` requests
        per class so startup stays fast on huge stores.  The mix and
        rate still come from the observed class counts — KOOZA models a
        class's feature distributions, not the inter-class mix.
        """
        from ..store.analyze import class_rng, class_seed
        from ..core import ReplayHarness

        latencies: list[float] = []
        counts = {c: int(n) for c, n in class_counts.items() if c in models}
        for cls_name in sorted(counts):
            n = min(counts[cls_name], max_per_class)
            if n <= 0:
                continue
            synthetic = models[cls_name].synthesize(n, class_rng(seed, cls_name))
            replayed = ReplayHarness(
                seed=class_seed(seed + 1, cls_name)
            ).replay(synthetic)
            for record in replayed.requests:
                if record.completion_time > record.arrival_time:
                    latencies.append(record.latency)
        total = sum(class_counts.values())
        mix = (
            {c: n / total for c, n in sorted(class_counts.items())}
            if total
            else {}
        )
        return cls(
            latencies=np.asarray(latencies, dtype=float),
            mix=mix,
            mean_rate=float(mean_rate),
            source="model",
        )

    def rate_profile(self, span: float) -> StageProfile:
        """Expected request count over ``span`` seconds, Poisson width.

        ``p99`` is the normal-approximation 99th percentile of the
        windowed count (z = 2.326, not the 3-sigma ~p99.87 point).
        """
        expected = self.mean_rate * span
        std = float(np.sqrt(expected)) if expected > 0 else 0.0
        return StageProfile(
            stage="request_rate",
            count=len(self.latencies),
            mean=expected,
            std=std,
            p99=expected + _P99_Z * std,
        )


@dataclass(frozen=True)
class DriftReport:
    """One drift check over the current window."""

    window_n: int
    ready: bool
    ks: float = 0.0
    mix_distance: float = 0.0
    rate: float = 0.0
    rate_zscore: float = 0.0
    alarms: dict[str, bool] = field(default_factory=dict)
    baseline_source: str = "history"
    #: Baseline latency sample size; 0 means the baseline is empty and
    #: the monitor can never become ready until it is rebuilt.
    baseline_n: int = 0
    thresholds: dict[str, float] = field(default_factory=dict)

    @property
    def firing(self) -> bool:
        return any(self.alarms.values())

    def to_dict(self) -> dict[str, Any]:
        return {
            "window_n": self.window_n,
            "ready": self.ready,
            "ks": self.ks,
            "mix_distance": self.mix_distance,
            "rate": self.rate,
            "rate_zscore": self.rate_zscore,
            "alarms": dict(self.alarms),
            "firing": self.firing,
            "baseline_source": self.baseline_source,
            "baseline_n": self.baseline_n,
            "thresholds": dict(self.thresholds),
        }


def mix_distance(p: Mapping[str, float], q: Mapping[str, float]) -> float:
    """Total-variation distance between two class mixes."""
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


class DriftMonitor:
    """Sliding recent-request window judged against a fixed baseline."""

    def __init__(
        self,
        baseline: DriftBaseline,
        window_requests: int = 256,
        rate_window: float = 1.0,
        rate_keep: int = 60,
        thresholds: DriftThresholds = DriftThresholds(),
    ):
        if window_requests < 1:
            raise ValueError(f"window_requests must be >= 1, got {window_requests}")
        self.baseline = baseline
        self.window_requests = int(window_requests)
        self.thresholds = thresholds
        #: (completion_time, latency, request_class) of recent requests.
        self.window: deque = deque(maxlen=self.window_requests)
        self.rate_counter = SlidingWindowCounter(
            window=rate_window, keep=rate_keep
        )
        self.n_observed = 0
        self.alarms = {
            "latency_ks": Alarm(
                "latency_ks", thresholds.ks, thresholds.ks * thresholds.clear_ratio
            ),
            "class_mix": Alarm(
                "class_mix", thresholds.mix, thresholds.mix * thresholds.clear_ratio
            ),
            "request_rate": Alarm(
                "request_rate",
                thresholds.rate_sigmas,
                thresholds.rate_sigmas * thresholds.clear_ratio,
            ),
        }

    def observe(self, record) -> None:
        """Feed one completed request record (incomplete ones ignored)."""
        if record.completion_time <= record.arrival_time:
            return
        self.n_observed += 1
        self.window.append(
            (record.completion_time, record.latency, record.request_class)
        )
        self.rate_counter.add(record.completion_time)

    def check(self) -> DriftReport:
        """Judge the current window; updates (and may latch) the alarms."""
        n = len(self.window)
        rate = self.rate_counter.rate()
        if n < self.thresholds.min_window or self.baseline.latencies.size == 0:
            return DriftReport(
                window_n=n,
                ready=False,
                rate=rate,
                alarms={name: a.firing for name, a in self.alarms.items()},
                baseline_source=self.baseline.source,
                baseline_n=int(self.baseline.latencies.size),
                thresholds=self.thresholds.to_dict(),
            )
        latencies = np.array([lat for _, lat, _ in self.window], dtype=float)
        ks = ks_distance(latencies, self.baseline.latencies)
        classes: dict[str, int] = {}
        for _, _, cls_name in self.window:
            classes[cls_name] = classes.get(cls_name, 0) + 1
        window_mix = {c: k / n for c, k in classes.items()}
        mix = mix_distance(window_mix, self.baseline.mix)
        span = self.rate_counter.span
        observed = self.rate_counter.n_active
        zscore = (
            self.baseline.rate_profile(span).zscore(float(observed))
            if span > 0
            else 0.0
        )
        self.alarms["latency_ks"].update(ks)
        self.alarms["class_mix"].update(mix)
        self.alarms["request_rate"].update(abs(zscore))
        return DriftReport(
            window_n=n,
            ready=True,
            ks=float(ks),
            mix_distance=float(mix),
            rate=rate,
            rate_zscore=float(zscore),
            alarms={name: a.firing for name, a in self.alarms.items()},
            baseline_source=self.baseline.source,
            baseline_n=int(self.baseline.latencies.size),
            thresholds=self.thresholds.to_dict(),
        )

    # -- snapshots -----------------------------------------------------------

    def state(self) -> dict[str, Any]:
        """Checkpointable window state (the baseline is rebuilt, not saved)."""
        return {
            "kind": "drift-monitor",
            "window_requests": self.window_requests,
            "window": [list(entry) for entry in self.window],
            "rate_counter": self.rate_counter.state(),
            "n_observed": self.n_observed,
            "alarms": {name: a.state() for name, a in self.alarms.items()},
        }

    def restore(self, state: Mapping[str, Any]) -> None:
        """Restore the window/alarm latches saved by :meth:`state`."""
        if state.get("kind") != "drift-monitor":
            raise ValueError(f"not a drift-monitor state: {state.get('kind')!r}")
        if int(state["window_requests"]) != self.window_requests:
            raise ValueError("drift window size changed; discarding state")
        self.window = deque(
            (
                (float(t), float(lat), str(cls_name))
                for t, lat, cls_name in state["window"]
            ),
            maxlen=self.window_requests,
        )
        self.rate_counter = SlidingWindowCounter.from_state(state["rate_counter"])
        self.n_observed = int(state["n_observed"])
        for name, alarm_state in state.get("alarms", {}).items():
            if name in self.alarms:
                self.alarms[name] = Alarm.from_state(alarm_state)
