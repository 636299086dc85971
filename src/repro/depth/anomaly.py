"""Bottleneck and anomaly detection from request traces.

The paper's Table-1 argument for in-depth data: "studies that involve
identifying performance bottlenecks for a specific job, performing
error detection or sophisticated job mapping are only possible with an
in-depth modeling scheme."  This module implements both studies on
the span traces of any :class:`~repro.tracing.TraceSource`, read as
per-stage durations from the span columns:

* :class:`StageProfile` — per-stage duration statistics learned from
  healthy traces;
* :class:`AnomalyDetector` — flags requests whose per-stage durations
  deviate, and names the stage (the bottleneck) responsible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..tracing import TraceSource, source_columns

__all__ = ["AnomalyDetector", "AnomalyVerdict", "StageProfile", "stage_durations"]


def stage_durations(source: TraceSource) -> list[tuple[int, dict[str, float]]]:
    """Each traced request's per-stage durations, in trace id order:
    its spans' durations summed by name in depth-first preorder
    (:func:`repro.core.trace_walks`), the root span left out."""
    # Imported here: `repro serve` loads this module for StageProfile
    # and must not pay for the span walk at start-up.
    from ..core.dependency import WALK_COLUMNS, trace_walks

    totals = []
    for trace_id, names, durations in trace_walks(
        source_columns(source, "spans", WALK_COLUMNS)
    ):
        stages: dict[str, float] = {}
        for name, duration in zip(names[1:], durations[1:]):
            stages[name] = stages.get(name, 0.0) + duration
        totals.append((trace_id, stages))
    return totals


@dataclass(frozen=True)
class StageProfile:
    """Duration statistics of one stage across healthy requests."""

    stage: str
    count: int
    mean: float
    std: float
    p99: float

    def zscore(self, duration: float) -> float:
        if self.std <= 0:
            return 0.0 if duration == self.mean else float("inf")
        return (duration - self.mean) / self.std


@dataclass(frozen=True)
class AnomalyVerdict:
    """Judgement on one request."""

    trace_id: int
    is_anomalous: bool
    worst_stage: Optional[str]
    worst_zscore: float
    stage_durations: dict[str, float]


class AnomalyDetector:
    """Per-stage duration model + z-score anomaly flagging."""

    def __init__(self, threshold_sigmas: float = 4.0):
        if threshold_sigmas <= 0:
            raise ValueError(
                f"threshold must be > 0 sigmas, got {threshold_sigmas}"
            )
        self.threshold_sigmas = threshold_sigmas
        self.profiles: dict[str, StageProfile] = {}

    def fit(self, source: TraceSource) -> "AnomalyDetector":
        """Learn healthy per-stage statistics from a source's span traces."""
        traces = stage_durations(source)
        if not traces:
            raise ValueError("no span traces to fit on")
        samples: dict[str, list[float]] = {}
        for _, durations in traces:
            for stage, duration in durations.items():
                samples.setdefault(stage, []).append(duration)
        self.profiles = {
            stage: StageProfile(
                stage=stage,
                count=len(values),
                mean=float(np.mean(values)),
                std=float(np.std(values)),
                p99=float(np.percentile(values, 99)),
            )
            for stage, values in samples.items()
        }
        return self

    def _check_fitted(self) -> None:
        if not self.profiles:
            raise RuntimeError("detector is not fitted; call fit() first")

    def judge(self, source: TraceSource) -> list[AnomalyVerdict]:
        """Score every traced request, in trace id order; a verdict's
        worst-deviating stage is the suspect."""
        self._check_fitted()
        verdicts = []
        for trace_id, durations in stage_durations(source):
            worst_stage = None
            worst_z = 0.0
            for stage, duration in durations.items():
                profile = self.profiles.get(stage)
                if profile is None:
                    continue  # stage unseen in training: cannot judge it
                z = profile.zscore(duration)
                if z > worst_z:
                    worst_z = z
                    worst_stage = stage
            verdicts.append(AnomalyVerdict(
                trace_id=trace_id,
                is_anomalous=worst_z > self.threshold_sigmas,
                worst_stage=worst_stage,
                worst_zscore=worst_z,
                stage_durations=durations,
            ))
        return verdicts

    def scan(self, source: TraceSource) -> list[AnomalyVerdict]:
        """Judge a source's requests; returns only the anomalous verdicts."""
        return [v for v in self.judge(source) if v.is_anomalous]

    def bottleneck(self) -> StageProfile:
        """The stage with the largest mean duration (the hot spot)."""
        self._check_fitted()
        return max(self.profiles.values(), key=lambda p: p.mean)
