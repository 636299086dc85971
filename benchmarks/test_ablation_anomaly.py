"""A13 — in-depth-only studies: bottleneck and error detection.

Table 1's sharpest argument for request-level tracing: "studies that
involve identifying performance bottlenecks for a specific job,
performing error detection ... are only possible with an in-depth
modeling scheme."  We degrade one device (a sick disk) and measure
whether span-level data localizes the fault — and confirm the
subsystem-marginal (in-breadth) view of the same incident is far
weaker evidence.
"""

import numpy as np

from conftest import save_result

from repro.datacenter import MachineSpec, run_gfs_workload
from repro.datacenter.devices import DiskSpec
from repro.depth import AnomalyDetector
from repro.stats import ks_two_sample

HEALTHY_DISK = DiskSpec()
SICK_DISK = DiskSpec(min_seek=1.6e-3, max_seek=32e-3, write_cache=False)


def _traces(disk, seed):
    return run_gfs_workload(
        n_requests=600, seed=seed, machine_spec=MachineSpec(disk=disk)
    ).traces


def test_ablation_anomaly_detection(benchmark):
    def run_study():
        healthy = _traces(HEALTHY_DISK, seed=81)
        degraded = _traces(SICK_DISK, seed=82)
        detector = AnomalyDetector(threshold_sigmas=4.0).fit(healthy)
        false_alarms = detector.scan(healthy)
        detections = detector.scan(degraded)
        return healthy, degraded, detector, false_alarms, detections

    healthy, degraded, detector, false_alarms, detections = (
        benchmark.pedantic(run_study, rounds=1, iterations=1)
    )
    detection_rate = len(detections) / len(detector.judge(degraded))
    false_rate = len(false_alarms) / len(detector.judge(healthy))
    suspects = [v.worst_stage for v in detections]
    localized = (
        suspects.count("storage") / len(suspects) if suspects else 0.0
    )

    # The in-breadth view of the same incident: whole-run latency
    # distributions differ, but nothing localizes the fault.
    healthy_latencies = [r.latency for r in healthy.completed_requests()]
    degraded_latencies = [r.latency for r in degraded.completed_requests()]
    ks, _ = ks_two_sample(healthy_latencies, degraded_latencies)

    lines = [
        "A13: error detection & fault localization from span traces",
        f"degraded device: disk (4x seeks, write cache off)",
        f"  per-request detection rate : {detection_rate * 100:5.1f}%",
        f"  false-alarm rate (healthy) : {false_rate * 100:5.1f}%",
        f"  fault localized to storage : {localized * 100:5.1f}% of detections",
        f"  learned bottleneck stage   : {detector.bottleneck().stage}",
        "",
        "in-breadth view of the same incident (aggregate only):",
        f"  latency-distribution KS = {ks:.2f} — detects *something* changed,",
        "  but carries no per-stage signal to localize the fault.",
    ]
    save_result("ablation_a13_anomaly", "\n".join(lines))

    assert detection_rate > 0.2
    assert false_rate < 0.05
    assert localized > 0.8
