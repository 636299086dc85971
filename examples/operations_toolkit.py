"""Operations on a live cluster: profiling, bottlenecks, fault hunting.

The in-depth tooling chapter of the paper (Dapper, GWP) as a working
loop:

1. **GWP-style continuous profiling** — sample every machine while the
   cluster serves traffic; find the hottest device and machine, and
   attribute CPU time to request classes.
2. **Bottleneck identification** — learn per-stage duration profiles
   from span traces; name the stage dominating latency.
3. **Fault hunting** — degrade one chunkserver's disk, rerun, and let
   the anomaly detector localize the fault per-request.

Run:  python examples/operations_toolkit.py
"""

import numpy as np

from repro.datacenter import GfsCluster, GfsSpec, MachineSpec
from repro.datacenter.devices import DiskSpec
from repro.depth import AnomalyDetector
from repro.queueing import PoissonArrivals
from repro.simulation import Environment, RandomStreams
from repro.tracing import ClusterProfiler, Tracer
from repro.workloads import OpenLoopClient, table2_mix


def run_cluster(disk_spec=None, n_requests=1200, seed=5):
    """Serve traffic on a 2-chunkserver cluster, profiled throughout."""
    env = Environment()
    tracer = Tracer()
    streams = RandomStreams(seed)
    cluster = GfsCluster(
        env,
        GfsSpec(chunkservers=2),
        streams,
        tracer,
        MachineSpec(disk=disk_spec) if disk_spec else None,
    )
    # Horizon matched to the traffic (n/rate), so idle tail samples
    # don't dilute the utilization means.
    profiler = ClusterProfiler(
        env, cluster.chunkservers, tracer, interval=0.5,
        horizon=n_requests / 45.0,
    )
    mix = table2_mix(streams.get("mix"))
    client = OpenLoopClient(
        env,
        cluster.client_request,
        mix.make_request,
        PoissonArrivals(45.0, streams.get("arrivals")),
    )
    client.start(n_requests)
    env.run()
    return tracer.traces, profiler


def main() -> None:
    print("serving traffic on a healthy 2-chunkserver cluster...")
    traces, profiler = run_cluster()

    # -- 1. GWP-style profiling -------------------------------------------
    print("\ncontinuous profiling (GWP):")
    for device in ("disk", "cpu", "nic"):
        ranked = profiler.hottest_machines(device, top=1)
        machine, utilization = ranked[0]
        print(f"  hottest {device:>4}: {machine} at "
              f"{utilization * 100:.1f}% mean utilization")
    shares = profiler.cpu_share_by_class()
    print("  CPU time by request class: "
          + ", ".join(f"{cls}={share * 100:.0f}%"
                      for cls, share in sorted(shares.items())))

    # -- 2. bottleneck identification ----------------------------------------
    detector = AnomalyDetector(threshold_sigmas=4.0).fit(traces)
    bottleneck = detector.bottleneck()
    print(f"\nbottleneck stage: {bottleneck.stage} "
          f"(mean {bottleneck.mean * 1e3:.2f} ms/request, "
          f"p99 {bottleneck.p99 * 1e3:.2f} ms)")

    # -- 3. fault hunting -----------------------------------------------------
    print("\ninjecting a fault: chunkserver disks degrade "
          "(4x seeks, write cache dies)...")
    sick_traces, _ = run_cluster(
        disk_spec=DiskSpec(min_seek=1.6e-3, max_seek=32e-3, write_cache=False),
        seed=6,
    )
    judged = detector.judge(sick_traces)
    verdicts = [v for v in judged if v.is_anomalous]
    total = len(judged)
    stages = [v.worst_stage for v in verdicts]
    localized = stages.count("storage") / len(stages) if stages else 0.0
    print(f"  flagged {len(verdicts)}/{total} requests as anomalous")
    print(f"  fault localized to the storage stage in "
          f"{localized * 100:.0f}% of detections")
    worst = max(verdicts, key=lambda v: v.worst_zscore)
    print(f"  worst case: request {worst.trace_id}, storage stage at "
          f"{worst.worst_zscore:.0f} sigma above the healthy profile")


if __name__ == "__main__":
    main()
