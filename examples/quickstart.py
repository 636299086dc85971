"""Quickstart: the full KOOZA pipeline in one page.

1. Run a simulated GFS cluster under a mixed workload, collecting
   subsystem traces and Dapper-style spans.
2. Train a KOOZA model (four subsystem models + dependency queue).
3. Generate a synthetic workload from the model.
4. Replay it on the same simulated hardware.
5. Validate: request features and latency, Table-2 style.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    KoozaTrainer,
    ReplayHarness,
    compare_workloads,
    run_gfs_workload,
)


def main() -> None:
    # 1. Collect traces from the "real" application.
    print("collecting traces from the simulated GFS cluster...")
    run = run_gfs_workload(n_requests=2000, seed=7)
    print(f"  traces: {run.traces.summary()}")
    print(f"  throughput: {run.throughput():.1f} req/s")

    # 2. Train KOOZA.
    model = KoozaTrainer().fit(run.traces)
    print(
        f"\ntrained KOOZA on {model.n_training_requests} requests "
        f"({model.n_parameters} transition parameters)"
    )
    print(
        "dependency queue: "
        + " -> ".join(model.dependency_queue.default)
    )

    # 3. Generate a synthetic workload.
    synthetic = model.synthesize(2000, np.random.default_rng(42))
    print(f"\ngenerated {len(synthetic)} synthetic requests")

    # 4. Replay it on the same (simulated) server hardware.
    replayed = ReplayHarness(seed=99).replay(synthetic)

    # 5. Compare original vs synthetic.
    report = compare_workloads(run.traces, replayed)
    print("\nvalidation (paper Table 2 layout):")
    print(report.to_table())
    print(
        f"\nworst feature deviation: "
        f"{report.worst_feature_deviation_pct:.2f}%  "
        f"(paper: <= 1%)"
    )
    print(
        f"worst latency deviation: "
        f"{report.worst_latency_deviation_pct:.2f}%  (paper: <= 6.6%)"
    )


if __name__ == "__main__":
    main()
