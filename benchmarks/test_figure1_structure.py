"""Figure 1 — the GFS structure diagram for a user request.

The paper's Figure 1 shows a request flowing Network -> CPU (+Memory)
-> Disk -> CPU -> Network through a chunkserver.  This bench verifies
the reproduction recovers exactly that structure from Dapper-style
span traces — the input to KOOZA's time-dependency queue — and that
the recovery is robust to trace sampling.
"""

from conftest import save_result

from repro.core import mine_dependency_queue, stage_sequences
from repro.datacenter import run_gfs_workload
from repro.depth.anomaly import stage_durations
from repro.tracing import source_columns

#: Figure 1's stage order, with CPU/memory expanded to this
#: repository's span names.
FIGURE1 = (
    "network_rx",
    "cpu_lookup",
    "memory",
    "storage",
    "cpu_aggregate",
    "network_tx",
)


def _mine(traces):
    sequences = stage_sequences(source_columns(traces, "spans"))
    return sequences, mine_dependency_queue(sequences)


def test_figure1_structure_recovery(benchmark, gfs_run):
    sequences, queue = benchmark(_mine, gfs_run.traces)
    lines = [
        "Figure 1: GFS structure for one user request",
        "paper   : Network -> CPU -> Memory -> Disk -> CPU -> Network",
        "recovered: " + " -> ".join(queue.default),
        f"mined from {len(sequences)} traced requests",
    ]
    save_result("figure1_structure", "\n".join(lines))
    assert queue.default == FIGURE1


def test_figure1_stable_under_sampling(benchmark):
    """Dapper samples 1/1000 requests; structure must still be found."""

    def mine_sampled():
        run = run_gfs_workload(n_requests=3000, seed=17, sample_every=100)
        return run, _mine(run.traces)[1]

    run, queue = benchmark.pedantic(mine_sampled, rounds=1, iterations=1)
    assert len(run.traces.spans) < len(run.traces.requests) * 7 / 10
    assert queue.default == FIGURE1


def test_figure1_request_latency_decomposition(benchmark, gfs_run):
    """The storage stage dominates request latency (why Figure 1's
    disk box is the heart of the chunkserver)."""

    def decompose():
        totals: dict[str, float] = {}
        for _, stages in stage_durations(gfs_run.traces):
            for name, duration in stages.items():
                totals[name] = totals.get(name, 0.0) + duration
        return totals

    totals = benchmark(decompose)
    data_path = {k: v for k, v in totals.items() if k != "master_lookup"}
    dominant = max(data_path, key=data_path.get)
    lines = ["Per-stage time share across all requests:"]
    total = sum(data_path.values())
    for name, value in sorted(data_path.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {name:>14}: {value / total * 100:5.1f}%")
    save_result("figure1_decomposition", "\n".join(lines))
    assert dominant in ("storage", "network_rx")
