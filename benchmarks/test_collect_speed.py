"""Bench: collection throughput — the simulation/tracing hot path.

Every number the paper cross-examines is bought with simulation time,
so the collect path (engine kernel + RNG draws + tracer emission +
shard serialization) is measured here end to end: one replica per app
streaming records to an on-disk shard store, exactly what one
``repro collect`` worker executes.

Two metrics per app:

* **records/sec** — trace records serialized to the store per wall
  second.  Each app's record count must equal the pinned baseline's,
  so the work is fixed and this speedup is a wall-time speedup.  Its
  geometric mean is the asserted figure.
* **events/sec** — engine steps retired per wall second, reported but
  not asserted: a change that removes engine events (say, driving a
  device call inline instead of as a child process) lowers it for the
  same work in less time.

The speedup is computed against the *pinned pre-optimization baseline*
in ``benchmarks/baselines/collect_baseline.json``, recorded on the
seed kernel by ``benchmarks/record_collect_baseline.py``.  Because the
baseline was timed on one machine and the bench may run on another,
the pinned rates are first rescaled by the ratio of calibration
scores (a fixed pure-Python workload timed both then and now) — see
docs/performance.md for the methodology.

Results land in ``benchmarks/results/collect_speed.txt`` and — as the
machine-readable record the acceptance criteria name —
``BENCH_collect.json`` at the repository root.
"""

from __future__ import annotations

import heapq
import json
import math
import time
from pathlib import Path

from conftest import save_result

from repro.datacenter.fleet import ReplicaSpec
from repro.datacenter.session import ReplicaSession
from repro.store.writer import ShardWriter, shard_dirname
from repro.tracing import Tracer

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = Path(__file__).resolve().parent / "baselines" / "collect_baseline.json"

#: Asserted floor on the calibration-scaled geometric-mean speedup.
SPEEDUP_FLOOR = 1.5
#: The design target recorded in the payload.
SPEEDUP_TARGET = 3.0

SEED = 7
#: Per-app workload sizes (kept small enough for a CI smoke run).
APP_SIZES = {"gfs": 2000, "webapp": 1500, "mapreduce": 0}


def calibration_score(iterations: int = 6) -> float:
    """Machine-speed score: a fixed interpreter-bound workload, ops/sec.

    Deliberately built from the primitives the collect hot path leans
    on (heap scheduling, generator resumption, dict/attribute traffic)
    but *not* from any repro code, so optimizing the kernel cannot
    inflate the score — it moves only with the machine.
    """

    class Node:
        __slots__ = ("value", "other")

        def __init__(self, value):
            self.value = value
            self.other = None

    def producer(n):
        total = 0
        for i in range(n):
            total += yield i
        return total

    def one_round() -> int:
        ops = 0
        heap: list[tuple[float, int]] = []
        push, pop = heapq.heappush, heapq.heappop
        for i in range(20_000):
            push(heap, ((i * 2654435761) % 1000003 / 1e6, i))
            if i % 3 == 0 and heap:
                pop(heap)
            ops += 1
        gen = producer(20_000)
        next(gen)
        try:
            for i in range(20_000):
                gen.send(i)
                ops += 1
        except StopIteration:
            pass
        table: dict[int, int] = {}
        node = Node(0)
        for i in range(20_000):
            table[i & 1023] = table.get(i & 1023, 0) + 1
            node.value += i
            ops += 1
        return ops

    best = math.inf
    total_ops = one_round()  # warm-up, also fixes the op count
    for _ in range(iterations):
        start = time.perf_counter()
        one_round()
        best = min(best, time.perf_counter() - start)
    return total_ops / best


def _measure_app(app: str, tmp_dir: Path, repeats: int = 2) -> dict:
    """Best-of-N timing of one replica collected straight to a store."""
    n_requests = APP_SIZES[app]
    best = None
    for attempt in range(repeats):
        shard_dir = tmp_dir / f"{app}-{attempt}" / shard_dirname(0)
        writer = ShardWriter(shard_dir, 0, app=app, seed=SEED)
        tracer = Tracer(sample_every=1, sink=writer, keep_records=False)
        spec = ReplicaSpec(
            app=app,
            index=0,
            seed=SEED,
            n_requests=n_requests,
            arrival_rate=25.0 if app == "gfs" else 120.0,
            sample_every=1,
        )
        start = time.perf_counter()
        session = ReplicaSession(spec, tracer=tracer)
        session.run_to_completion()
        tracer.close()
        writer.finalize(duration=session.env.now)
        elapsed = time.perf_counter() - start
        events = session.env.steps
        records = sum(tracer.emitted.values())
        if best is None or elapsed < best["seconds"]:
            best = {
                "n_requests": n_requests,
                "events": events,
                "records": records,
                "seconds": elapsed,
                "events_per_sec": events / elapsed,
                "records_per_sec": records / elapsed,
            }
    return best


def measure_all_apps(tmp_dir: Path | None = None) -> dict[str, dict]:
    """Collect-throughput stats for every standard app."""
    import tempfile

    if tmp_dir is not None:
        return {app: _measure_app(app, tmp_dir) for app in APP_SIZES}
    with tempfile.TemporaryDirectory() as td:
        return {app: _measure_app(app, Path(td)) for app in APP_SIZES}


def test_collect_speed(tmp_path):
    assert BASELINE_PATH.exists(), (
        f"pinned baseline missing: {BASELINE_PATH}; run "
        "benchmarks/record_collect_baseline.py on the pre-optimization kernel"
    )
    baseline = json.loads(BASELINE_PATH.read_text())
    calibration = calibration_score()
    # Rescale the pinned numbers to this machine: a box twice as fast
    # as the recording box should also double the baseline throughput.
    scale = calibration / baseline["calibration_score"]

    apps = measure_all_apps(tmp_path)

    per_app = {}
    speedups_events = []
    speedups_records = []
    for app, stats in apps.items():
        base = baseline["apps"][app]
        # Fixed work: the same records as the baseline, or the rate
        # ratio below is not a wall-time ratio.
        assert stats["records"] == base["records"], (
            f"{app}: collected {stats['records']} records, the pinned "
            f"baseline {base['records']}"
        )
        scaled_events = base["events_per_sec"] * scale
        scaled_records = base["records_per_sec"] * scale
        ev_speedup = stats["events_per_sec"] / scaled_events
        rec_speedup = stats["records_per_sec"] / scaled_records
        speedups_events.append(ev_speedup)
        speedups_records.append(rec_speedup)
        per_app[app] = {
            **stats,
            "baseline_events_per_sec": base["events_per_sec"],
            "baseline_records_per_sec": base["records_per_sec"],
            "scaled_baseline_events_per_sec": scaled_events,
            "scaled_baseline_records_per_sec": scaled_records,
            "events_speedup": ev_speedup,
            "records_speedup": rec_speedup,
        }

    def geomean(values):
        return math.exp(sum(math.log(v) for v in values) / len(values))

    events_geomean = geomean(speedups_events)
    records_geomean = geomean(speedups_records)

    payload = {
        "bench": "collect_speed",
        "seed": SEED,
        "apps": per_app,
        "events_speedup_geomean": events_geomean,
        "records_speedup_geomean": records_geomean,
        "calibration_score": calibration,
        "baseline_calibration_score": baseline["calibration_score"],
        "calibration_scale": scale,
        "speedup_floor": SPEEDUP_FLOOR,
        "speedup_target": SPEEDUP_TARGET,
    }
    (REPO_ROOT / "BENCH_collect.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )

    lines = [
        f"{'app':<10} {'events/s':>12} {'records/s':>12} "
        f"{'ev-speedup':>11} {'rec-speedup':>12}"
    ]
    for app, stats in per_app.items():
        lines.append(
            f"{app:<10} {stats['events_per_sec']:>12.0f} "
            f"{stats['records_per_sec']:>12.0f} "
            f"{stats['events_speedup']:>10.2f}x "
            f"{stats['records_speedup']:>11.2f}x"
        )
    lines.append(
        f"geomean speedup: records {records_geomean:.2f}x "
        f"(asserted floor {SPEEDUP_FLOOR}x, target {SPEEDUP_TARGET}x), "
        f"events {events_geomean:.2f}x (reported only), "
        f"calibration scale {scale:.2f}"
    )
    save_result("collect_speed", "\n".join(lines))

    assert records_geomean >= SPEEDUP_FLOOR, (
        f"collect records/sec geomean speedup {records_geomean:.2f}x fell "
        f"below the asserted floor {SPEEDUP_FLOOR}x "
        f"(per-app: { {a: round(s['records_speedup'], 2) for a, s in per_app.items()} })"
    )
