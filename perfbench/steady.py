"""Steadiness mode: repeat one workload over several seeds and judge
each metric's run-to-run spread against its bound.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --workload pipeline-gfs --runs 10 [--first-seed 1] [--sets 2]

Each run is ``perfbench/run.py`` with its own ``--seed`` and the
``run_seconds`` of ``BENCHMARK.json``.  For every metric it prints the
median, the quartiles (``statistics.quantiles(n=4)``) and the
interquartile distance as a share of the median, next to the bound.
A metric is flagged ``OVER`` when that spread exceeds its bound, and
``WIDE`` when it exceeds a third of it (the target while tuning).
With ``--sets 2`` the runs repeat with the same seeds and the second
set's median is compared with the first; ``WORSE`` flags a metric that
got worse by more than its bound.  ``setup_s`` has no spread limit,
only the median comparison.  Exits non-zero if anything is flagged
``OVER`` or ``WORSE``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.metrics import quartiles, relative_spread  # noqa: E402


def run_set(config: dict, workload: str, seeds: list[int]) -> dict[str, list[float]]:
    values: dict[str, list[float]] = {}
    for seed in seeds:
        argv = [*config["command"], "--workload", workload, "--seed", str(seed),
                "--seconds", str(config["run_seconds"]), "--trace", "0"]
        start = time.perf_counter()
        done = subprocess.run(argv, capture_output=True, text=True)
        elapsed = time.perf_counter() - start
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"{' '.join(argv)} exited {done.returncode}")
        result = json.loads(lines[-1])
        if not result["correct"]:
            raise SystemExit(f"seed {seed}: run reported incorrect output")
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
        print(f"  seed {seed} ({elapsed:.0f} s): " + ", ".join(
            f"{name}={entry['value']:.4g}" for name, entry in result["metrics"].items()
        ), flush=True)
    return values


def report(values: dict[str, list[float]], bounds: dict[str, dict]) -> bool:
    ok = True
    print(f"{'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}  flag")
    for name, samples in values.items():
        q1, q2, q3 = quartiles(samples)
        spread = relative_spread(samples)
        bound = bounds[name]["bound"]
        flag = ""
        if name != "setup_s":
            if spread > bound:
                flag, ok = "OVER", False
            elif spread > bound / 3:
                flag = "WIDE"
        print(f"{name:28} {q2:12.5g} {q1:12.5g} {q3:12.5g} {spread:7.3f} {bound:6.3f}  {flag}")
    return ok


def compare(first: dict, second: dict, bounds: dict[str, dict]) -> bool:
    ok = True
    for name, spec in bounds.items():
        if name not in first:
            continue
        a, b = quartiles(first[name])[1], quartiles(second[name])[1]
        worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
        flag = ""
        if worse > spec["bound"]:
            flag, ok = "WORSE", False
        print(f"{name:28} first {a:12.5g} second {b:12.5g} worse by {worse:+.3f}  {flag}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = parser.parse_args(argv)
    config = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in config["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    ok = True
    sets = []
    for index in range(args.sets):
        print(f"{args.workload}: set {index + 1}, seeds {seeds[0]}..{seeds[-1]}")
        sets.append(run_set(config, args.workload, seeds))
        ok &= report(sets[-1], bounds)
    if len(sets) == 2:
        ok &= compare(sets[0], sets[1], bounds)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
