"""Benchmark command: one workload, one seed, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload pipeline-gfs --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs traced
and untraced passes alternately and prints the per-layer metrics and
the tracing overhead.  The last line of stdout is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the exit code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

if __package__ in (None, ""):
    # Run as a script: make the ``perfbench`` package importable.
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.harness import Run, warm_up  # noqa: E402
from perfbench.metrics import check_name  # noqa: E402
from perfbench.pipeline import run_collect_webapp, run_pipeline_gfs  # noqa: E402
from perfbench.serve_ingest import run_serve_ingest  # noqa: E402

#: Seed used when ``--seed`` is not given.
DEFAULT_SEED = 1

WORK_DIR = ".perfbench_work"
MANIFEST = "BENCHMARK.json"

WORKLOADS = {
    "pipeline-gfs": run_pipeline_gfs,
    "collect-webapp": run_collect_webapp,
    "serve-ingest": run_serve_ingest,
}


def manifest_names(root: Path, trace: bool) -> set[str]:
    """Names of the metrics a run must print: every ``per_layer`` metric
    of the manifest with ``--trace 1``, every ``end_to_end`` one without."""
    config = json.loads((root / MANIFEST).read_text())
    return {entry["name"] for entry in config["per_layer" if trace else "end_to_end"]}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="how long the timed passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("run from the root of a repro checkout (no src/repro here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import repro

    if Path(repro.__file__).resolve().parent != (root / "src" / "repro").resolve():
        print(f"imported repro from {repro.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    expected = manifest_names(root, bool(args.trace))
    work = root / WORK_DIR / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tempfile.tempdir = str(work)
    run = Run(root=root, work=work, seed=args.seed, seconds=args.seconds,
              trace=bool(args.trace))
    try:
        warm_up(run)
        metrics = WORKLOADS[args.workload](run)
    except Exception:  # noqa: BLE001 - report, print no result line
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / WORK_DIR).rmdir()
        except OSError:
            pass  # another run still uses it
    for name in metrics:
        check_name(name)
    if set(metrics) != expected:
        print(f"metrics {sorted(set(metrics) ^ expected)} differ between the "
              f"result and {MANIFEST}", file=sys.stderr)
        return 1
    correct = run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
