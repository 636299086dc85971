"""scipy stays off the paths that never fit or test a distribution.

Importing the CLI, a serve drift check and a collect + characterize run
must not load scipy: it used to cost every ``repro`` command over a
second of start-up and ~60 MB of resident memory before any work.
Each case runs in a fresh interpreter, because ``sys.modules`` of the
test process already holds whatever other tests imported.  Nothing
here is timed; the check is only which modules got loaded.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])


def _loads_scipy(code: str, cwd: Path) -> bool:
    """Run ``code`` in a fresh interpreter; whether scipy got imported."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    probe = textwrap.dedent(code) + "\nimport sys\nprint('scipy' in sys.modules)\n"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    verdict = result.stdout.strip().splitlines()[-1]
    assert verdict in ("True", "False"), result.stdout
    return verdict == "True"


def test_importing_the_cli_loads_no_scipy(tmp_path):
    assert not _loads_scipy("import repro.cli", tmp_path)


def test_drift_checks_load_no_scipy(tmp_path):
    code = """
    import numpy as np
    from repro.datacenter import run_webapp_workload
    from repro.serve import DriftBaseline, DriftMonitor

    requests = [
        r for r in run_webapp_workload(n_requests=200, seed=3).requests
        if r.completion_time > r.arrival_time
    ]
    classes = sorted({r.request_class for r in requests})
    baseline = DriftBaseline(
        latencies=np.array([r.latency for r in requests[:100]]),
        mix={c: 1 / len(classes) for c in classes},
        mean_rate=120.0,
    )
    monitor = DriftMonitor(baseline, window_requests=64)
    for record in requests[100:]:
        monitor.observe(record)
    assert len(monitor.window) == 64
    assert monitor.check().ready
    assert monitor.check().ready
    """
    assert not _loads_scipy(code, tmp_path)


def test_collect_and_characterize_load_no_scipy(tmp_path):
    code = """
    from repro.cli import main

    assert main(["collect", "--app", "webapp", "--requests", "200",
                 "--replicas", "2", "--workers", "1", "--out", "store"]) == 0
    assert main(["characterize", "--in", "store", "--no-cache"]) == 0
    """
    assert not _loads_scipy(code, tmp_path)
