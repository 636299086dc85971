"""Each command loads only what it runs.

scipy stays off the paths that never fit or test a distribution: it
used to cost every ``repro`` command over a second of start-up and
~60 MB of resident memory before any work.  The package ``__init__``
modules re-export lazily, so importing the CLI loads neither numpy nor
any ``repro`` subpackage, and each command loads only the modules its
handler imports.  Each case runs in a fresh interpreter, because
``sys.modules`` of the test process already holds whatever other tests
imported.  Nothing here is timed; the check is only which modules got
loaded.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.cli import main

SRC = str(Path(repro.__file__).resolve().parents[1])


def _run_fresh(code: str, cwd: Path):
    """Run ``code`` in a fresh interpreter; the JSON its last line prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return json.loads(result.stdout.strip().splitlines()[-1])


def _loaded_modules(code: str, cwd: Path) -> set[str]:
    """Run ``code`` in a fresh interpreter; the modules it loaded."""
    report = "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    return set(_run_fresh(textwrap.dedent(code) + report, cwd))


def _loads_scipy(code: str, cwd: Path) -> bool:
    """Run ``code`` in a fresh interpreter; whether scipy got imported."""
    return "scipy" in _loaded_modules(code, cwd)


def _repro_modules(modules: set[str]) -> set[str]:
    return {m for m in modules if m == "repro" or m.startswith("repro.")}


def test_importing_the_cli_loads_only_the_cli(tmp_path):
    loaded = _loaded_modules("import repro.cli", tmp_path)
    assert _repro_modules(loaded) == {"repro", "repro._version", "repro.cli"}
    assert "numpy" not in loaded
    assert "scipy" not in loaded


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


#: The ``repro`` modules each command loads in a fresh interpreter, on
#: the store and model of the ``pipeline`` fixture.  Before the package
#: ``__init__`` modules became lazy, every command loaded all 102
#: modules of the eager package tree (serve: 109).  A command may load
#: fewer than listed here; one that loads a module not listed has grown
#: a module-level import on its path.
_COMMON = "_version cli snapshot tracing"
COMMAND_MODULES = {
    "collect": """
        datacenter datacenter.devices datacenter.devices.cpu
        datacenter.devices.disk datacenter.devices.memory
        datacenter.devices.nic datacenter.fleet datacenter.gfs
        datacenter.machine datacenter.mapreduce datacenter.session
        datacenter.webapp queueing queueing.arrivals
        simulation simulation.checkpoint simulation.engine
        simulation.parallel simulation.resources simulation.rng store
        store.cache store.manifest store.stitch store.writer
        tracing.codec tracing.columnar tracing.records tracing.source
        tracing.span tracing.store tracing.tracer workloads
        workloads.clients workloads.mixes
    """,
    "characterize": """
        core core.features core.profile core.validation simulation
        simulation.parallel stats stats.burstiness stats.correlation
        stats.distributions stats.selfsim stats.streaming store
        store.analyze store.cache store.manifest store.shards
        store.stitch tracing.codec tracing.columnar tracing.records
        tracing.source tracing.span tracing.store tracing.tracer
    """,
    "train": """
        core core.dependency core.features core.model core.serialize
        core.synthetic core.trainer markov markov.chain
        markov.discretize markov.hierarchical queueing queueing.fitting
        simulation simulation.parallel simulation.rng store store.cache
        store.manifest store.shards store.stitch store.training
        tracing.codec tracing.columnar tracing.records tracing.source
        tracing.span tracing.store tracing.tracer
    """,
    "validate": """
        core core.dependency core.features core.model core.profile
        core.replay core.serialize core.synthetic core.trainer
        core.validation datacenter datacenter.devices
        datacenter.devices.cpu datacenter.devices.disk
        datacenter.devices.memory datacenter.devices.nic
        datacenter.machine markov markov.chain markov.discretize
        markov.hierarchical queueing queueing.fitting simulation
        simulation.engine simulation.parallel simulation.resources
        simulation.rng stats stats.burstiness stats.correlation
        stats.distributions stats.selfsim stats.streaming store
        store.analyze store.cache store.manifest store.shards
        store.stitch store.training tracing.codec tracing.columnar
        tracing.records tracing.source tracing.span tracing.store
        tracing.tracer
    """,
    "plan": """
        core core.dependency core.features core.model core.profile
        core.replay core.serialize core.synthetic core.validation
        datacenter datacenter.devices datacenter.devices.cpu
        datacenter.devices.disk datacenter.devices.memory
        datacenter.devices.nic datacenter.fleet datacenter.gfs
        datacenter.machine datacenter.mapreduce datacenter.session
        datacenter.webapp markov markov.chain markov.discretize
        markov.hierarchical queueing queueing.analytic queueing.arrivals
        queueing.fitting queueing.mva queueing.plan simulation
        simulation.checkpoint simulation.engine simulation.parallel
        simulation.resources simulation.rng stats stats.burstiness
        stats.correlation stats.distributions stats.selfsim
        stats.streaming store store.analyze store.cache store.manifest
        store.shards store.stitch store.training store.writer
        tracing.codec tracing.columnar tracing.records tracing.source
        tracing.span tracing.store tracing.tracer workloads
        workloads.clients workloads.mixes
    """,
    "serve": """
        core core.features core.profile core.validation depth
        depth.anomaly serve serve.daemon serve.drift serve.ingest
        serve.metrics serve.state serve.watcher simulation
        simulation.parallel stats stats.burstiness stats.correlation
        stats.distributions stats.selfsim stats.streaming store
        store.analyze store.cache store.manifest store.shards
        store.stitch store.training store.watch store.writer
        tracing.codec tracing.columnar tracing.records tracing.source
        tracing.span tracing.store tracing.tracer
    """,
}


COMMANDS = {
    "collect": ["collect", "--app", "gfs", "--requests", "200",
                "--replicas", "2", "--workers", "1", "--out", "fresh"],
    "characterize": ["characterize", "--in", "store", "--no-cache"],
    "train": ["train", "--in", "store", "--per-class", "--workers", "1",
              "--no-cache", "--model", "retrained.json"],
    "validate": ["validate", "--in", "store", "--per-class", "--workers", "1",
                 "--no-cache", "--model", "model.json"],
    "plan": ["plan", "--in", "store", "--model", "model.json",
             "--validate-at", "1", "--max-per-class", "64", "--workers", "1",
             "--no-cache"],
}

#: ``repro serve`` as the serve-ingest benchmark starts it, in this
#: process; a client thread answers with the modules loaded once
#: ``/healthz`` answers, and with those first loaded while one ingest
#: round commits and ``/profile`` renders.
SERVE_PROBE = r"""
import contextlib, http.client, io, json, os, re, signal, socket, sys
import threading, time
from pathlib import Path
from repro.cli import main

out = io.StringIO()
report = {}

def port(pattern):
    while True:
        match = re.search(pattern, out.getvalue(), re.M)
        if match:
            return int(match.group(1))
        time.sleep(0.02)

def get(port, path):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    conn.request("GET", path)
    status = conn.getresponse().status
    conn.close()
    return status

def client():
    try:
        http_port = port(r"http://[^:]+:(\d+)")
        ingest_port = port(r"ingest listening on .*?(\d+)\)?$")
        report["healthz"] = get(http_port, "/healthz")
        report["started"] = sorted(sys.modules)
        lines = [
            json.dumps({"stream": path.stem, "record": json.loads(line)})
            for path in sorted(Path("store/shard-00000000").glob("*.jsonl"))
            for line in path.read_text().splitlines()[1:21]
        ]
        sock = socket.create_connection(("127.0.0.1", ingest_port), timeout=60)
        replies = sock.makefile("rb")
        before = set(sys.modules)
        sock.sendall(("\n".join(lines) + '\n{"commit": true}\n').encode())
        report["ack"] = json.loads(replies.readline())
        report["profile"] = get(http_port, "/profile?format=text")
        report["round"] = sorted(set(sys.modules) - before)
        replies.close()
        sock.close()
    finally:
        os.kill(os.getpid(), signal.SIGTERM)

threading.Thread(target=client, daemon=True).start()
with contextlib.redirect_stdout(out):
    main(["serve", "--in", "store", "--port", "0", "--poll-interval", "0",
          "--ingest-port", "0"])
print(json.dumps(report))
"""


def _cli_probe(argv: list[str]) -> str:
    return f"""
    import contextlib, io
    from repro.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            main({argv!r})
        except SystemExit:
            pass
    """


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """A two-replica GFS store and its per-class models."""
    root = tmp_path_factory.mktemp("pipeline")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["collect", "--app", "gfs", "--requests", "200",
                     "--replicas", "2", "--workers", "1",
                     "--out", str(root / "store")]) == 0
        assert main(["train", "--in", str(root / "store"), "--per-class",
                     "--workers", "1", "--no-cache",
                     "--model", str(root / "model.json")]) == 0
    return root


def _allowed(command: str) -> set[str]:
    names = (_COMMON + COMMAND_MODULES[command]).split()
    return {"repro"} | {f"repro.{name}" for name in names}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_a_command_loads_only_its_modules(pipeline, command):
    loaded = _repro_modules(_loaded_modules(_cli_probe(COMMANDS[command]), pipeline))
    assert loaded <= _allowed(command), sorted(loaded - _allowed(command))
    if command == "characterize":
        assert not {m for m in loaded if m.startswith("repro.datacenter")}


def test_serve_loads_only_its_modules_and_nothing_during_rounds(pipeline, tmp_path):
    shutil.copytree(pipeline / "store", tmp_path / "store")
    report = _run_fresh(SERVE_PROBE, tmp_path)
    assert report["healthz"] == 200
    assert report["ack"].get("ok") is True, report["ack"]
    assert report["profile"] == 200
    loaded = _repro_modules(set(report["started"]))
    assert loaded <= _allowed("serve"), sorted(loaded - _allowed("serve"))
    assert not {m for m in loaded if m.startswith("repro.datacenter")}
    # Start-up, cold fold included, is where imports belong: a module
    # first loaded by an ingest round would be timed as serving work.
    assert report["round"] == []
