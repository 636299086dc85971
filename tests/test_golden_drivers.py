"""Golden driver digests: the one-call workload drivers are byte-pinned.

``run_gfs_workload``, ``run_webapp_workload`` and ``run_mapreduce_jobs``
are what the benches, examples and a flat ``repro collect`` run.  These
tests drive each one with its defaults and with every override a caller
sets, then compare the sha256 of ``repr`` over all six trace streams
against digests recorded before the drivers moved into
``repro.datacenter.session``.  The flat (storeless) ``repro collect``
output is pinned file by file the same way, as is ``GfsRun.throughput``
with a warm-up window.  Any change to component wiring order, RNG
substream names or default rates fails here.

Regenerate (only when output is *supposed* to change) with::

    PYTHONPATH=src python -m tests.test_golden_drivers --regenerate
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.datacenter import (
    GfsSpec,
    MachineSpec,
    MapReduceJob,
    MapReduceSpec,
    run_gfs_workload,
    run_mapreduce_jobs,
    run_webapp_workload,
)
from repro.datacenter.devices import CpuSpec
from repro.queueing import BModelArrivals
from repro.tracing.tracer import STREAM_NAMES
from repro.workloads import web_serving_mix


def _traces_digest(traces) -> str:
    digest = hashlib.sha256()
    for stream in STREAM_NAMES:
        digest.update(repr(getattr(traces, stream)).encode())
    return digest.hexdigest()


def _gfs(**overrides):
    return run_gfs_workload(**{"n_requests": 300, "seed": 4, **overrides})


#: case -> zero-argument callable returning the TraceSet to digest.
DRIVERS = {
    "gfs-defaults": lambda: run_gfs_workload().traces,
    "gfs-gfs_spec": lambda: _gfs(gfs_spec=GfsSpec(chunkservers=2)).traces,
    "gfs-machine_spec": lambda: _gfs(
        machine_spec=MachineSpec(cpu=CpuSpec(cores=2))
    ).traces,
    "gfs-arrivals": lambda: _gfs(
        arrivals=BModelArrivals(25.0, np.random.default_rng(3), bias=0.8)
    ).traces,
    "gfs-mix_factory": lambda: _gfs(mix_factory=web_serving_mix).traces,
    "gfs-sample_every": lambda: _gfs(sample_every=7).traces,
    "webapp-defaults": lambda: run_webapp_workload(),
    "webapp-arrival_rate": lambda: run_webapp_workload(
        n_requests=400, seed=3, arrival_rate=80.0
    ),
    "mapreduce-defaults": lambda: run_mapreduce_jobs()[0],
    "mapreduce-jobs-spec": lambda: run_mapreduce_jobs(
        jobs=[
            MapReduceJob("a", 64 * 1024 * 1024, n_map=3, n_reduce=2),
            MapReduceJob("b", 32 * 1024 * 1024, n_map=2, n_reduce=1),
        ],
        seed=5,
        spec=MapReduceSpec(workers=2),
    )[0],
}

GOLDEN = {
    "gfs-arrivals": "4030010b928829365272da413c978b2fc854abceb2529a89349ab8f75e1835e2",
    "gfs-defaults": "7d7f705a139661089421eeb85085caa2c788a6ae21ebe9466b98ffae16dc2ea3",
    "gfs-gfs_spec": "7186446951e312b5cb149f4399cce00ffbd28aca879ec2365adece87e780ab04",
    "gfs-machine_spec": "92326a89c8de90f75de905c3ae1d526b78f0a28fcd6acc7584ee8f6fe3992ad3",
    "gfs-mix_factory": "83e07e62be0a735396dc26a6f9c62858712cd20acaec7b623a2f52e4c5ca7ade",
    "gfs-sample_every": "082de9dd2bfe2d169385eca2d075531e738041809f9a69e824219050600e5183",
    "mapreduce-defaults": "ba8a630bc39429e32aaca5e921900d2c75bfe6c4e7ab22bbe83386c9c8d329a6",
    "mapreduce-jobs-spec": "7f693175b5aac4710454fa642d5957365ca8005fbde02bf2bd0b3f5897a10667",
    "webapp-arrival_rate": "ce928db08dbc7bd17602df9c02edcd022ce0f365fb8b529c069c6389de53d068",
    "webapp-defaults": "2df3655f0ee903ce6ee955cb03d79bf45592b328dacbd019d3298c1840453801",
}

#: repr of ``GfsRun.throughput()`` after a 2 s warm-up window.
GOLDEN_THROUGHPUT = '24.12443244729569'

#: app -> sha256 over (name, bytes) of every file a flat collect writes.
GOLDEN_COLLECT = {
    "gfs": "91827f51fe414da0dc8c3b27e1d122d0131cb3b665fac4433afa84e7d0506c77",
    "mapreduce": "435ad6f4a8d61f09496e6c6b5873eb7295c9dc97bf2bfcddebe8b0ba8288650e",
    "webapp": "574c58fba6dabed180574a4d5892973103c3b47e870bb0c5b377a6a55fcc1f78",
}


@lru_cache(maxsize=None)
def driver_digest(case: str) -> str:
    return _traces_digest(DRIVERS[case]())


def settled_throughput() -> str:
    return repr(_gfs(settle_time=2.0).throughput())


@lru_cache(maxsize=None)
def collect_digest(app: str) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "traces"
        code = main(
            ["collect", "--app", app, "--requests", "300", "--seed", "6",
             "--out", str(out)]
        )
        assert code == 0
        digest = hashlib.sha256()
        for path in sorted(out.rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(out)).encode())
                digest.update(path.read_bytes())
        return digest.hexdigest()


@pytest.mark.parametrize("case", sorted(DRIVERS))
def test_driver_matches_golden(case):
    assert driver_digest(case) == GOLDEN[case], (
        f"{case}: driver trace streams drifted from the pinned run"
    )


def test_gfs_settled_throughput_matches_golden():
    assert settled_throughput() == GOLDEN_THROUGHPUT


@pytest.mark.parametrize("app", ["gfs", "mapreduce", "webapp"])
def test_flat_collect_matches_golden(app, capsys):
    assert collect_digest(app) == GOLDEN_COLLECT[app], (
        f"{app}: flat repro collect output drifted from the pinned files"
    )


if __name__ == "__main__":
    if "--regenerate" not in sys.argv:
        sys.exit("usage: test_golden_drivers.py --regenerate")
    print("GOLDEN = {")
    for case in DRIVERS:
        print(f'    "{case}": "{driver_digest(case)}",')
    print("}")
    print(f"GOLDEN_THROUGHPUT = {settled_throughput()!r}")
    print("GOLDEN_COLLECT = {")
    for app in ("gfs", "mapreduce", "webapp"):
        print(f'    "{app}": "{collect_digest(app)}",')
    print("}")
