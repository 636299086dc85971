"""Golden plan digests: `repro plan --validate-at` output is byte-pinned.

`repro plan` fits a cluster model from a shard store, sweeps the load
grid and cross-validates chosen multipliers by simulation.  Whatever
path the cross-validation takes to its simulated mean latency, the
printed report must not change: these tests run the CLI over a gfs and
a webapp store (2 replicas x 200 requests) and over a bare per-class
model file trained from the gfs store, with ``--validate-at 1,2``, as
text and as ``--json``, and at ``--workers 1`` and ``2``, and compare
the sha256 of stdout against digests recorded while each validation
point still collected its fleet to a temporary store and
characterized it.

Regenerate (only when plan output is *supposed* to change, and say
which figures move) with::

    PYTHONPATH=src python tests/test_golden_plan.py --regenerate
"""

from __future__ import annotations

import atexit
import contextlib
import hashlib
import io
import shutil
import sys
import tempfile
from functools import lru_cache
from pathlib import Path

import pytest

from repro.cli import main
from repro.datacenter import FleetSpec, collect_fleet_to_store
from repro.store import ShardStore, save_per_class_models, train_per_class

#: (input, output, workers) -> sha256 of `repro plan` stdout.
GOLDEN = {
    ("gfs-store", "text", 1): "822a9ff8342f7546d9c5fe2c18fc3a7f9598d1d81e746a25fac5304cc3d8eaba",
    ("gfs-store", "json", 1): "33c8a67037ced65092305f3ae640ca1a09202deedacf7adaf3ff5718aad7b072",
    ("webapp-store", "text", 1): "a6195865e840193fbd9aa74836b7341a449721cecb80e3c53ae8f5c1255633fc",
    ("webapp-store", "json", 1): "7d1b7ba7408cd9562b12071e322629f07e99f4061890decece4e4db4782dfa9b",
    ("gfs-model", "text", 1): "551f1a2d52a3e4dd41ad77e9e08a1b72f10b09a0cd437a6ea946da1c21767d02",
    ("gfs-model", "json", 1): "15702332c19aaea4a7bbd9e9d955967abe967e0f57cdbf49e1da8742cb077a9a",
    ("gfs-store", "text", 2): "822a9ff8342f7546d9c5fe2c18fc3a7f9598d1d81e746a25fac5304cc3d8eaba",
    ("gfs-store", "json", 2): "33c8a67037ced65092305f3ae640ca1a09202deedacf7adaf3ff5718aad7b072",
}

INPUTS = ("gfs-store", "webapp-store", "gfs-model")
OUTPUTS = ("text", "json")
CASES = [
    (name, output, 1) for name in INPUTS for output in OUTPUTS
] + [("gfs-store", "text", 2), ("gfs-store", "json", 2)]


@lru_cache(maxsize=None)
def _root() -> Path:
    """Root of the on-disk inputs, created once per process."""
    root = Path(tempfile.mkdtemp(prefix="golden-plan-"))
    atexit.register(shutil.rmtree, root, ignore_errors=True)
    return root


@lru_cache(maxsize=None)
def _store(app: str) -> Path:
    """A 2-replica x 200-request store of ``app``, collected once."""
    directory = _root() / app
    spec = FleetSpec(app=app, replicas=2, seed=42, n_requests=200)
    collect_fleet_to_store(spec, directory=directory, workers=1)
    return directory


@lru_cache(maxsize=None)
def _model() -> Path:
    """Per-class models trained from the gfs store, saved as one file."""
    path = _root() / "gfs-model.json"
    save_per_class_models(train_per_class(ShardStore(_store("gfs"))).models, path)
    return path


def _input_args(name: str) -> list[str]:
    if name == "gfs-model":
        return ["--in", str(_model()), "--rate", "25", "--app", "gfs"]
    return ["--in", str(_store(name.split("-")[0]))]


def plan_stdout(name: str, output: str, workers: int) -> str:
    argv = [
        "plan", *_input_args(name),
        "--scale", "0.5:10:5",
        "--validate-at", "1,2",
        "--validate-requests", "200",
        "--max-per-class", "64",
        "--workers", str(workers),
    ]
    if output == "json":
        argv.append("--json")
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main(argv) == 0
    return buffer.getvalue()


def plan_digest(name: str, output: str, workers: int) -> str:
    return hashlib.sha256(
        plan_stdout(name, output, workers).encode()
    ).hexdigest()


@pytest.mark.parametrize("name,output,workers", CASES)
def test_plan_matches_golden(name, output, workers):
    assert plan_digest(name, output, workers) == GOLDEN[(name, output, workers)], (
        f"{name}/{output}/workers={workers}: plan output drifted from the "
        "pinned digest"
    )


if __name__ == "__main__":
    if "--regenerate" not in sys.argv:
        sys.exit("usage: test_golden_plan.py --regenerate")
    for case in CASES:
        name, output, workers = case
        print(
            f'    ("{name}", "{output}", {workers}): '
            f'"{plan_digest(*case)}",'
        )
