"""Golden train digests: fitted models are byte-pinned across sources.

``KoozaTrainer.fit`` and ``train_per_class`` accept any trace source —
an in-memory ``TraceSet``, flat jsonl / columnar dumps and shard stores
of every codec and layout.  Whatever path a fit reads its input
through, the model it writes must not change: these tests fit plain
and per-class models over a grid of gfs, webapp and mapreduce sources
and compare the sha256 of ``json.dumps(model_to_dict(model),
sort_keys=True)`` (per class, plus the skipped classes) against
digests recorded before training read stitched columns directly.

Regenerate (only when models are *supposed* to change, and say which
Table-2 numbers move) with::

    PYTHONPATH=src python tests/test_golden_train.py --regenerate
"""

from __future__ import annotations

import atexit
import hashlib
import json
import shutil
import sys
import tempfile
from functools import lru_cache
from pathlib import Path

import pytest

from repro.core import KoozaTrainer, model_to_dict
from repro.datacenter import (
    FleetSpec,
    collect_fleet_to_store,
    run_gfs_workload,
    run_webapp_workload,
)
from repro.store import ShardStore, train_per_class
from repro.tracing import FlatTraceDump, load_traces, save_traces

#: (source, fit) -> sha256 of the fitted model(s).
GOLDEN = {
    ("gfs-traceset", "plain"): "020133f951d9f828fd1c99fc7379b4eaab32123026b694c65931326d661a6f93",
    ("gfs-traceset", "per-class"): "f50917178112c8b78079c9ec2b8c58b207205f42df5779c134fdaf9e4f9b43a9",
    ("gfs-flat-jsonl", "plain"): "020133f951d9f828fd1c99fc7379b4eaab32123026b694c65931326d661a6f93",
    ("gfs-flat-jsonl", "per-class"): "f50917178112c8b78079c9ec2b8c58b207205f42df5779c134fdaf9e4f9b43a9",
    ("gfs-dump-jsonl", "plain"): "020133f951d9f828fd1c99fc7379b4eaab32123026b694c65931326d661a6f93",
    ("gfs-dump-jsonl", "per-class"): "f50917178112c8b78079c9ec2b8c58b207205f42df5779c134fdaf9e4f9b43a9",
    ("gfs-dump-columnar", "plain"): "020133f951d9f828fd1c99fc7379b4eaab32123026b694c65931326d661a6f93",
    ("gfs-dump-columnar", "per-class"): "f50917178112c8b78079c9ec2b8c58b207205f42df5779c134fdaf9e4f9b43a9",
    ("gfs-store-gzip", "plain"): "2353c4f435be07b30c49b9e6aa6fdabc7c84e9de7bf7bb54e3beb51bd561d0f2",
    ("gfs-store-gzip", "per-class"): "2d87908727b442de27574b9f26cfc5b35cf41fdcf303ac8ab1f33750168b3b0e",
    ("gfs-store-columnar", "plain"): "2353c4f435be07b30c49b9e6aa6fdabc7c84e9de7bf7bb54e3beb51bd561d0f2",
    ("gfs-store-columnar", "per-class"): "2d87908727b442de27574b9f26cfc5b35cf41fdcf303ac8ab1f33750168b3b0e",
    ("gfs-store-windowed-appended", "plain"): "a7cb78550287a79977a3e9548853a18e3ddcb68e34310ad11cbbb79b8fbc3ccf",
    ("gfs-store-windowed-appended", "per-class"): "9e5c94a5962d28ff80160ff10376105df2fcf5053175cdbe1de522717f534e1f",
    ("webapp-traceset", "plain"): "bc4b38293da4bfcbf821656b6f2ee1c292f57d92d7d308912bbb660a40367762",
    ("webapp-traceset", "per-class"): "aeb112640606ea4b5a52cf384b67bdb50ca67fe039e043ef6d4aea1f25832d81",
    ("webapp-store", "plain"): "9a9bd4bf85090ade5265c37e9a03ac53cf14a08e935dc3d9e75451768d54c8c6",
    ("webapp-store", "per-class"): "dd2d31828c57d092ad2f6a8d3baf3bb4123c26157da67b1779e3299b91dd5a6f",
    ("gfs-mapreduce-store", "plain"): "2353c4f435be07b30c49b9e6aa6fdabc7c84e9de7bf7bb54e3beb51bd561d0f2",
    ("gfs-mapreduce-store", "per-class"): "8c4272f948aedab26ec0d612858a46024ad36cdca3f5af1d86b07612b875d931",
}

@lru_cache(maxsize=None)
def _root() -> Path:
    """Root of the on-disk sources, created once per process."""
    root = Path(tempfile.mkdtemp(prefix="golden-train-"))
    atexit.register(shutil.rmtree, root, ignore_errors=True)
    return root


@lru_cache(maxsize=None)
def gfs_traces():
    return run_gfs_workload(n_requests=400, seed=7).traces


@lru_cache(maxsize=None)
def webapp_traces():
    return run_webapp_workload(n_requests=400, seed=7)


def _flat(traces, name: str, codec: str) -> Path:
    directory = _root() / name
    if not directory.exists():
        save_traces(traces, directory, codec=codec)
    return directory


def _store(name: str, *rounds: tuple[FleetSpec, dict]) -> Path:
    directory = _root() / name
    if not directory.exists():
        for index, (spec, options) in enumerate(rounds):
            collect_fleet_to_store(
                spec, directory=directory, append=index > 0, **options
            )
    return directory


def _gfs(**kwargs) -> FleetSpec:
    return FleetSpec(app="gfs", replicas=2, seed=5, n_requests=200, **kwargs)


#: Source name -> function returning the trace source it names.
SOURCES = {
    "gfs-traceset": gfs_traces,
    "gfs-flat-jsonl": lambda: load_traces(
        _flat(gfs_traces(), "gfs-flat-jsonl", "jsonl")
    ),
    "gfs-dump-jsonl": lambda: FlatTraceDump(
        _flat(gfs_traces(), "gfs-flat-jsonl", "jsonl")
    ),
    "gfs-dump-columnar": lambda: FlatTraceDump(
        _flat(gfs_traces(), "gfs-flat-columnar", "columnar")
    ),
    "gfs-store-gzip": lambda: ShardStore(
        _store("gfs-store-gzip", (_gfs(), dict(compress=True)))
    ),
    "gfs-store-columnar": lambda: ShardStore(
        _store("gfs-store-columnar", (_gfs(), dict(codec="columnar")))
    ),
    "gfs-store-windowed-appended": lambda: ShardStore(
        _store(
            "gfs-store-windowed-appended",
            (_gfs(), dict(windows=2)),
            (_gfs(), dict(windows=2, codec="columnar")),
        )
    ),
    "webapp-traceset": webapp_traces,
    "webapp-store": lambda: ShardStore(
        _store(
            "webapp-store",
            (FleetSpec(app="webapp", replicas=2, seed=5, n_requests=300), {}),
        )
    ),
    "gfs-mapreduce-store": lambda: ShardStore(
        _store(
            "gfs-mapreduce-store",
            (_gfs(), {}),
            (FleetSpec(app="mapreduce", replicas=2, seed=5, n_requests=1), {}),
        )
    ),
}

FITS = ("plain", "per-class")


def _model_json(model) -> str:
    return json.dumps(model_to_dict(model), sort_keys=True)


def train_digest(source_name: str, fit: str) -> str:
    source = SOURCES[source_name]()
    if fit == "plain":
        text = _model_json(KoozaTrainer().fit(source))
    else:
        result = train_per_class(source)
        text = json.dumps(
            {
                "models": {
                    cls: _model_json(model)
                    for cls, model in sorted(result.models.items())
                },
                "skipped": result.skipped,
            },
            sort_keys=True,
        )
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("source_name,fit", sorted(GOLDEN))
def test_train_matches_golden(source_name, fit):
    assert train_digest(source_name, fit) == GOLDEN[(source_name, fit)], (
        f"{source_name}/{fit}: fitted model drifted from the pinned digest"
    )


if __name__ == "__main__":
    if "--regenerate" not in sys.argv:
        sys.exit("usage: test_golden_train.py --regenerate")
    for source_name in SOURCES:
        for fit in FITS:
            print(
                f'    ("{source_name}", "{fit}"): '
                f'"{train_digest(source_name, fit)}",'
            )
