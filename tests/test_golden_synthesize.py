"""Golden synthesize digests: model generation is byte-pinned.

``KoozaModel.synthesize`` is the model side's hot path (validate and
plan both call it).  Speeding it up must not change a single draw:
these tests fit small gfs and webapp models under every arrival /
coupling / dependency-queue variant, synthesize 2000 requests from a
fixed seed and compare the sha256 of ``repr(requests)`` against
digests recorded before the sampler caches existed.  Any change to
the order or number of RNG draws, or to the arithmetic that turns
states into stages, fails here.

Regenerate (only when output is *supposed* to change, and say which
Table-2 numbers move) with::

    PYTHONPATH=src python tests/test_golden_synthesize.py --regenerate
"""

from __future__ import annotations

import hashlib
import sys
from functools import lru_cache

import numpy as np
import pytest

from repro.core import KoozaConfig, KoozaTrainer
from repro.datacenter import run_gfs_workload, run_webapp_workload

#: Config variants: name -> KoozaConfig keyword arguments.
CONFIGS = {
    "renewal": {},
    "empirical": dict(arrival_model="empirical"),
    "autocorrelated": dict(arrival_model="autocorrelated"),
    "uncoupled": dict(couple_subsystems=False),
    "no-dependency-queue": dict(use_dependency_queue=False),
}

#: (app, config name) -> sha256 of repr(model.synthesize(2000, rng(42))).
GOLDEN = {
    ("gfs", "renewal"): "6e2b7f8160c31ee087c7164cde486e2ac142ea21acee999904b08d227da99a2b",
    ("gfs", "empirical"): "427fff2813f7e4057b972754252947b1a22811ddb344cbe824a58d8707e11278",
    ("gfs", "autocorrelated"): "6ee9dc65efd669248acec7b2979ede88c85e14c451b7a869381e8f22a7c60a4b",
    ("gfs", "uncoupled"): "5be7c81b08d8a17bb0e70e26f3800b14c205e43a1f21ef0076e0c40a4a238b9f",
    ("gfs", "no-dependency-queue"): "81f25bd65eb4c2195877a508d5d1aeb456bd175c70fd4d8e6b08747d1cba6c77",
    # synthesize walks the flat storage chain even when the hierarchy
    # is fitted, so this pins that it stays equal to the renewal draw.
    ("gfs", "hierarchical"): "6e2b7f8160c31ee087c7164cde486e2ac142ea21acee999904b08d227da99a2b",
    ("webapp", "renewal"): "86fbaef6d0a00ec6bbb0153d65cf1fc22e0d4e6501a09724b43f23ad69b9c6eb",
    ("webapp", "empirical"): "161bc012934a8581c186937cb40e032308a25ffe6dfe1245bdaf662810f3a292",
    ("webapp", "autocorrelated"): "2d475aac1b36b7bd9fef36e474f1c525bf2914fedcec12beb9ef7dddcd7caec8",
    ("webapp", "uncoupled"): "68dd1472a5ad9947a8bd7a982163ed4cc969710122a9587f3cea51eb327eef86",
    ("webapp", "no-dependency-queue"): "aadc07d090adda1f1f7522e98f20c69e69ef27f55acfc853fbcad0cbaa0a9ea2",
}


@lru_cache(maxsize=None)
def traces(app: str):
    """A small, fixed training trace for ``app``."""
    if app == "gfs":
        return run_gfs_workload(n_requests=400, seed=7).traces
    return run_webapp_workload(n_requests=400, seed=7)


def config_for(name: str) -> KoozaConfig:
    if name == "hierarchical":
        return KoozaConfig(hierarchical_storage=True)
    return KoozaConfig(**CONFIGS[name])


def synthesize_digest(app: str, name: str) -> str:
    model = KoozaTrainer(config_for(name)).fit(traces(app))
    requests = model.synthesize(2000, np.random.default_rng(42))
    return hashlib.sha256(repr(requests).encode()).hexdigest()


@pytest.mark.parametrize("app,name", sorted(GOLDEN))
def test_synthesize_matches_golden(app, name):
    assert synthesize_digest(app, name) == GOLDEN[(app, name)], (
        f"{app}/{name}: synthesize output drifted from the pinned draws"
    )


if __name__ == "__main__":
    if "--regenerate" not in sys.argv:
        sys.exit("usage: test_golden_synthesize.py --regenerate")
    for app, name in GOLDEN:
        print(f'    ("{app}", "{name}"): "{synthesize_digest(app, name)}",')
