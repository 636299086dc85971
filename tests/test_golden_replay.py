"""Golden replay digests: the replay harness is byte-pinned.

Validation (§4) replays synthetic requests on the device models the
original application ran on, so the replay must stay exactly the
simulation it validates against.  These tests fit the gfs and webapp
renewal models of ``test_golden_synthesize``, synthesize 2000 requests
from a fixed seed, replay them and compare the sha256 of ``repr`` over
all six trace streams against digests recorded while every device
stage still ran as its own engine process.  Any change to the order or
timing of device events fails here.

The engine step count of each replay is pinned too: device calls are
driven inline, so a child process per stage that creeps back shows up
as extra steps even when the trace bytes stay equal.

Regenerate (only when output is *supposed* to change) with::

    PYTHONPATH=src python -m tests.test_golden_replay --regenerate
"""

from __future__ import annotations

import hashlib
import sys
from functools import lru_cache

import numpy as np
import pytest

from repro.core import KoozaConfig, KoozaTrainer, ReplayHarness
from repro.tracing.tracer import STREAM_NAMES

from tests.test_golden_synthesize import traces

#: app -> (sha256 over repr of the six replay streams, engine steps).
GOLDEN = {
    "gfs": ("e1eb8539ed0901e22bd6761ae29480a136de8e38ddc941d0647c188cb8133eba", 30002),
    "webapp": ("5d334777cf98dbe6a4695f7f8dd2abfac2b836ba0d1b434cb29672d5b63d2fb3", 62002),
}


@lru_cache(maxsize=None)
def replay(app: str) -> tuple[str, int]:
    model = KoozaTrainer(KoozaConfig()).fit(traces(app))
    requests = model.synthesize(2000, np.random.default_rng(42))
    harness = ReplayHarness(seed=99)
    replayed = harness.replay(requests)
    digest = hashlib.sha256()
    for stream in STREAM_NAMES:
        digest.update(repr(getattr(replayed, stream)).encode())
    return digest.hexdigest(), harness.machines[0].env.steps


@pytest.mark.parametrize("app", sorted(GOLDEN))
def test_replay_matches_golden(app):
    assert replay(app)[0] == GOLDEN[app][0], (
        f"{app}: replay trace streams drifted from the pinned events"
    )


@pytest.mark.parametrize("app", sorted(GOLDEN))
def test_replay_engine_steps_pinned(app):
    assert replay(app)[1] == GOLDEN[app][1], (
        f"{app}: replay took {replay(app)[1]} engine steps, "
        f"pinned {GOLDEN[app][1]}"
    )


if __name__ == "__main__":
    if "--regenerate" not in sys.argv:
        sys.exit("usage: test_golden_replay.py --regenerate")
    for app in GOLDEN:
        print(f'    "{app}": {replay(app)!r},')
