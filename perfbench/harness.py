"""What every workload shares: the run context, in-process CLI calls,
the warm-up, set-up timing and the timed pass loop."""

from __future__ import annotations

import contextlib
import io
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

#: Fresh interpreters timed for ``setup_s`` (the median is reported).
SETUP_SAMPLES = 5

#: Seconds of busy work before any timing.  The vCPUs change speed
#: with the host's load: after idle they run fast for a few seconds,
#: then settle ~30% slower under sustained load.
WARM_UP_SECONDS = 5.0

#: Inputs a traced run always measures, each untraced and traced.
TRACED_MIN_INPUTS = 2

#: What one calibration loop takes at the reference machine speed.
#: Every reported time is in reference seconds (see :class:`SpeedScale`).
REFERENCE_SECONDS = 0.010


@dataclass
class Run:
    """One benchmark invocation: where it works and what it counted."""

    root: Path
    work: Path
    seed: int
    seconds: float
    trace: bool
    attempted: int = 0
    failed: int = 0

    def check(self, ok: bool, what: str) -> None:
        """Count one operation; report it as failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr, flush=True)

    def child_env(self) -> dict[str, str]:
        """Environment for child interpreters: the checkout's ``src``
        first on the path, temporary files inside the work directory."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        env["TMPDIR"] = str(self.work)
        return env

    def pass_seed(self, index: int) -> int:
        """Input seed of pass ``index``: every pass of a run sees a
        different input, all derived from the run's seed."""
        return self.seed * 1000 + index


def _calibration_body() -> None:
    table = {}
    for i in range(6000):
        table[f"k{i}"] = i * 0.5
    total = 0.0
    for key, value in table.items():
        total += len(key) * value
    ordered = sorted(table.values(), reverse=True)
    bits = 0
    for i in range(60_000):
        bits ^= i * i
    if total < 0 or not ordered or bits < 0:
        raise AssertionError("unreachable")


def calibration_loop(repeats: int = 3) -> float:
    """Seconds a fixed interpreter-bound loop takes right now (median
    of ``repeats``, ~10 ms each).

    Dict, string, float, sort and integer work like the program's own,
    but no repro code, so a change to the program cannot move it: it
    moves only with the machine.
    """
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        _calibration_body()
        samples.append(time.perf_counter() - start)
    return sorted(samples)[repeats // 2]


class SpeedScale:
    """Rescales measured times to reference seconds.

    The host's vCPUs drift by +-20% over seconds to minutes, which no
    number of passes inside one run averages out.  So the calibration
    loop runs between the timed blocks of a pass (before, between and
    after its commands), and every time in the pass is multiplied by
    ``REFERENCE_SECONDS / median(loop times)``: the time the pass would
    have taken at the reference speed.  The median over a whole pass
    follows the drift without adding one loop's jitter to each block.
    """

    def __init__(self) -> None:
        self.factors: list[float] = []
        self.loops: list[float] = []

    def sample(self) -> None:
        """Time the calibration loop once, between two timed blocks."""
        self.loops.append(calibration_loop())

    def close(self) -> float:
        """The factor for everything timed since the last close."""
        factor = REFERENCE_SECONDS / statistics.median(self.loops)
        self.loops = []
        self.factors.append(factor)
        return factor


def repro_cli(run: Run, argv: list) -> tuple[float, str]:
    """Run ``repro.cli.main(argv)`` in this process.

    Returns (seconds, stdout).  A non-zero exit counts as a failed
    operation.
    """
    from repro.cli import main

    argv = [str(arg) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = exit_.code if isinstance(exit_.code, int) else 1
        elapsed = time.perf_counter() - start
    run.check(code == 0, f"repro {' '.join(argv)} exited {code}: {err.getvalue()[-400:]}")
    return elapsed, out.getvalue()


def verify_store(run: Run, store: Path) -> None:
    """Check a store's content hashes against its manifests."""
    from repro.store import ShardStore

    bad = ShardStore(store).verify()
    run.check(not bad, f"{store.name} fails verification: {bad}")


def warm_up(run: Run) -> None:
    """Compile the program's bytecode once, then keep a core busy."""
    subprocess.run(
        [sys.executable, "-c", "import repro.cli"],
        cwd=run.root, env=run.child_env(), check=True,
    )
    deadline = time.perf_counter() + WARM_UP_SECONDS
    x = 0
    while time.perf_counter() < deadline:
        for i in range(10_000):
            x ^= i * i


def import_seconds(run: Run, scale: SpeedScale) -> list[float]:
    """Time of ``import repro.cli`` in fresh interpreters, in reference
    seconds."""
    times = []
    scale.sample()
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", "import repro.cli"],
            cwd=run.root, env=run.child_env(),
        )
        times.append(time.perf_counter() - start)
        scale.sample()
        run.check(done.returncode == 0, "import repro.cli in a fresh interpreter")
    factor = scale.close()
    return [seconds * factor for seconds in times]


def timed_passes(run: Run, one_pass: Callable[[int, bool], None],
                 min_passes: int) -> int:
    """Call ``one_pass(input index, traced)`` until ``run.seconds`` have
    passed and at least ``min_passes`` ran; returns the passes run.

    A traced run runs each input twice, traced and untraced, so the
    tracing overhead compares equal work on the same machine state.
    Which of the two goes first alternates from input to input, because
    the second run of an input can find warm caches.  A traced run
    measures at least :data:`TRACED_MIN_INPUTS` inputs.
    """
    deadline = time.perf_counter() + run.seconds
    if run.trace:
        min_passes = 2 * TRACED_MIN_INPUTS
    count = 0
    while count < min_passes or time.perf_counter() < deadline:
        if run.trace:
            index = count // 2
            one_pass(index, count % 2 != index % 2)
        else:
            one_pass(count, False)
        count += 1
    return count


def stage_note(stages: dict[str, Optional[float]]) -> str:
    """The info line of a workload's stage figures (see
    ``layers.STAGE_METRICS``), untraced passes only."""
    return "stages (untraced passes): " + ", ".join(
        f"{name} {'n/a' if value is None else f'{value:.4g}'}"
        for name, value in stages.items()
    )


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident memory of this process, or of a live child ``pid``."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
