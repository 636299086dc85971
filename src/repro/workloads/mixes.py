"""Request-class mixes and file-access patterns for the GFS workload.

A :class:`RequestClass` fixes the op/size/memory footprint of one kind
of user request; a :class:`WorkloadMix` samples classes by weight and
drives a per-class :class:`FileAccessPattern` that decides where on
disk each request lands (sequential runs with occasional jumps — the
spatial locality the storage Markov model learns as LBN ranges).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..datacenter.gfs import GfsRequest
from ..simulation.rng import choice_cdf, choice_index
from ..tracing import READ, WRITE

__all__ = [
    "FileAccessPattern",
    "RequestClass",
    "WorkloadMix",
    "oltp_mix",
    "table2_mix",
    "web_serving_mix",
]

KIB = 1024
MIB = 1024 * 1024


@dataclass(frozen=True)
class RequestClass:
    """One kind of user request (fixed footprint, like Table 2's rows)."""

    name: str
    op: str  # READ | WRITE
    size_bytes: int
    memory_bytes: int
    weight: float = 1.0
    mean_run_length: float = 4.0  # requests per sequential run
    working_set_blocks: int = 1 << 24  # span of the class's file region

    @property
    def memory_op(self) -> str:
        """Reads stage data into buffers (read); writes dirty them."""
        return READ if self.op == READ else WRITE


class FileAccessPattern:
    """Stateful LBN chooser: sequential runs with random jumps.

    With probability ``1/mean_run_length`` a request seeks to a random
    position in the class's working set; otherwise it continues
    sequentially after the previous request.
    """

    def __init__(
        self, request_class: RequestClass, rng: np.random.Generator, base_lbn: int = 0
    ):
        self.request_class = request_class
        self.rng = rng
        self.base_lbn = base_lbn
        self._next_lbn = base_lbn

    def next_lbn(self, size_bytes: int, block_size: int = 4096) -> int:
        """LBN for the next request of this class."""
        rc = self.request_class
        jump_probability = 1.0 / max(1.0, rc.mean_run_length)
        if self.rng.random() < jump_probability:
            offset = int(self.rng.integers(0, rc.working_set_blocks))
            self._next_lbn = self.base_lbn + offset
        lbn = self._next_lbn
        self._next_lbn += max(1, -(-size_bytes // block_size))
        return lbn


class WorkloadMix:
    """Samples :class:`GfsRequest` objects from weighted request classes."""

    def __init__(self, classes: list[RequestClass], rng: np.random.Generator):
        if not classes:
            raise ValueError("need at least one request class")
        names = [c.name for c in classes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate class names in {names}")
        self.classes = classes
        self.rng = rng
        weights = np.array([c.weight for c in classes], dtype=float)
        if np.any(weights < 0) or weights.sum() <= 0:
            raise ValueError("class weights must be non-negative, not all zero")
        self._cdf = choice_cdf(weights / weights.sum())
        # Separate each class's file region so classes do not thrash each
        # other's sequential streams.
        self._patterns = {
            c.name: FileAccessPattern(c, rng, base_lbn=i * (1 << 25))
            for i, c in enumerate(classes)
        }

    def sample_class(self) -> RequestClass:
        """Draw a request class according to the mix weights."""
        return self.classes[choice_index(self._cdf, self.rng)]

    def make_request(self) -> GfsRequest:
        """Draw one complete GFS request."""
        rc = self.sample_class()
        lbn = self._patterns[rc.name].next_lbn(rc.size_bytes)
        return GfsRequest(
            request_class=rc.name,
            op=rc.op,
            size_bytes=rc.size_bytes,
            lbn=lbn,
            memory_bytes=rc.memory_bytes,
            memory_op=rc.memory_op,
        )


def table2_mix(rng: np.random.Generator) -> WorkloadMix:
    """The paper's Table 2 workload: a 64 KiB read and a 4 MiB write.

    Request 1: network 64K, memory 16K read, storage 64K read.
    Request 2: network 4MB, memory 256KB write, storage 4MB write.
    """
    return WorkloadMix(
        [
            RequestClass(
                name="read_64K",
                op=READ,
                size_bytes=64 * KIB,
                memory_bytes=16 * KIB,
                weight=0.6,
                mean_run_length=1.2,
            ),
            RequestClass(
                name="write_4M",
                op=WRITE,
                size_bytes=4 * MIB,
                memory_bytes=256 * KIB,
                weight=0.4,
                mean_run_length=2.0,
            ),
        ],
        rng,
    )


def web_serving_mix(rng: np.random.Generator) -> WorkloadMix:
    """A read-heavy static web-serving profile (small/medium objects)."""
    return WorkloadMix(
        [
            RequestClass("read_4K", READ, 4 * KIB, 4 * KIB, weight=0.45,
                         mean_run_length=1.5),
            RequestClass("read_64K", READ, 64 * KIB, 16 * KIB, weight=0.35,
                         mean_run_length=6.0),
            RequestClass("read_1M", READ, 1 * MIB, 64 * KIB, weight=0.15,
                         mean_run_length=12.0),
            RequestClass("write_256K", WRITE, 256 * KIB, 64 * KIB, weight=0.05,
                         mean_run_length=2.0),
        ],
        rng,
    )


def oltp_mix(rng: np.random.Generator) -> WorkloadMix:
    """An OLTP-like profile: small random reads/writes, 2:1 read:write."""
    return WorkloadMix(
        [
            RequestClass("read_8K", READ, 8 * KIB, 8 * KIB, weight=0.67,
                         mean_run_length=1.0, working_set_blocks=1 << 22),
            RequestClass("write_8K", WRITE, 8 * KIB, 8 * KIB, weight=0.33,
                         mean_run_length=1.0, working_set_blocks=1 << 22),
        ],
        rng,
    )
