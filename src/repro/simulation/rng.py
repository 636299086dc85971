"""Deterministic random-number streams.

Every stochastic component in the repository draws from a named
substream derived from one root seed, so simulations are exactly
reproducible and independent components never share a stream (changing
how many samples one device draws cannot perturb another device).

Factories are :class:`~repro.snapshot.Snapshotable`: ``state()``
captures the seed, the namespace path and every live generator's
bit-generator state across the whole spawn tree, and ``from_state``
rebuilds a factory whose future draws continue exactly where the
snapshot left off.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from ..snapshot import SNAPSHOT_VERSION, SnapshotFormatError, check_state

__all__ = ["RandomStreams", "BufferedStream", "choice_cdf", "choice_index"]


def _encode_path(path: tuple[str, ...]) -> list[int]:
    """Encode a stream path as an unambiguous flat key sequence.

    Each segment is rendered as its UTF-8 byte length followed by the
    byte values (a prefix code), so distinct paths can never flatten to
    the same key — ``("a", "b/c")`` encodes to ``[1, 97, 3, 98, 47, 99]``
    while ``("a/b", "c")`` encodes to ``[3, 97, 47, 98, 1, 99]``.  The
    naive per-character encoding this replaces collapsed both to the
    characters of ``"a/b/c"``, silently aliasing streams that sharded
    experiment replicas rely on being disjoint.
    """
    key: list[int] = []
    for segment in path:
        data = segment.encode("utf-8")
        key.append(len(data))
        key.extend(data)
    return key


def choice_cdf(p: np.ndarray) -> np.ndarray:
    """The cumulative table ``Generator.choice(n, p=p)`` builds from ``p``.

    ``choice`` validates ``p``, takes ``p.cumsum()``, divides it by its
    last entry and searches it on *every* call.  Building the table once
    per distribution and drawing with :func:`choice_index` repeats the
    same float64 arithmetic, so it yields the identical index from the
    identical bit-generator state.  Callers validate ``p`` themselves
    (non-negative, sums to 1) since ``choice`` no longer does.
    """
    cdf = np.asarray(p, dtype=float).cumsum()
    cdf /= cdf[-1]
    return cdf


def choice_index(cdf: np.ndarray, rng: np.random.Generator) -> int:
    """Draw one index from a :func:`choice_cdf` table.

    Consumes exactly one raw double, as ``Generator.choice(n, p=p)``
    does, and returns the index it returns for that double.
    """
    return int(cdf.searchsorted(rng.random(), side="right"))


class BufferedStream:
    """Block-prefetched scalar draws over a ``numpy.random.Generator``.

    Scalar numpy draws cost a full Python → C round trip each; vector
    fills amortize that across a block.  Crucially, a vector fill of
    ``n`` variates consumes *exactly* the same underlying bit-generator
    sequence — and produces the same values — as ``n`` scalar draws of
    the same kind, so prefetching is invisible to reproducibility as
    long as the generator's public state is re-synchronized before
    anyone else observes it.

    The wrapper keeps one block of one *kind* at a time (raw doubles,
    standard exponentials, or standard normals) plus the bit-generator
    state captured just before the block was filled.  :meth:`sync`
    rewinds to that state and re-draws exactly the consumed count, which
    lands the generator on the state the scalar path would have reached:

    * snapshots (``RandomStreams.state()``) sync first, so checkpoint
      payloads — and the replay digests that verify them — are
      byte-identical to unbuffered runs;
    * switching kinds (or falling back to a delegated method such as
      ``integers``) syncs first, so mixed-kind streams stay exact.

    Derived scalar draws reuse numpy's own reductions (verified
    bit-identical to the corresponding scalar methods):
    ``exponential(s) == s * standard_exponential()``,
    ``normal(m, s) == m + s * standard_normal()``, and
    ``uniform(a, b) == a + (b - a) * random()``.

    A stream wrapped by a ``BufferedStream`` must not also be drawn from
    via the raw generator while a block is outstanding — route every
    draw for that stream through the wrapper (delegated methods
    included).
    """

    __slots__ = ("_gen", "_block", "_kind", "_buf", "_pos", "_len", "_block_state")

    #: Draws prefetched per block fill.
    BLOCK = 1024

    def __init__(self, generator: np.random.Generator, block: int = BLOCK):
        self._gen = generator
        self._block = int(block)
        self._kind: str | None = None
        self._buf: np.ndarray | None = None
        self._pos = 0
        self._len = 0
        self._block_state: Any = None

    @property
    def generator(self) -> np.random.Generator:
        """The wrapped generator (sync'd so its state is current)."""
        self.sync()
        return self._gen

    def sync(self) -> None:
        """Re-synchronize the generator to the logically-consumed position.

        Rewinds to the pre-block state and re-draws exactly the consumed
        count, discarding the unconsumed tail of the block.  After this
        the generator's public state equals what scalar-path draws would
        have produced; a never-drawn block rewinds to exactly the
        pre-fill state.
        """
        kind = self._kind
        if kind is None:
            return
        gen = self._gen
        gen.bit_generator.state = self._block_state
        pos = self._pos
        if pos:
            if kind == "double":
                gen.random(pos)
            elif kind == "exponential":
                gen.standard_exponential(pos)
            else:
                gen.standard_normal(pos)
        self._kind = None
        self._buf = None
        self._pos = 0
        self._len = 0
        self._block_state = None

    def _fill(self, kind: str) -> np.ndarray:
        self.sync()
        gen = self._gen
        self._block_state = gen.bit_generator.state
        n = self._block
        if kind == "double":
            buf = gen.random(n)
        elif kind == "exponential":
            buf = gen.standard_exponential(n)
        else:
            buf = gen.standard_normal(n)
        self._kind = kind
        self._buf = buf
        self._pos = 0
        self._len = n
        return buf

    # -- buffered scalar draws ------------------------------------------

    def random(self) -> float:
        """Next raw double in [0, 1) — identical to ``Generator.random()``."""
        pos = self._pos
        if self._kind != "double" or pos >= self._len:
            buf = self._fill("double")
            pos = 0
        else:
            buf = self._buf
        self._pos = pos + 1
        return float(buf[pos])

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """Uniform draw on [low, high) via the buffered double stream."""
        return low + (high - low) * self.random()

    def exponential(self, scale: float = 1.0) -> float:
        """Exponential draw — identical to ``Generator.exponential(scale)``."""
        pos = self._pos
        if self._kind != "exponential" or pos >= self._len:
            buf = self._fill("exponential")
            pos = 0
        else:
            buf = self._buf
        self._pos = pos + 1
        return scale * float(buf[pos])

    def standard_exponential(self) -> float:
        """Unit-scale exponential draw from the buffered stream."""
        return self.exponential(1.0)

    def normal(self, loc: float = 0.0, scale: float = 1.0) -> float:
        """Gaussian draw — identical to ``Generator.normal(loc, scale)``."""
        pos = self._pos
        if self._kind != "normal" or pos >= self._len:
            buf = self._fill("normal")
            pos = 0
        else:
            buf = self._buf
        self._pos = pos + 1
        return loc + scale * float(buf[pos])

    def standard_normal(self) -> float:
        """Unit Gaussian draw from the buffered stream."""
        return self.normal(0.0, 1.0)

    def __getattr__(self, name: str) -> Any:
        """Fall back to the raw generator for anything else (sync'd first)."""
        self.sync()
        return getattr(self._gen, name)


class RandomStreams:
    """A factory of independent, named ``numpy.random.Generator`` streams.

    Streams are derived from ``(root_seed, path)`` so the same path
    always yields the same stream regardless of creation order::

        streams = RandomStreams(seed=7)
        disk_rng = streams.get("disk.0")
        net_rng = streams.get("network")

    Every ``spawn()`` / ``get()`` name is one opaque path *segment* —
    segment boundaries are part of the stream identity.  Consequently
    ``spawn("a").get("b/c")``, ``spawn("a/b").get("c")`` and
    ``get("a/b/c")`` are three mutually disjoint streams: a ``"/"``
    inside a name is just a character, not a namespace hop.

    ``spawn`` is memoized: spawning the same name twice returns the
    *same* child factory, so every component holding "the stream at
    path P" holds the same generator object.  (Unmemoized spawns used
    to hand out duplicate generators for one path — two objects with
    identical seeds advancing independently — which snapshots could not
    represent and restores could not reconcile.)
    """

    def __init__(self, seed: int = 0, prefix: str = ""):
        self.seed = int(seed)
        self._path: tuple[str, ...] = (prefix,) if prefix else ()
        self._streams: dict[str, np.random.Generator] = {}
        self._children: dict[str, "RandomStreams"] = {}
        self._buffered: dict[str, BufferedStream] = {}

    @property
    def prefix(self) -> str:
        """Human-readable namespace path (diagnostic only)."""
        return "/".join(self._path)

    def get(self, name: str) -> np.random.Generator:
        """Return (creating if needed) the stream for ``name``."""
        if name not in self._streams:
            key = [self.seed] + _encode_path(self._path + (name,))
            self._streams[name] = np.random.default_rng(np.random.SeedSequence(key))
        return self._streams[name]

    def buffered(self, name: str) -> BufferedStream:
        """A block-prefetching wrapper over the stream for ``name``.

        Memoized, and backed by the *same* generator :meth:`get` would
        return — but the two access paths must not be mixed for one
        name: while a prefetched block is outstanding the raw
        generator's state lags the logical draw position (snapshots
        re-synchronize automatically; ad-hoc ``get()`` draws do not).
        """
        if name not in self._buffered:
            self._buffered[name] = BufferedStream(self.get(name))
        return self._buffered[name]

    def spawn(self, name: str) -> "RandomStreams":
        """The child factory for ``name`` (memoized; disjoint streams)."""
        if name not in self._children:
            child = RandomStreams(self.seed)
            child._path = self._path + (name,)
            self._children[name] = child
        return self._children[name]

    # -- snapshots ------------------------------------------------------------

    def state(self) -> dict[str, Any]:
        """A JSON-able snapshot of the whole spawn tree.

        Captures every generator's bit-generator state, so a stream
        that was never drawn from snapshots to exactly the state a
        fresh derivation would produce — restored and fresh factories
        are indistinguishable, drawn-from or not.

        Buffered wrappers are re-synchronized first, so the captured
        bit-generator states equal what scalar-path draws would have
        produced and the payload format is unchanged by prefetching.
        """
        for wrapper in self._buffered.values():
            wrapper.sync()
        return {
            "kind": "random-streams",
            "version": SNAPSHOT_VERSION,
            "seed": self.seed,
            "path": list(self._path),
            "streams": {
                name: stream.bit_generator.state
                for name, stream in sorted(self._streams.items())
            },
            "children": {
                name: child.state()
                for name, child in sorted(self._children.items())
            },
        }

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "RandomStreams":
        """Rebuild a factory whose draws continue the snapshot exactly.

        Raises :class:`SnapshotFormatError` on a state written by a
        factory that was re-keyed with fork keys: streams it would
        derive next cannot be reproduced by this version.
        """
        check_state(state, "random-streams")
        if state.get("forks"):
            raise SnapshotFormatError(
                f"random-streams state carries fork keys {state['forks']!r}; "
                "forked streams are no longer derived, so it cannot be restored"
            )
        factory = cls(int(state["seed"]))
        factory._path = tuple(str(s) for s in state["path"])
        for name, rng_state in state["streams"].items():
            stream = factory.get(str(name))
            stream.bit_generator.state = rng_state
        for name, child_state in state["children"].items():
            child = cls.from_state(child_state)
            factory._children[str(name)] = child
        return factory
