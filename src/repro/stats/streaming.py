"""Mergeable one-pass accumulators for streaming workload analysis.

The scaling counterpart of the batch statistics in this package: every
class here folds records one at a time in O(1) (or bounded) state and
supports ``merge`` with an accumulator built over a *later* slice of
the same stream, so N shards can be folded in parallel and reduced to
one result without materializing the data.

Merge semantics fall into three groups:

* **order-free** — :class:`MomentsAccumulator` (Chan et al.'s parallel
  mean/variance update), :class:`CoMomentsAccumulator`,
  :class:`CategoricalCounter`, :class:`WindowedCounter`,
  :class:`ExactQuantiles`.  Any merge order yields the same result up
  to floating-point associativity.
* **seam-aware** — :class:`SeekStats` depends on *consecutive-record*
  differences, so it remembers its first and last boundary elements
  and ``merge`` folds the one gap that spans the seam.  Merging is
  exact **only** when the right-hand accumulator covers the records
  immediately following the left's — which is precisely the order
  shard stitching guarantees.
* **approximate** — :class:`ReservoirQuantile` (bounded memory,
  deterministic seeded merge) trades exactness for O(k) state; use
  :class:`ExactQuantiles` when the equality contract matters.

:class:`SlidingWindowCounter` keeps a bounded horizon for live
monitoring and has no ``merge``.

Floating-point tolerance contract: batch numpy reductions use pairwise
summation while these accumulators fold sequentially, so merged results
match the batch path to ~1e-12 relative error, not bit-for-bit.  The
repository-wide contract (``docs/streaming_analysis.md``) is relative
agreement within 1e-9.

All accumulators are plain-attribute objects, so they pickle across
process pools as-is.  Each one additionally carries a versioned
``state()`` / ``from_state()`` pair producing a JSON-able snapshot:
``from_state(a.state())`` is behaviorally identical to ``a`` (same
future adds, merges and results), which is what lets the incremental
re-analysis cache persist per-shard accumulator state beside a trace
store and fold it back in later sessions.  Snapshots follow the
repository-wide protocol in :mod:`repro.snapshot` and embed
:data:`~repro.snapshot.SNAPSHOT_VERSION`; a snapshot newer than the
running code raises ``ValueError`` so stale caches are skipped, not
misread.
"""

from __future__ import annotations

import math
import warnings
from typing import Any, Mapping, Optional

import numpy as np

from ..snapshot import SNAPSHOT_VERSION as _SNAPSHOT_VERSION
from ..snapshot import check_state as _check_state

__all__ = [
    "CategoricalCounter",
    "CoMomentsAccumulator",
    "ExactQuantiles",
    "MomentsAccumulator",
    "ReservoirQuantile",
    "SeekStats",
    "SlidingWindowCounter",
    "WindowedCounter",
]

class MomentsAccumulator:
    """Streaming count / mean / variance / extrema (Welford + Chan).

    ``add`` is Welford's online update; ``merge`` is Chan, Golub & LeVeque's
    parallel combination of two partial (mean, M2) pairs.
    """

    __slots__ = ("n", "mean", "m2", "min", "max")

    def __init__(self) -> None:
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, value: float) -> None:
        value = float(value)
        self.n += 1
        delta = value - self.mean
        self.mean += delta / self.n
        self.m2 += delta * (value - self.mean)
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def update_batch(self, values) -> None:
        """Fold a whole array in one vectorized step.

        Computes the batch's (n, mean, M2) with numpy reductions and
        Chan-combines them into the running state — same contract as
        ``merge``: results match repeated ``add`` within the 1e-9
        relative tolerance, not bit-for-bit.  Extrema are exact and
        NaN-transparent (a NaN value poisons mean/M2 exactly as a
        sequential ``add`` would, but never moves min/max).  Opposite
        infinities make mean/M2 NaN silently, as ``add`` does.
        """
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            return
        n = int(values.size)
        with np.errstate(invalid="ignore"):
            mean = float(values.mean())
            m2 = float(((values - mean) ** 2).sum())
        if self.n == 0:
            self.n, self.mean, self.m2 = n, mean, m2
        else:
            total = self.n + n
            delta = mean - self.mean
            self.m2 += m2 + delta * delta * (self.n * n / total)
            self.mean += delta * (n / total)
            self.n = total
        finite = values[~np.isnan(values)]
        if finite.size:
            self.min = min(self.min, float(finite.min()))
            self.max = max(self.max, float(finite.max()))

    def merge(self, other: "MomentsAccumulator") -> "MomentsAccumulator":
        if other.n == 0:
            return self
        if self.n == 0:
            self.n = other.n
            self.mean = other.mean
            self.m2 = other.m2
            self.min = other.min
            self.max = other.max
            return self
        n = self.n + other.n
        delta = other.mean - self.mean
        self.m2 += other.m2 + delta * delta * (self.n * other.n / n)
        self.mean += delta * (other.n / n)
        self.n = n
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        return self

    def state(self) -> dict[str, Any]:
        return {
            "kind": "moments",
            "version": _SNAPSHOT_VERSION,
            "n": self.n,
            "mean": self.mean,
            "m2": self.m2,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "MomentsAccumulator":
        _check_state(state, "moments")
        acc = cls()
        acc.n = int(state["n"])
        acc.mean = float(state["mean"])
        acc.m2 = float(state["m2"])
        acc.min = float(state["min"])
        acc.max = float(state["max"])
        return acc

    @property
    def sum(self) -> float:
        return self.mean * self.n

    def variance(self, ddof: int = 0) -> float:
        """Variance with ``ddof`` delta degrees of freedom (numpy convention)."""
        if self.n - ddof <= 0:
            return 0.0
        return self.m2 / (self.n - ddof)

    def std(self, ddof: int = 0) -> float:
        return math.sqrt(self.variance(ddof))


class CoMomentsAccumulator:
    """Streaming Pearson correlation between two paired series.

    Tracks the co-moment ``C = sum((x - mean_x)(y - mean_y))`` alongside
    both marginal M2s; ``merge`` uses the pairwise co-moment update.
    ``correlation`` returns 0.0 when either marginal is constant,
    matching :func:`repro.stats.cross_correlation`.
    """

    __slots__ = ("n", "mean_x", "mean_y", "m2x", "m2y", "cxy")

    def __init__(self) -> None:
        self.n = 0
        self.mean_x = 0.0
        self.mean_y = 0.0
        self.m2x = 0.0
        self.m2y = 0.0
        self.cxy = 0.0

    def add(self, x: float, y: float) -> None:
        x, y = float(x), float(y)
        self.n += 1
        dx = x - self.mean_x
        dy = y - self.mean_y
        self.mean_x += dx / self.n
        self.mean_y += dy / self.n
        self.m2x += dx * (x - self.mean_x)
        self.m2y += dy * (y - self.mean_y)
        self.cxy += dx * (y - self.mean_y)

    def update_batch(self, xs, ys) -> None:
        """Fold two paired arrays in one vectorized step (Chan combine)."""
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.size != ys.size:
            raise ValueError("paired batches must have equal length")
        if xs.size == 0:
            return
        n = int(xs.size)
        mean_x = float(xs.mean())
        mean_y = float(ys.mean())
        dx = xs - mean_x
        dy = ys - mean_y
        m2x = float((dx * dx).sum())
        m2y = float((dy * dy).sum())
        cxy = float((dx * dy).sum())
        if self.n == 0:
            self.n = n
            self.mean_x, self.mean_y = mean_x, mean_y
            self.m2x, self.m2y, self.cxy = m2x, m2y, cxy
            return
        total = self.n + n
        ddx = mean_x - self.mean_x
        ddy = mean_y - self.mean_y
        scale = self.n * n / total
        self.m2x += m2x + ddx * ddx * scale
        self.m2y += m2y + ddy * ddy * scale
        self.cxy += cxy + ddx * ddy * scale
        self.mean_x += ddx * (n / total)
        self.mean_y += ddy * (n / total)
        self.n = total

    def merge(self, other: "CoMomentsAccumulator") -> "CoMomentsAccumulator":
        if other.n == 0:
            return self
        if self.n == 0:
            for name in self.__slots__:
                setattr(self, name, getattr(other, name))
            return self
        n = self.n + other.n
        dx = other.mean_x - self.mean_x
        dy = other.mean_y - self.mean_y
        scale = self.n * other.n / n
        self.m2x += other.m2x + dx * dx * scale
        self.m2y += other.m2y + dy * dy * scale
        self.cxy += other.cxy + dx * dy * scale
        self.mean_x += dx * (other.n / n)
        self.mean_y += dy * (other.n / n)
        self.n = n
        return self

    def state(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "kind": "co-moments",
            "version": _SNAPSHOT_VERSION,
        }
        for name in self.__slots__:
            data[name] = getattr(self, name)
        return data

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "CoMomentsAccumulator":
        _check_state(state, "co-moments")
        acc = cls()
        acc.n = int(state["n"])
        for name in ("mean_x", "mean_y", "m2x", "m2y", "cxy"):
            setattr(acc, name, float(state[name]))
        return acc

    @property
    def correlation(self) -> float:
        if self.n < 2 or self.m2x <= 0.0 or self.m2y <= 0.0:
            return 0.0
        return float(self.cxy / math.sqrt(self.m2x * self.m2y))


class ExactQuantiles:
    """Exact quantiles from a kept value buffer (the unbounded baseline).

    Stores every value (one float each, *not* whole trace records), so
    quantiles and two-sample tests computed from it are exactly the
    batch numbers.  Merge is list concatenation — exact for any merge
    order since quantiles are order-free.  Swap in
    :class:`ReservoirQuantile` when O(n) floats is too much.

    ``max_values`` bounds the buffer for long incremental runs: once
    more than ``max_values`` values have been seen, the accumulator
    transparently degrades to a :class:`ReservoirQuantile` of that
    capacity (warning once per accumulator).  After degradation
    quantiles and :meth:`array` are approximate (uniform sample of the
    stream) while ``n`` and ``mean`` stay exact — the mean is tracked
    through a :class:`MomentsAccumulator` from the degradation point
    on.  The default ``max_values=None`` keeps the historical unbounded
    exact behavior.
    """

    def __init__(self, max_values: Optional[int] = None) -> None:
        if max_values is not None and max_values < 1:
            raise ValueError(f"max_values must be >= 1, got {max_values}")
        self.max_values = max_values
        self.values: list[float] = []
        self._reservoir: Optional["ReservoirQuantile"] = None
        self._moments: Optional[MomentsAccumulator] = None

    @property
    def degraded(self) -> bool:
        """Whether the exact buffer has been replaced by a reservoir."""
        return self._reservoir is not None

    def _degrade(self) -> None:
        warnings.warn(
            f"ExactQuantiles exceeded max_values={self.max_values}; "
            "degrading to a bounded ReservoirQuantile — quantiles become "
            "approximate (means and counts stay exact)",
            RuntimeWarning,
            stacklevel=3,
        )
        reservoir = ReservoirQuantile(capacity=self.max_values, seed=0)
        moments = MomentsAccumulator()
        for value in self.values:
            reservoir.add(value)
            moments.add(value)
        self._reservoir = reservoir
        self._moments = moments
        self.values = []

    def add(self, value: float) -> None:
        if self._reservoir is not None:
            value = float(value)
            self._reservoir.add(value)
            self._moments.add(value)
            return
        self.values.append(float(value))
        if self.max_values is not None and len(self.values) > self.max_values:
            self._degrade()

    def update_batch(self, values) -> None:
        """Fold an array of values — bit-identical to repeated ``add``.

        Unbounded accumulators extend the buffer in order (``tolist``
        yields the same Python floats ``float(v)`` would); bounded or
        degraded ones fall back to the sequential path so the reservoir
        RNG consumes the exact same draw sequence.
        """
        values = np.asarray(values, dtype=float)
        if self.max_values is None and self._reservoir is None:
            self.values.extend(values.tolist())
            return
        for value in values.tolist():
            self.add(value)

    def merge(self, other: "ExactQuantiles") -> "ExactQuantiles":
        if other._reservoir is not None:
            # Exactness is already lost on the other side; degrade this
            # side (if it has a bound) and combine the reservoirs.
            if self._reservoir is None:
                if self.max_values is None:
                    self.max_values = other.max_values
                self._degrade()
            self._reservoir.merge(other._reservoir)
            self._moments.merge(other._moments)
            return self
        if self._reservoir is not None:
            for value in other.values:
                self._reservoir.add(value)
                self._moments.add(value)
            return self
        self.values.extend(other.values)
        if self.max_values is not None and len(self.values) > self.max_values:
            self._degrade()
        return self

    @property
    def n(self) -> int:
        if self._moments is not None:
            return self._moments.n
        return len(self.values)

    @property
    def mean(self) -> float:
        """``np.mean`` over the kept buffer — bit-identical to batch.

        After degradation: the exact streaming mean of every value seen
        (Welford, within the 1e-9 relative contract of batch numpy).
        """
        if self._moments is not None:
            if self._moments.n == 0:
                raise ValueError("no values accumulated")
            return self._moments.mean
        if not self.values:
            raise ValueError("no values accumulated")
        return float(np.mean(self.values))

    def array(self) -> np.ndarray:
        if self._reservoir is not None:
            return np.asarray(self._reservoir.values, dtype=float)
        return np.asarray(self.values, dtype=float)

    def quantile(self, q: float) -> float:
        if self._reservoir is not None:
            return self._reservoir.quantile(q)
        if not self.values:
            raise ValueError("no values accumulated")
        return float(np.percentile(self.values, q * 100.0))

    def state(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "kind": "exact-quantiles",
            "version": _SNAPSHOT_VERSION,
            "max_values": self.max_values,
        }
        if self._reservoir is not None:
            data["reservoir"] = self._reservoir.state()
            data["moments"] = self._moments.state()
        else:
            data["values"] = list(self.values)
        return data

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "ExactQuantiles":
        _check_state(state, "exact-quantiles")
        max_values = state.get("max_values")
        acc = cls(max_values=None if max_values is None else int(max_values))
        if "reservoir" in state:
            acc._reservoir = ReservoirQuantile.from_state(state["reservoir"])
            acc._moments = MomentsAccumulator.from_state(state["moments"])
        else:
            acc.values = [float(v) for v in state["values"]]
        return acc


class ReservoirQuantile:
    """Bounded-memory quantiles from a deterministic uniform reservoir.

    Algorithm R with a seeded generator: the reservoir (and therefore
    every quantile) is a pure function of the seed and the exact add /
    merge sequence.  ``merge`` subsamples the two reservoirs in
    proportion to how many values each has seen, so merged estimates
    stay uniform over the union; results are approximate (rank error
    ~O(1/sqrt(capacity))), unlike :class:`ExactQuantiles`.
    """

    def __init__(self, capacity: int = 4096, seed: int = 0):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.seed = seed
        self.n_seen = 0
        self.values: list[float] = []
        self._rng = np.random.default_rng(seed)

    def add(self, value: float) -> None:
        value = float(value)
        self.n_seen += 1
        if len(self.values) < self.capacity:
            self.values.append(value)
            return
        slot = int(self._rng.integers(0, self.n_seen))
        if slot < self.capacity:
            self.values[slot] = value

    def update_batch(self, values) -> None:
        """Fold an array of values — bit-identical to repeated ``add``.

        The reservoir is a pure function of the seeded RNG's draw
        sequence, so batching must not reorder or batch the draws;
        this is the sequential loop by design.
        """
        for value in np.asarray(values, dtype=float).tolist():
            self.add(value)

    def merge(self, other: "ReservoirQuantile") -> "ReservoirQuantile":
        if other.n_seen == 0:
            return self
        if self.n_seen == 0:
            self.n_seen = other.n_seen
            self.values = list(other.values)
            return self
        mine = list(self.values)
        theirs = list(other.values)
        total = self.n_seen + other.n_seen
        merged: list[float] = []
        size = min(self.capacity, len(mine) + len(theirs))
        weight = self.n_seen / total
        for _ in range(size):
            take_mine = mine and (
                not theirs or self._rng.random() < weight
            )
            pool = mine if take_mine else theirs
            merged.append(pool.pop(int(self._rng.integers(0, len(pool)))))
        self.values = merged
        self.n_seen = total
        return self

    def quantile(self, q: float) -> float:
        if not self.values:
            raise ValueError("no values accumulated")
        return float(np.percentile(self.values, q * 100.0))

    def state(self) -> dict[str, Any]:
        # The bit-generator state is a JSON-able dict of Python ints, so
        # a restored reservoir continues the exact same random sequence
        # — snapshot/restore is invisible to future adds and merges.
        return {
            "kind": "reservoir-quantile",
            "version": _SNAPSHOT_VERSION,
            "capacity": self.capacity,
            "seed": self.seed,
            "n_seen": self.n_seen,
            "values": list(self.values),
            "rng": self._rng.bit_generator.state,
        }

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "ReservoirQuantile":
        _check_state(state, "reservoir-quantile")
        acc = cls(capacity=int(state["capacity"]), seed=int(state["seed"]))
        acc.n_seen = int(state["n_seen"])
        acc.values = [float(v) for v in state["values"]]
        acc._rng.bit_generator.state = state["rng"]
        return acc


class CategoricalCounter:
    """Streaming category counts with batch-compatible modal selection."""

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}

    def add(self, key: str, weight: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + weight

    def update_batch(self, keys, weight: int = 1) -> None:
        """Fold a batch of keys — exact (integer counts).

        Accepts either a plain sequence of strings or a
        dictionary-encoded column (anything with ``codes``/``values``
        attributes, e.g. :class:`repro.tracing.columnar.StringColumn`),
        which folds via one ``bincount`` instead of a Python loop.
        """
        codes = getattr(keys, "codes", None)
        table = getattr(keys, "values", None)
        if codes is not None and table is not None:
            counts = np.bincount(codes, minlength=len(table))
            for key, count in zip(table, counts.tolist()):
                if count:
                    self.add(key, count * weight)
            return
        for key in keys:
            self.add(key, weight)

    def merge(self, other: "CategoricalCounter") -> "CategoricalCounter":
        for key, count in other.counts.items():
            self.counts[key] = self.counts.get(key, 0) + count
        return self

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def modal(self) -> str:
        """Most frequent key; ties break to the lexicographically
        smallest, matching ``np.unique`` + ``argmax`` on a value list."""
        if not self.counts:
            raise ValueError("no categories accumulated")
        best = max(self.counts.values())
        return min(k for k, v in self.counts.items() if v == best)

    def fraction(self, key: str) -> float:
        total = self.total
        return self.counts.get(key, 0) / total if total else 0.0

    def state(self) -> dict[str, Any]:
        return {
            "kind": "categorical-counter",
            "version": _SNAPSHOT_VERSION,
            "counts": dict(self.counts),
        }

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "CategoricalCounter":
        _check_state(state, "categorical-counter")
        acc = cls()
        acc.counts = {str(k): int(v) for k, v in state["counts"].items()}
        return acc


class WindowedCounter:
    """Weighted counts in fixed-width windows anchored at ``origin``.

    Window ``k`` covers ``[origin + k*w, origin + (k+1)*w)`` using the
    same truncation arithmetic as the batch helpers
    (:func:`repro.breadth.utilization_series`,
    :func:`repro.stats.arrivals_to_counts` with an explicit origin), so
    a merged fold bins every event into exactly the window the batch
    pass does.  ``series`` folds any trailing windows past the caller's
    end bound into the final window — the batch clamp.
    """

    def __init__(self, window: float, origin: float = 0.0):
        if window <= 0:
            raise ValueError(f"window must be > 0, got {window}")
        self.window = window
        self.origin = origin
        self.bins: dict[int, float] = {}
        self.n = 0
        self.t_min: Optional[float] = None
        self.t_max: Optional[float] = None
        self.end: Optional[float] = None

    def add(self, t: float, weight: float = 1.0, advance: float = 0.0) -> None:
        """Count ``weight`` into ``t``'s window.

        ``advance`` extends the tracked stream end past ``t`` (e.g. a
        CPU burst's busy time), mirroring the batch pass's
        ``end = max(t + busy)``.
        """
        if t < self.origin:
            raise ValueError(f"timestamp {t} precedes origin {self.origin}")
        index = int((t - self.origin) / self.window)
        self.bins[index] = self.bins.get(index, 0.0) + weight
        self.n += 1
        self.t_min = t if self.t_min is None else min(self.t_min, t)
        self.t_max = t if self.t_max is None else max(self.t_max, t)
        tip = t + advance
        self.end = tip if self.end is None else max(self.end, tip)

    #: Widest dense scratch array ``update_batch`` will allocate; batches
    #: spanning more window indices fall back to the sequential loop.
    _MAX_DENSE_SPAN = 1 << 22

    def update_batch(self, times, weights=None, advance=None) -> None:
        """Fold arrays of timestamps (and weights) — bit-identical.

        Batch indices are computed with the same truncation arithmetic
        as ``add``, and weights are folded with ``np.add.at``, which
        applies one unbuffered scalar add per event in input order —
        the exact floating-point sequence the per-record loop performs,
        so bins match the sequential path bit for bit.

        ``weights``/``advance`` may be scalars or arrays matching
        ``times``.  Raises (before mutating) if any timestamp precedes
        ``origin``.
        """
        times = np.asarray(times, dtype=float)
        if times.size == 0:
            return
        t_min = float(times.min())
        if t_min < self.origin:
            raise ValueError(
                f"timestamp {t_min} precedes origin {self.origin}"
            )
        weight_arr = np.broadcast_to(
            np.asarray(1.0 if weights is None else weights, dtype=float),
            times.shape,
        )
        advance_arr = np.broadcast_to(
            np.asarray(0.0 if advance is None else advance, dtype=float),
            times.shape,
        )
        index = ((times - self.origin) / self.window).astype(np.int64)
        lo = int(index.min())
        span = int(index.max()) - lo + 1
        if span > self._MAX_DENSE_SPAN:
            for t, w, a in zip(
                times.tolist(), weight_arr.tolist(), advance_arr.tolist()
            ):
                self.add(t, weight=w, advance=a)
            return
        # Seed the scratch slots that will receive adds with their
        # current bin values: np.add.at then performs the identical
        # scalar-add sequence the per-record loop would.
        scratch = np.zeros(span)
        touched = np.unique(index).tolist()
        for k in touched:
            if k in self.bins:
                scratch[k - lo] = self.bins[k]
        np.add.at(scratch, index - lo, weight_arr)
        for k in touched:
            self.bins[k] = float(scratch[k - lo])
        self.n += int(times.size)
        t_max = float(times.max())
        self.t_min = t_min if self.t_min is None else min(self.t_min, t_min)
        self.t_max = t_max if self.t_max is None else max(self.t_max, t_max)
        tip = float((times + advance_arr).max())
        self.end = tip if self.end is None else max(self.end, tip)

    def merge(self, other: "WindowedCounter") -> "WindowedCounter":
        if self.window != other.window or self.origin != other.origin:
            raise ValueError("cannot merge counters with different windows")
        for index, weight in other.bins.items():
            self.bins[index] = self.bins.get(index, 0.0) + weight
        self.n += other.n
        if other.t_min is not None:
            self.t_min = (
                other.t_min if self.t_min is None else min(self.t_min, other.t_min)
            )
            self.t_max = (
                other.t_max if self.t_max is None else max(self.t_max, other.t_max)
            )
            self.end = (
                other.end if self.end is None else max(self.end, other.end)
            )
        return self

    def series(self, end: Optional[float] = None) -> np.ndarray:
        """Materialize the window array from ``origin`` to ``end``.

        ``end`` defaults to the tracked stream end; events binned past
        the last window (e.g. one landing exactly on ``end``) fold into
        it, matching the batch clamp.
        """
        if self.n == 0:
            raise ValueError("no events accumulated")
        if end is None:
            end = self.end
        n_windows = max(
            1, int(math.ceil((end - self.origin) / self.window))
        )
        series = np.zeros(n_windows)
        for index, weight in self.bins.items():
            series[min(index, n_windows - 1)] += weight
        return series

    def state(self) -> dict[str, Any]:
        # JSON object keys must be strings; window indices round-trip
        # through str(int).
        return {
            "kind": "windowed-counter",
            "version": _SNAPSHOT_VERSION,
            "window": self.window,
            "origin": self.origin,
            "bins": {str(k): v for k, v in self.bins.items()},
            "n": self.n,
            "t_min": self.t_min,
            "t_max": self.t_max,
            "end": self.end,
        }

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "WindowedCounter":
        _check_state(state, "windowed-counter")
        acc = cls(window=float(state["window"]), origin=float(state["origin"]))
        acc.bins = {int(k): float(v) for k, v in state["bins"].items()}
        acc.n = int(state["n"])
        for name in ("t_min", "t_max", "end"):
            value = state[name]
            setattr(acc, name, None if value is None else float(value))
        return acc


class SlidingWindowCounter:
    """Recent-horizon event counts: fixed-width windows with eviction.

    The live-drift counterpart of :class:`WindowedCounter`: same window
    arithmetic (window ``k`` covers ``[origin + k*w, origin + (k+1)*w)``),
    but bounded — only the ``keep`` most recent windows are retained,
    so a long-running daemon's rate window stays O(keep) no matter how
    much traffic flows through it.  Adding an event in a new window
    evicts windows older than ``keep`` behind the newest;
    :meth:`evict_before` drops windows explicitly.  Evicted totals are
    remembered only as scalars (``n_evicted`` / ``weight_evicted``),
    which is why this is a separate class: :class:`WindowedCounter`
    stays append-only and merge-exact for the batch-equality path,
    while this one trades history for a bounded footprint.  There is
    deliberately no ``merge`` — a sliding horizon has no seam-exact
    combination.
    """

    def __init__(self, window: float, keep: int, origin: float = 0.0):
        if window <= 0:
            raise ValueError(f"window must be > 0, got {window}")
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.window = float(window)
        self.keep = int(keep)
        self.origin = float(origin)
        self.bins: dict[int, float] = {}
        self.counts: dict[int, int] = {}
        self.latest: Optional[int] = None
        #: Window of the first event ever seen — the horizon cannot
        #: extend before it, so a counter fed from mid-timeline (a
        #: daemon attaching to a long-lived store) reports rates over
        #: windows it actually observed, not over empty prehistory.
        self.first_seen: Optional[int] = None
        self.n_evicted = 0
        self.weight_evicted = 0.0

    def _index(self, t: float) -> int:
        return int((t - self.origin) // self.window)

    def _evict_below(self, floor_index: int) -> None:
        for k in [k for k in self.bins if k < floor_index]:
            self.n_evicted += self.counts.pop(k)
            self.weight_evicted += self.bins.pop(k)

    def add(self, t: float, weight: float = 1.0) -> None:
        t = float(t)
        if t < self.origin:
            raise ValueError(f"timestamp {t} precedes origin {self.origin}")
        k = self._index(t)
        if self.latest is not None and k < self.latest - self.keep + 1:
            # Late event older than the kept horizon: count it straight
            # into the evicted tally rather than resurrecting its window.
            self.n_evicted += 1
            self.weight_evicted += float(weight)
            return
        self.bins[k] = self.bins.get(k, 0.0) + float(weight)
        self.counts[k] = self.counts.get(k, 0) + 1
        if self.first_seen is None or k < self.first_seen:
            self.first_seen = k
        if self.latest is None or k > self.latest:
            self.latest = k
            self._evict_below(k - self.keep + 1)

    def update_batch(self, times, weight: float = 1.0) -> None:
        for t in np.asarray(times, dtype=float):
            self.add(float(t), weight)

    def evict_before(self, t: float) -> None:
        """Drop windows that end at or before ``t`` (horizon trim)."""
        self._evict_below(self._index(max(float(t), self.origin)))

    # -- introspection -------------------------------------------------------

    @property
    def n_active(self) -> int:
        """Events currently inside the kept horizon."""
        return sum(self.counts.values())

    @property
    def n_windows(self) -> int:
        """Windows the kept horizon currently covers (incl. empty ones)."""
        if self.latest is None:
            return 0
        first = self.latest - self.keep + 1
        if self.first_seen is not None:
            first = max(first, self.first_seen)
        return self.latest - max(first, 0) + 1

    @property
    def span(self) -> float:
        """Seconds the kept horizon currently covers."""
        return self.n_windows * self.window

    def rate(self) -> float:
        """Mean event rate (events/sec) over the kept horizon."""
        return self.n_active / self.span if self.n_windows else 0.0

    def series(self) -> np.ndarray:
        """Per-window weights over the kept horizon, oldest first."""
        if self.latest is None:
            return np.zeros(0, dtype=float)
        first = self.latest - self.n_windows + 1
        return np.array(
            [self.bins.get(k, 0.0) for k in range(first, self.latest + 1)],
            dtype=float,
        )

    # -- snapshots -----------------------------------------------------------

    def state(self) -> dict[str, Any]:
        return {
            "kind": "sliding-window-counter",
            "version": _SNAPSHOT_VERSION,
            "window": self.window,
            "keep": self.keep,
            "origin": self.origin,
            "bins": {str(k): v for k, v in self.bins.items()},
            "counts": {str(k): v for k, v in self.counts.items()},
            "latest": self.latest,
            "first_seen": self.first_seen,
            "n_evicted": self.n_evicted,
            "weight_evicted": self.weight_evicted,
        }

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "SlidingWindowCounter":
        _check_state(state, "sliding-window-counter")
        acc = cls(
            window=float(state["window"]),
            keep=int(state["keep"]),
            origin=float(state["origin"]),
        )
        acc.bins = {int(k): float(v) for k, v in state["bins"].items()}
        acc.counts = {int(k): int(v) for k, v in state["counts"].items()}
        latest = state["latest"]
        acc.latest = None if latest is None else int(latest)
        first_seen = state.get("first_seen")
        acc.first_seen = None if first_seen is None else int(first_seen)
        acc.n_evicted = int(state["n_evicted"])
        acc.weight_evicted = float(state["weight_evicted"])
        return acc


class SeekStats:
    """Storage seek-distance statistics over an ordered I/O stream.

    Measures each gap from the *end* of the previous I/O (LBN plus its
    block-rounded length), exactly like
    :func:`repro.breadth.seek_distances`.  Integer sums keep the merged
    sequential fraction and mean absolute seek exact.  ``merge`` is
    seam-aware and assumes ``other`` continues this accumulator's
    stream.
    """

    BLOCK = 4096

    def __init__(self) -> None:
        self.n = 0
        self.first_lbn: Optional[int] = None
        self.first_end: Optional[int] = None
        self.last_end: Optional[int] = None
        self.n_gaps = 0
        self.n_sequential = 0
        self.sum_abs = 0

    def _fold(self, gap: int) -> None:
        self.n_gaps += 1
        if gap == 0:
            self.n_sequential += 1
        self.sum_abs += abs(gap)

    def add(self, lbn: int, size_bytes: int) -> None:
        if self.first_lbn is None:
            self.first_lbn = lbn
        if self.last_end is not None:
            self._fold(lbn - self.last_end)
        self.last_end = lbn + max(1, -(-size_bytes // self.BLOCK))
        if self.first_end is None:
            self.first_end = self.last_end
        self.n += 1

    def update_batch(self, lbns, sizes) -> None:
        """Fold ordered LBN/size arrays in one vectorized step — exact.

        Everything here is integer arithmetic (numpy floor division
        matches Python's for the ceil-div trick), so counts and sums
        are bit-identical to repeated ``add``.
        """
        lbns = np.asarray(lbns, dtype=np.int64)
        sizes = np.asarray(sizes, dtype=np.int64)
        if lbns.size != sizes.size:
            raise ValueError("lbn/size batches must have equal length")
        if lbns.size == 0:
            return
        ends = lbns + np.maximum(1, -(-sizes // self.BLOCK))
        if self.last_end is None:
            self.first_lbn = int(lbns[0])
            self.first_end = int(ends[0])
            gaps = lbns[1:] - ends[:-1]
        else:
            gaps = lbns - np.concatenate(([self.last_end], ends[:-1]))
        self.n_gaps += int(gaps.size)
        self.n_sequential += int((gaps == 0).sum())
        self.sum_abs += int(np.abs(gaps).sum())
        self.last_end = int(ends[-1])
        self.n += int(lbns.size)

    def merge(self, other: "SeekStats") -> "SeekStats":
        if other.n == 0:
            return self
        if self.n == 0:
            for name in (
                "n", "first_lbn", "first_end", "last_end",
                "n_gaps", "n_sequential", "sum_abs",
            ):
                setattr(self, name, getattr(other, name))
            return self
        self._fold(other.first_lbn - self.last_end)
        self.n += other.n
        self.n_gaps += other.n_gaps
        self.n_sequential += other.n_sequential
        self.sum_abs += other.sum_abs
        self.last_end = other.last_end
        return self

    @property
    def sequential_fraction(self) -> float:
        return self.n_sequential / self.n_gaps if self.n_gaps else 0.0

    @property
    def mean_abs_seek(self) -> float:
        return self.sum_abs / self.n_gaps if self.n_gaps else 0.0

    _STATE_FIELDS = (
        "n", "first_lbn", "first_end", "last_end",
        "n_gaps", "n_sequential", "sum_abs",
    )

    def state(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "kind": "seek-stats",
            "version": _SNAPSHOT_VERSION,
        }
        for name in self._STATE_FIELDS:
            data[name] = getattr(self, name)
        return data

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "SeekStats":
        _check_state(state, "seek-stats")
        acc = cls()
        for name in cls._STATE_FIELDS:
            value = state[name]
            setattr(acc, name, None if value is None else int(value))
        return acc
