"""Discrete-time Markov chains over hashable states.

KOOZA models storage, processor and memory behaviour with Markov Chain
Models because "we want to capture the sequence of states and the
probabilities of switching between them" (§4).  This module provides
estimation from observed state sequences, sampling, stationary
analysis and log-likelihood scoring.
"""

from __future__ import annotations

from typing import Hashable, Optional, Sequence

import numpy as np

from ..simulation.rng import choice_cdf, choice_index

__all__ = ["MarkovChain"]


class MarkovChain:
    """A first-order Markov chain with estimated transition matrix."""

    def __init__(
        self,
        states: Sequence[Hashable],
        transition_matrix: np.ndarray,
        initial_distribution: Optional[np.ndarray] = None,
    ):
        self.states = list(states)
        if len(set(map(repr, self.states))) != len(self.states):
            raise ValueError("duplicate states")
        matrix = np.asarray(transition_matrix, dtype=float)
        n = len(self.states)
        if matrix.shape != (n, n):
            raise ValueError(f"transition matrix must be {n}x{n}, got {matrix.shape}")
        if np.any(matrix < 0):
            raise ValueError("negative transition probabilities")
        rows = matrix.sum(axis=1)
        if not np.allclose(rows, 1.0, atol=1e-8):
            raise ValueError(f"rows must sum to 1, got sums {rows}")
        self.transition_matrix = matrix
        if initial_distribution is None:
            initial_distribution = np.full(n, 1.0 / n)
        initial = np.asarray(initial_distribution, dtype=float)
        if initial.shape != (n,) or not np.isclose(initial.sum(), 1.0, atol=1e-8):
            raise ValueError("initial distribution must be a length-n simplex point")
        self.initial_distribution = initial
        self._index = {state: i for i, state in enumerate(self.states)}
        # Draw tables for sample_path, built once (the chain is never
        # mutated after construction).
        self._initial_cdf = choice_cdf(initial)
        self._row_cdfs = [choice_cdf(row) for row in matrix]

    @property
    def n_states(self) -> int:
        return len(self.states)

    def index_of(self, state: Hashable) -> int:
        """Row index of a state (KeyError for unknown states)."""
        return self._index[state]

    @classmethod
    def from_sequence(
        cls,
        sequence: Sequence[Hashable],
        smoothing: float = 0.0,
        states: Optional[Sequence[Hashable]] = None,
    ) -> "MarkovChain":
        """Maximum-likelihood estimation from one observed sequence.

        ``smoothing`` adds Laplace pseudo-counts so unseen transitions
        keep non-zero probability.  States default to those observed,
        in first-appearance order.
        """
        if len(sequence) < 2:
            raise ValueError(f"need >= 2 observations, got {len(sequence)}")
        if states is None:
            seen: dict[Hashable, None] = {}
            for s in sequence:
                seen.setdefault(s, None)
            states = list(seen)
        index = {s: i for i, s in enumerate(states)}
        n = len(states)
        counts = np.full((n, n), float(smoothing))
        for a, b in zip(sequence[:-1], sequence[1:]):
            counts[index[a], index[b]] += 1.0
        rows = counts.sum(axis=1, keepdims=True)
        # States never left (absorbing-by-truncation): self-loop.
        matrix = np.where(rows > 0, counts / np.where(rows > 0, rows, 1.0), 0.0)
        for i in range(n):
            if rows[i, 0] == 0:
                matrix[i, i] = 1.0
        initial = np.zeros(n)
        initial[index[sequence[0]]] = 1.0
        return cls(states, matrix, initial)

    def sample_path(
        self,
        n_steps: int,
        rng: np.random.Generator,
        start: Optional[Hashable] = None,
    ) -> list[Hashable]:
        """Generate a state path of length ``n_steps``."""
        if n_steps < 1:
            raise ValueError(f"need >= 1 step, got {n_steps}")
        if start is None:
            current = choice_index(self._initial_cdf, rng)
        else:
            current = self.index_of(start)
        states = self.states
        row_cdfs = self._row_cdfs
        path = [states[current]]
        for _ in range(n_steps - 1):
            current = choice_index(row_cdfs[current], rng)
            path.append(states[current])
        return path

    def stationary_distribution(self) -> np.ndarray:
        """Stationary distribution via the leading left eigenvector.

        For reducible chains this returns one valid stationary
        distribution (the eigenvector numpy finds).
        """
        values, vectors = np.linalg.eig(self.transition_matrix.T)
        closest = int(np.argmin(np.abs(values - 1.0)))
        vector = np.real(vectors[:, closest])
        vector = np.abs(vector)
        total = vector.sum()
        if total == 0:
            raise ValueError("degenerate chain: no stationary distribution found")
        return vector / total

    def log_likelihood(self, sequence: Sequence[Hashable]) -> float:
        """Log-probability of an observed sequence under this chain."""
        if len(sequence) < 1:
            raise ValueError("empty sequence")
        first = self.index_of(sequence[0])
        p0 = self.initial_distribution[first]
        total = float(np.log(p0 + 1e-300))
        for a, b in zip(sequence[:-1], sequence[1:]):
            p = self.transition_matrix[self.index_of(a), self.index_of(b)]
            total += float(np.log(p + 1e-300))
        return total

    def describe(self) -> str:
        """Human-readable rendering (used by the Figure 2 bench)."""
        lines = [f"MarkovChain over {self.n_states} states:"]
        for i, state in enumerate(self.states):
            row = self.transition_matrix[i]
            top = np.argsort(row)[::-1][:3]
            arcs = ", ".join(
                f"-> {self.states[j]}: {row[j]:.2f}" for j in top if row[j] > 0
            )
            lines.append(f"  {state}: {arcs}")
        return "\n".join(lines)
