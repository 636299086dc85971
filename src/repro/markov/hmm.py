"""Gaussian hidden Markov model trained with Baum-Welch.

Moro et al. (the paper's memory-modeling exemplar) train an Ergodic
Continuous Hidden Markov Model on the sequence of virtual page numbers
treated as floating-point values, then generate synthetic memory
traces from it.  This is that model: ergodic (fully connected) states
with scalar Gaussian emissions, EM training, Viterbi decoding and
generative sampling.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..simulation.rng import choice_cdf, choice_index

__all__ = ["GaussianHMM"]

_LOG_EPS = 1e-300


class GaussianHMM:
    """Ergodic HMM with 1-D Gaussian emissions."""

    def __init__(
        self,
        n_states: int,
        rng: np.random.Generator,
        max_iter: int = 50,
        tol: float = 1e-4,
        min_variance: float = 1e-8,
    ):
        if n_states < 1:
            raise ValueError(f"n_states must be >= 1, got {n_states}")
        self.n_states = n_states
        self.rng = rng
        self.max_iter = max_iter
        self.tol = tol
        self.min_variance = min_variance
        self.means_: Optional[np.ndarray] = None
        self.variances_: Optional[np.ndarray] = None
        self.transition_: Optional[np.ndarray] = None
        self.initial_: Optional[np.ndarray] = None
        self.log_likelihood_: float = float("-inf")

    # -- internals ---------------------------------------------------------

    def _log_emission(self, observations: np.ndarray) -> np.ndarray:
        """(T, K) log N(obs_t | mean_k, var_k)."""
        var = self.variances_
        diff = observations[:, None] - self.means_[None, :]
        return -0.5 * (np.log(2 * np.pi * var)[None, :] + diff**2 / var[None, :])

    def _forward_backward(self, log_b: np.ndarray):
        T, K = log_b.shape
        log_a = np.log(self.transition_ + _LOG_EPS)
        log_pi = np.log(self.initial_ + _LOG_EPS)

        log_alpha = np.empty((T, K))
        log_alpha[0] = log_pi + log_b[0]
        for t in range(1, T):
            log_alpha[t] = log_b[t] + np.logaddexp.reduce(
                log_alpha[t - 1][:, None] + log_a, axis=0
            )
        log_beta = np.zeros((T, K))
        for t in range(T - 2, -1, -1):
            log_beta[t] = np.logaddexp.reduce(
                log_a + (log_b[t + 1] + log_beta[t + 1])[None, :], axis=1
            )
        log_likelihood = float(np.logaddexp.reduce(log_alpha[-1]))
        log_gamma = log_alpha + log_beta - log_likelihood
        return log_alpha, log_beta, log_gamma, log_likelihood

    def _init_params(self, observations: np.ndarray) -> None:
        quantiles = np.linspace(0.05, 0.95, self.n_states)
        self.means_ = np.quantile(observations, quantiles)
        spread = observations.var() / max(1, self.n_states)
        self.variances_ = np.full(self.n_states, max(spread, self.min_variance))
        self.transition_ = np.full(
            (self.n_states, self.n_states), 1.0 / self.n_states
        )
        # Slight self-transition bias breaks symmetry and speeds EM.
        self.transition_ += np.eye(self.n_states)
        self.transition_ /= self.transition_.sum(axis=1, keepdims=True)
        self.initial_ = np.full(self.n_states, 1.0 / self.n_states)

    # -- public API ----------------------------------------------------------

    def fit(self, observations: Sequence[float]) -> "GaussianHMM":
        """Baum-Welch training on one observation sequence."""
        obs = np.asarray(observations, dtype=float)
        if obs.size < 2 * self.n_states:
            raise ValueError(
                f"need >= {2 * self.n_states} observations, got {obs.size}"
            )
        self._init_params(obs)
        T = obs.size
        previous = float("-inf")
        for _ in range(self.max_iter):
            log_b = self._log_emission(obs)
            log_alpha, log_beta, log_gamma, loglik = self._forward_backward(log_b)
            gamma = np.exp(log_gamma)

            # Transition expected counts (xi summed over time).
            log_a = np.log(self.transition_ + _LOG_EPS)
            log_xi_sum = np.full((self.n_states, self.n_states), -np.inf)
            for t in range(T - 1):
                log_xi_t = (
                    log_alpha[t][:, None]
                    + log_a
                    + (log_b[t + 1] + log_beta[t + 1])[None, :]
                    - loglik
                )
                log_xi_sum = np.logaddexp(log_xi_sum, log_xi_t)
            xi_sum = np.exp(log_xi_sum)

            # M-step.
            self.initial_ = gamma[0] / gamma[0].sum()
            denom = gamma[:-1].sum(axis=0) + _LOG_EPS
            self.transition_ = xi_sum / denom[:, None]
            self.transition_ /= self.transition_.sum(axis=1, keepdims=True)
            weights = gamma.sum(axis=0) + _LOG_EPS
            self.means_ = (gamma * obs[:, None]).sum(axis=0) / weights
            diff2 = (obs[:, None] - self.means_[None, :]) ** 2
            self.variances_ = np.maximum(
                (gamma * diff2).sum(axis=0) / weights, self.min_variance
            )

            if abs(loglik - previous) < self.tol * max(1.0, abs(previous)):
                previous = loglik
                break
            previous = loglik
        self.log_likelihood_ = previous
        return self

    def _check_fitted(self) -> None:
        if self.means_ is None:
            raise RuntimeError("HMM is not fitted; call fit() first")

    def score(self, observations: Sequence[float]) -> float:
        """Log-likelihood of a sequence under the fitted model."""
        self._check_fitted()
        obs = np.asarray(observations, dtype=float)
        log_b = self._log_emission(obs)
        _, _, _, loglik = self._forward_backward(log_b)
        return loglik

    def viterbi(self, observations: Sequence[float]) -> np.ndarray:
        """Most likely hidden-state path for a sequence."""
        self._check_fitted()
        obs = np.asarray(observations, dtype=float)
        log_b = self._log_emission(obs)
        log_a = np.log(self.transition_ + _LOG_EPS)
        T = obs.size
        delta = np.empty((T, self.n_states))
        psi = np.zeros((T, self.n_states), dtype=int)
        delta[0] = np.log(self.initial_ + _LOG_EPS) + log_b[0]
        for t in range(1, T):
            scores = delta[t - 1][:, None] + log_a
            psi[t] = scores.argmax(axis=0)
            delta[t] = scores.max(axis=0) + log_b[t]
        path = np.empty(T, dtype=int)
        path[-1] = int(delta[-1].argmax())
        for t in range(T - 2, -1, -1):
            path[t] = psi[t + 1][path[t + 1]]
        return path

    def sample(self, n: int) -> np.ndarray:
        """Generate a synthetic observation sequence of length ``n``."""
        self._check_fitted()
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        # Draw tables are built per call: fit() replaces transition_.
        rng = self.rng
        row_cdfs = [choice_cdf(row) for row in self.transition_]
        states = np.empty(n, dtype=int)
        current = choice_index(choice_cdf(self.initial_), rng)
        states[0] = current
        for t in range(1, n):
            current = choice_index(row_cdfs[current], rng)
            states[t] = current
        return rng.normal(
            self.means_[states], np.sqrt(self.variances_[states])
        )
