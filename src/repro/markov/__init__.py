"""Markov modeling library.

Discrete-time Markov chains (KOOZA's storage/CPU/memory models),
quantile discretization of continuous features into states,
hierarchical two-level chains (the paper's configurable-detail
substitution), and the Gaussian HMM used by the ECHMM memory baseline.
"""

from .. import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    ".chain": ("MarkovChain",),
    ".discretize": ("QuantileDiscretizer",),
    ".hierarchical": ("HierarchicalMarkovChain",),
    ".hmm": ("GaussianHMM",),
})

__all__ = [
    "GaussianHMM",
    "HierarchicalMarkovChain",
    "MarkovChain",
    "QuantileDiscretizer",
]
