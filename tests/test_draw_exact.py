"""Property tests: cached CDF draws equal ``Generator.choice(n, p=p)``.

Every categorical draw on the model side (Markov chain steps, coupler
draws, the HMM state walk, request-class mixes) searches a cumulative
table built once instead of calling ``rng.choice(n, p=p)`` per draw.
The claim is draw-exactness: on twin generators, the cached path and
an inline ``rng.choice`` reference return the same index sequence and
leave the same ``bit_generator.state``, so nothing downstream of a
draw can tell the two apart.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import SubsystemCoupler
from repro.markov import GaussianHMM, MarkovChain
from repro.simulation.rng import choice_cdf, choice_index
from repro.workloads.mixes import RequestClass, WorkloadMix

seeds = st.integers(min_value=0, max_value=2**32 - 1)

#: Entries mix exact zeros, tiny masses and ordinary weights.
entries = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-300, max_value=1e-12),
    st.floats(min_value=1e-6, max_value=1.0),
)


@st.composite
def probability_vectors(draw, n=None):
    """Probability vectors whose sum is 1 within 1e-8 (what both
    ``MarkovChain`` and ``Generator.choice`` accept)."""
    if n is None:
        n = draw(st.integers(min_value=1, max_value=12))
    raw = np.array(draw(st.lists(entries, min_size=n, max_size=n)))
    if raw.sum() == 0:
        raw[draw(st.integers(min_value=0, max_value=n - 1))] = 1.0
    drift = draw(st.floats(min_value=-1e-8, max_value=1e-8))
    return raw / raw.sum() * (1.0 + drift)


@st.composite
def chains(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    rows = np.array([draw(probability_vectors(n)) for _ in range(n)])
    initial = draw(probability_vectors(n))
    return MarkovChain([("s", i) for i in range(n)], rows, initial)


def twins(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


@settings(max_examples=300, deadline=None)
@given(probability_vectors(), seeds, st.integers(min_value=1, max_value=64))
def test_choice_index_matches_generator_choice(p, seed, k):
    fast, ref = twins(seed)
    cdf = choice_cdf(p)
    got = [choice_index(cdf, fast) for _ in range(k)]
    want = [int(ref.choice(len(p), p=p)) for _ in range(k)]
    assert got == want
    assert fast.bit_generator.state == ref.bit_generator.state
    assert all(p[i] > 0 for i in got)


def reference_path(chain, n_steps, rng, start=None):
    """``MarkovChain.sample_path`` as written with ``rng.choice``."""
    if start is None:
        current = int(rng.choice(chain.n_states, p=chain.initial_distribution))
    else:
        current = chain.index_of(start)
    path = [chain.states[current]]
    for _ in range(n_steps - 1):
        current = int(rng.choice(chain.n_states, p=chain.transition_matrix[current]))
        path.append(chain.states[current])
    return path


@settings(max_examples=150, deadline=None)
@given(chains(), seeds, st.integers(min_value=1, max_value=40), st.data())
def test_sample_path_matches_choice_reference(chain, seed, n_steps, data):
    start = data.draw(st.one_of(st.none(), st.sampled_from(chain.states)))
    fast, ref = twins(seed)
    # Repeated short walks, as KoozaModel.synthesize makes them.
    for _ in range(3):
        got = chain.sample_path(n_steps, fast, start=start)
        assert got == reference_path(chain, n_steps, ref, start=start)
        start = got[-1] if start is not None else None
    assert fast.bit_generator.state == ref.bit_generator.state


@settings(max_examples=150, deadline=None)
@given(
    st.dictionaries(
        st.integers(min_value=0, max_value=5),
        st.dictionaries(
            st.tuples(st.sampled_from("rw"), st.integers(0, 6)),
            st.integers(min_value=1, max_value=12),
            min_size=1,
            max_size=8,
        ),
        min_size=1,
        max_size=4,
    ),
    seeds,
    st.integers(min_value=1, max_value=40),
)
def test_coupler_sample_matches_choice_reference(buckets, seed, k):
    coupler = SubsystemCoupler()
    for net_state, bucket in buckets.items():
        for state, count in bucket.items():
            for _ in range(count):
                coupler.observe(net_state, state)
    fast, ref = twins(seed)
    net_states = list(buckets)
    for i in range(k):
        net_state = net_states[i % len(net_states)]
        states = list(buckets[net_state])
        probs = np.array([float(buckets[net_state][s]) for s in states])
        want = states[int(ref.choice(len(states), p=probs / probs.sum()))]
        assert coupler.sample(net_state, fast) == want
    assert fast.bit_generator.state == ref.bit_generator.state


def reference_hmm_sample(hmm, n, rng):
    """``GaussianHMM.sample`` as written with ``rng.choice``."""
    states = np.empty(n, dtype=int)
    states[0] = int(rng.choice(hmm.n_states, p=hmm.initial_))
    for t in range(1, n):
        states[t] = int(rng.choice(hmm.n_states, p=hmm.transition_[states[t - 1]]))
    return rng.normal(hmm.means_[states], np.sqrt(hmm.variances_[states]))


def hmm_with(n, rows, initial, rng):
    hmm = GaussianHMM(n, rng)
    hmm.means_ = np.arange(n, dtype=float) * 10.0
    hmm.variances_ = np.ones(n)
    hmm.transition_ = rows
    hmm.initial_ = initial
    return hmm


@settings(max_examples=100, deadline=None)
@given(st.data(), seeds, st.integers(min_value=1, max_value=60))
def test_hmm_sample_matches_choice_reference(data, seed, n):
    k = data.draw(st.integers(min_value=1, max_value=6))
    rows = np.array([data.draw(probability_vectors(k)) for _ in range(k)])
    initial = data.draw(probability_vectors(k))
    fast, ref = twins(seed)
    got = hmm_with(k, rows, initial, fast).sample(n)
    want = reference_hmm_sample(hmm_with(k, rows, initial, ref), n, ref)
    assert np.array_equal(got, want)
    assert fast.bit_generator.state == ref.bit_generator.state


def test_hmm_sample_follows_refit():
    """CDFs are rebuilt per call, so a refit's transitions take effect."""
    data = np.random.default_rng(3)
    first = np.concatenate([data.normal(0, 1, 150), data.normal(9, 1, 150)])
    second = np.concatenate([data.normal(0, 1, 30), data.normal(9, 1, 270)])
    fast, ref = twins(11)
    hmm = GaussianHMM(2, fast, max_iter=10)
    mirror = GaussianHMM(2, ref, max_iter=10)
    for obs in (first, second):
        hmm.fit(obs)
        mirror.fit(obs)
        got = hmm.sample(500)
        assert np.array_equal(got, reference_hmm_sample(mirror, 500, ref))
    assert fast.bit_generator.state == ref.bit_generator.state


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=8),
    seeds,
)
def test_workload_mix_matches_choice_reference(weights, seed):
    if sum(weights) == 0:
        weights[0] = 1.0
    classes = [
        RequestClass(f"c{i}", "read", 4096, 4096, weight=w)
        for i, w in enumerate(weights)
    ]
    fast, ref = twins(seed)
    mix = WorkloadMix(classes, fast)
    p = np.array(weights) / np.sum(weights)
    for _ in range(20):
        want = classes[int(ref.choice(len(classes), p=p))]
        assert mix.sample_class() is want
    assert fast.bit_generator.state == ref.bit_generator.state
