"""Unit + property tests for summaries, KS and heavy-tail detection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats import hill_estimator, ks_distance, ks_two_sample, summarize


def test_summarize_basic_moments():
    s = summarize([1.0, 2.0, 3.0, 4.0])
    assert s.count == 4
    assert s.mean == pytest.approx(2.5)
    assert s.minimum == 1.0
    assert s.maximum == 4.0
    assert s.p50 == pytest.approx(2.5)


def test_summarize_empty_rejected():
    with pytest.raises(ValueError):
        summarize([])


def test_summarize_single_value_zero_std():
    s = summarize([7.0])
    assert s.std == 0.0
    assert s.cov == 0.0


def test_cov_infinite_for_zero_mean():
    s = summarize([-1.0, 1.0])
    assert s.cov == float("inf")


@given(
    st.lists(st.floats(min_value=0.1, max_value=1e6), min_size=1, max_size=200)
)
def test_summarize_quantiles_ordered(values):
    s = summarize(values)
    assert s.minimum <= s.p50 <= s.p95 <= s.p99 <= s.maximum


def test_ks_identical_samples_low_statistic():
    rng = np.random.default_rng(0)
    a = rng.normal(0, 1, 1000)
    stat, p = ks_two_sample(a, a)
    assert stat == 0.0
    assert p == pytest.approx(1.0)


def test_ks_distinguishes_different_distributions():
    rng = np.random.default_rng(1)
    stat, p = ks_two_sample(rng.normal(0, 1, 500), rng.normal(3, 1, 500))
    assert stat > 0.5
    assert p < 1e-6


def test_ks_same_distribution_high_pvalue():
    rng = np.random.default_rng(2)
    stat, p = ks_two_sample(
        rng.exponential(1, 800), rng.exponential(1, 800)
    )
    assert p > 0.01


def test_ks_empty_rejected():
    with pytest.raises(ValueError):
        ks_two_sample([], [1.0])


def _scipy_statistic(a, b) -> float:
    from scipy import stats

    return float(stats.ks_2samp(a, b).statistic)


@st.composite
def _ks_pairs(draw):
    """Two samples of 1..400 values, ties made heavy by rounding."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    decimals = draw(st.integers(0, 3))
    n1 = draw(st.integers(1, 400))
    n2 = draw(st.integers(1, 400))
    a = np.round(rng.normal(0.0, 2.0, n1), decimals)
    relation = draw(st.sampled_from(["shifted", "identical", "disjoint"]))
    if relation == "identical":
        return a, a.copy()
    if relation == "disjoint":
        return a, a.max() + 1.0 + np.round(rng.exponential(1.0, n2), decimals)
    shift = draw(st.floats(min_value=-3.0, max_value=3.0))
    scale = draw(st.floats(min_value=0.25, max_value=4.0))
    return a, np.round(rng.normal(shift, 2.0 * scale, n2), decimals)


@settings(max_examples=300, deadline=None)
@given(_ks_pairs())
def test_ks_distance_is_bitwise_ks_2samp_statistic(pair):
    a, b = pair
    assert ks_distance(a, b).hex() == _scipy_statistic(a, b).hex()
    assert ks_distance(b, a).hex() == _scipy_statistic(b, a).hex()


@pytest.mark.parametrize(
    "n1,n2", [(10000, 10000), (9999, 10000), (10000, 10001), (10001, 7), (12000, 9000)]
)
def test_ks_distance_matches_across_the_exact_mode_switch(n1, n2):
    # ks_2samp rounds its statistic to a multiple of 1/lcm(n1, n2) only
    # while both samples hold at most 10000 values.
    rng = np.random.default_rng(n1 * 31 + n2)
    a = np.round(rng.exponential(1.0, n1), 2)
    b = np.round(rng.exponential(1.1, n2), 2)
    assert ks_distance(a, b).hex() == _scipy_statistic(a, b).hex()


def test_ks_distance_propagates_nan_like_ks_2samp():
    assert np.isnan(ks_distance([1.0, float("nan")], [2.0]))
    assert np.isnan(_scipy_statistic([1.0, float("nan")], [2.0]))


@pytest.mark.parametrize("a,b", [([], [1.0]), ([1.0], []), ([], [])])
def test_ks_distance_empty_rejected_like_ks_two_sample(a, b):
    with pytest.raises(ValueError, match="^both samples must be non-empty$"):
        ks_two_sample(a, b)
    with pytest.raises(ValueError, match="^both samples must be non-empty$"):
        ks_distance(a, b)


def test_hill_estimator_recovers_pareto_alpha():
    rng = np.random.default_rng(3)
    alpha = 1.5
    samples = (1.0 + rng.pareto(alpha, 50_000))
    estimate = hill_estimator(samples, tail_fraction=0.05)
    assert estimate == pytest.approx(alpha, rel=0.15)


def test_hill_estimator_light_tail_is_large():
    rng = np.random.default_rng(4)
    estimate = hill_estimator(rng.exponential(1.0, 20_000) + 1.0)
    assert estimate > 3.0


def test_hill_estimator_validation():
    with pytest.raises(ValueError):
        hill_estimator([1.0, 2.0], tail_fraction=0.9)
    with pytest.raises(ValueError):
        hill_estimator([1.0, 2.0], tail_fraction=0.1)
