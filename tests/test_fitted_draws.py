"""Property tests: fitted-family draws equal scipy's ``rvs``, bit for bit.

``FittedDistribution`` draws the five ``CANDIDATE_FAMILIES`` through a
numpy table (``standard_exponential``, ``standard_gamma``, ``exp`` of a
normal, and the Weibull and Pareto inverse CDFs of a uniform) instead
of calling the scipy frozen distribution's ``rvs``.  The claim is
draw-exactness: on twin generators, the table and scipy return the same
bits and leave the same ``bit_generator.state``, in the array form
(``sample``) and in scipy's scalar form (``draw``), so no synthesized
request, replay or in-depth prediction can tell them apart.  A scipy
release that changes a family's formula fails here by name.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats
from scipy.stats._distn_infrastructure import rv_generic

from repro.core import KoozaConfig, KoozaTrainer
from repro.datacenter import run_gfs_workload
from repro.queueing import (
    CANDIDATE_FAMILIES,
    DistributionArrivals,
    FittedDistribution,
    fit_distribution,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)

#: Shapes include those whose Weibull ``1/c`` or Pareto ``-1/b`` is an
#: exponent ndarray ``**`` may compute by a shortcut (1, -1, 0.5, 2)
#: instead of the ``power`` ufunc.
shapes = st.one_of(
    st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.0, 1 / 3]),
    st.floats(min_value=0.05, max_value=20.0),
)
locs = st.one_of(st.just(0.0), st.floats(min_value=-5.0, max_value=5.0))
scales = st.one_of(st.just(1.0), st.floats(min_value=1e-6, max_value=1e3))
bad_shapes = st.sampled_from([0.0, -0.5, -2.0, float("nan"), float("-inf")])
bad_scales = st.sampled_from([-1e-9, -1.0, float("nan"), float("-inf")])


def fitted(family, params):
    return FittedDistribution(family, tuple(params), 0.0, 1.0, 0.0)


def shape_params(family, draw):
    return () if family == "expon" else (draw(shapes),)


@st.composite
def families_and_params(draw):
    family = draw(st.sampled_from(CANDIDATE_FAMILIES))
    return family, shape_params(family, draw) + (draw(locs), draw(scales))


def twins(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def assert_same_draws(ours, theirs, fast, ref):
    np.testing.assert_array_equal(bits(ours), bits(theirs))
    assert fast.bit_generator.state == ref.bit_generator.state


def scipy_sample(fit, n, rng):
    return np.maximum(0.0, fit.frozen.rvs(size=n, random_state=rng))


def scipy_draw(fit, rng):
    return float(max(0.0, fit.frozen.rvs(random_state=rng)))


@settings(max_examples=300, deadline=None)
@given(families_and_params(), seeds, st.integers(min_value=2, max_value=300))
def test_sample_matches_scipy_rvs(case, seed, n):
    fit = fitted(*case)
    fast, ref = twins(seed)
    for size in (1, n, 1):
        assert_same_draws(
            fit.sample(size, fast), scipy_sample(fit, size, ref), fast, ref
        )


@settings(max_examples=300, deadline=None)
@given(families_and_params(), seeds, st.integers(min_value=1, max_value=50))
def test_scalar_draw_matches_scipy_scalar_rvs(case, seed, k):
    fit = fitted(*case)
    fast, ref = twins(seed)
    ours = [fit.draw(fast) for _ in range(k)]
    theirs = [scipy_draw(fit, ref) for _ in range(k)]
    assert all(type(value) is float for value in ours)
    assert_same_draws(ours, theirs, fast, ref)


def test_scalar_and_array_forms_differ_where_scipy_does():
    """scipy's scalar path uses numpy-scalar ``pow``, its array path the
    ``power`` ufunc; the two differ in the last bit for the inverse-CDF
    families, so callers pinned to one form must keep it."""
    for family in ("weibull_min", "pareto"):
        fit = fitted(family, (0.7, 0.0, 1.0))
        scalar_rng, array_rng = twins(1)
        scalar = [fit.draw(scalar_rng) for _ in range(2000)]
        array = [float(fit.sample(1, array_rng)[0]) for _ in range(2000)]
        assert scalar != array
        assert scalar == pytest.approx(array, rel=1e-14)


@settings(max_examples=100, deadline=None)
@given(st.data(), seeds)
def test_domain_errors_raise_like_scipy(data, seed):
    family = data.draw(st.sampled_from(CANDIDATE_FAMILIES))
    if family == "expon" or data.draw(st.booleans()):
        params = shape_params(family, data.draw) + (0.0, data.draw(bad_scales))
    else:
        params = (data.draw(bad_shapes), 0.0, 1.0)
    fit = fitted(family, params)
    rng = np.random.default_rng(seed)
    before = rng.bit_generator.state
    with pytest.raises(ValueError) as theirs:
        fit.frozen.rvs(size=3, random_state=rng)
    for call in (lambda: fit.sample(3, rng), lambda: fit.draw(rng)):
        with pytest.raises(ValueError) as ours:
            call()
        assert str(ours.value) == str(theirs.value)
    assert rng.bit_generator.state == before


@settings(max_examples=100, deadline=None)
@given(st.data(), seeds, st.integers(min_value=1, max_value=20))
def test_zero_scale_returns_loc_and_draws_nothing(data, seed, n):
    family = data.draw(st.sampled_from(CANDIDATE_FAMILIES))
    fit = fitted(family, shape_params(family, data.draw) + (data.draw(locs), 0.0))
    fast, ref = twins(seed)
    before = fast.bit_generator.state
    assert_same_draws(fit.sample(n, fast), scipy_sample(fit, n, ref), fast, ref)
    assert_same_draws(fit.draw(fast), scipy_draw(fit, ref), fast, ref)
    assert fast.bit_generator.state == before


@pytest.mark.parametrize(
    "family,params",
    [("expon", ()), ("expon", (0.5,)), ("gamma", (2.0,)), ("pareto", (1.5, -1.0))],
)
def test_missing_loc_and_scale_default_as_in_scipy(family, params):
    fit = fitted(family, params)
    fast, ref = twins(4)
    assert_same_draws(fit.sample(50, fast), scipy_sample(fit, 50, ref), fast, ref)
    assert_same_draws(fit.draw(fast), scipy_draw(fit, ref), fast, ref)


def test_families_outside_the_table_draw_with_scipy():
    fit = fitted("uniform", (0.5, 2.0))
    fast, ref = twins(3)
    assert_same_draws(fit.sample(50, fast), scipy_sample(fit, 50, ref), fast, ref)
    assert_same_draws(fit.draw(fast), scipy_draw(fit, ref), fast, ref)


@settings(max_examples=200, deadline=None)
@given(st.floats(allow_nan=True, allow_infinity=True))
def test_ndtr_is_the_normal_cdf(z):
    """``CopulaArrivals`` maps its latent state through ``special.ndtr``,
    the function ``stats.norm.cdf`` evaluates."""
    np.testing.assert_array_equal(
        bits(special.ndtr(z)), bits(stats.norm.cdf(z))
    )


# -- the model layer draws without scipy's rvs --------------------------


@lru_cache(maxsize=None)
def gfs_model():
    traces = run_gfs_workload(n_requests=200, seed=7).traces
    return KoozaTrainer(KoozaConfig()).fit(traces)


def _refuse_rvs(*args, **kwargs):
    raise AssertionError("scipy rvs called on the draw path")


@pytest.mark.parametrize("family", CANDIDATE_FAMILIES)
def test_synthesize_draws_every_family_without_scipy_rvs(family, monkeypatch):
    model = gfs_model()
    fit = fit_distribution(model.arrival_gaps, families=(family,))
    assert fit.family == family
    monkeypatch.setattr(model, "arrival_fit", fit)
    # The reference: the same model with scipy's rvs as the sampler.
    with monkeypatch.context() as scipy_path:
        scipy_path.setattr(FittedDistribution, "sample", scipy_sample)
        expected = repr(model.synthesize(300, np.random.default_rng(42)))
    with monkeypatch.context() as no_rvs:
        no_rvs.setattr(rv_generic, "rvs", _refuse_rvs)
        assert repr(model.synthesize(300, np.random.default_rng(42))) == expected


@pytest.mark.parametrize("family", CANDIDATE_FAMILIES)
def test_distribution_arrivals_draw_every_family_without_scipy_rvs(
    family, monkeypatch
):
    fit = fit_distribution(gfs_model().arrival_gaps, families=(family,))
    ref = np.random.default_rng(5)
    expected = [scipy_draw(fit, ref) for _ in range(500)]
    monkeypatch.setattr(rv_generic, "rvs", _refuse_rvs)
    arrivals = DistributionArrivals(fit, np.random.default_rng(5))
    assert list(arrivals.sample(500)) == expected
