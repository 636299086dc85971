"""Tests for the DVFS evaluator."""

import numpy as np
import pytest

from repro.breadth import CpuUtilizationModel
from repro.datacenter import (
    DvfsSetting,
    evaluate_dvfs_policy,
    model_guided_policy,
)

HIGH = DvfsSetting("high", frequency=1.0, idle_power=60.0, peak_power=180.0)
LOW = DvfsSetting("low", frequency=0.5, idle_power=30.0, peak_power=80.0)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


# -- DVFS ---------------------------------------------------------------


def test_dvfs_setting_power_interpolates():
    assert HIGH.power(0.0) == 60.0
    assert HIGH.power(1.0) == 180.0
    assert HIGH.power(0.5) == pytest.approx(120.0)


def test_dvfs_setting_validation():
    with pytest.raises(ValueError):
        DvfsSetting("bad", frequency=0.0, idle_power=10, peak_power=20)
    with pytest.raises(ValueError):
        DvfsSetting("bad", frequency=0.5, idle_power=30, peak_power=20)


def test_always_high_never_violates():
    series = np.linspace(0.0, 0.9, 100)
    result = evaluate_dvfs_policy(series, [HIGH, LOW], lambda h: 0)
    assert result.violations == 0
    assert result.settings_used == {"high": 100, "low": 0}


def test_always_low_violates_on_heavy_windows():
    series = np.array([0.2, 0.8, 0.3, 0.9])
    result = evaluate_dvfs_policy(series, [HIGH, LOW], lambda h: 1)
    assert result.violations == 2  # 0.8 and 0.9 exceed f=0.5


def test_low_frequency_saves_energy_on_idle_series():
    series = np.full(200, 0.1)
    high = evaluate_dvfs_policy(series, [HIGH, LOW], lambda h: 0)
    low = evaluate_dvfs_policy(series, [HIGH, LOW], lambda h: 1)
    assert low.energy_joules < high.energy_joules
    assert low.violations == 0


def test_model_guided_policy_tracks_two_level_series(rng):
    # Sticky low/high utilization phases with equal mass so the
    # quantile levels split them cleanly: the predictor should pick the
    # low state in quiet phases and the high state in busy phases.
    quiet = np.clip(rng.normal(0.15, 0.02, 300), 0, 1)
    busy = np.clip(rng.normal(0.75, 0.02, 300), 0, 1)
    series = np.concatenate([quiet, busy])
    model = CpuUtilizationModel(n_levels=2).fit(series)
    policy = model_guided_policy(model, [HIGH, LOW], headroom=1.2)
    result = evaluate_dvfs_policy(series, [HIGH, LOW], policy)
    always_high = evaluate_dvfs_policy(series, [HIGH, LOW], lambda h: 0)
    # Saves energy vs always-high, violating only at the phase edge.
    assert result.energy_joules < always_high.energy_joules
    assert result.violation_rate < 0.02
    assert result.settings_used["low"] > 250


def test_dvfs_validation():
    with pytest.raises(ValueError):
        evaluate_dvfs_policy([], [HIGH], lambda h: 0)
    with pytest.raises(ValueError):
        evaluate_dvfs_policy([0.5], [], lambda h: 0)
    with pytest.raises(ValueError):
        evaluate_dvfs_policy([0.5], [HIGH], lambda h: 7)
    with pytest.raises(ValueError):
        model_guided_policy(CpuUtilizationModel(), [HIGH], headroom=0.5)

