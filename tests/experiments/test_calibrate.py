"""Tests for β calibration (§5.1)."""

import pytest

from repro.experiments.calibrate import (
    DEFAULT_BETAS,
    calibrate_all,
    calibrate_beta,
    trace_prefix,
)
from repro.workload.presets import make_trace


@pytest.fixture(scope="module")
def trace():
    return make_trace("news", scale=0.03, seed=3)


def test_trace_prefix_truncates_both_streams(trace):
    prefix = trace_prefix(trace, 0.5)
    cutoff = trace.config.horizon * 0.5
    assert prefix.config.horizon == cutoff
    assert all(event.time <= cutoff for event in prefix.publishes)
    assert all(record.time <= cutoff for record in prefix.requests)
    assert prefix.request_count < trace.request_count
    assert prefix.pages == trace.pages  # page metadata shared


def test_trace_prefix_full_is_identity(trace):
    assert trace_prefix(trace, 1.0) is trace


def test_trace_prefix_validation(trace):
    with pytest.raises(ValueError):
        trace_prefix(trace, 0.0)
    with pytest.raises(ValueError):
        trace_prefix(trace, 1.5)


@pytest.fixture(scope="module")
def calibrated(trace):
    return calibrate_all(trace, capacity_fraction=0.05, prefix_fraction=0.3)


def test_calibrate_all_covers_strategies(calibrated):
    assert set(calibrated) == {"gdstar", "sg1", "sg2"}


def test_calibrate_beta_returns_grid_member(calibrated):
    for result in calibrated.values():
        assert result.best_beta in DEFAULT_BETAS
        assert set(result.prefix_scores) == set(DEFAULT_BETAS)
        assert all(0.0 <= score <= 1.0 for score in result.prefix_scores.values())


def test_calibrate_beta_best_is_argmax(calibrated):
    for result in calibrated.values():
        best_score = result.prefix_scores[result.best_beta]
        assert best_score == max(result.prefix_scores.values())


def test_calibrate_beta_is_calibrate_all_for_one_strategy(trace, calibrated):
    assert calibrate_beta(trace, "sg2", 0.05, 0.3) == calibrated["sg2"]


def test_default_betas_match_paper_range():
    assert DEFAULT_BETAS[0] == 0.0625
    assert DEFAULT_BETAS[-1] == 4.0
