"""Tests for WorkloadConfig."""

import dataclasses
import math

import pytest

from repro.workload.config import DAY, WorkloadConfig
from repro.workload.presets import alternative_config, news_config


def test_defaults_match_paper():
    config = WorkloadConfig()
    assert config.horizon == 7 * DAY
    assert config.distinct_pages == 6000
    assert config.modified_pages == 2400
    assert config.total_requests == 195_000
    assert config.server_count == 100
    assert config.zipf_alpha == 1.5
    assert config.pool_overlap == 0.6


def test_scaled_shrinks_proportionally():
    config = WorkloadConfig().scaled(0.1)
    assert config.distinct_pages == 600
    assert config.modified_pages == 240
    assert config.total_requests == 19_500
    assert config.server_count == 10
    assert config.horizon == 7 * DAY  # time axis unchanged


def test_scaled_enforces_floors():
    config = WorkloadConfig().scaled(0.0001)
    assert config.distinct_pages >= 10
    assert config.server_count >= 2
    assert config.total_requests >= 100


def test_scaled_validation():
    with pytest.raises(ValueError):
        WorkloadConfig().scaled(0.0)


def test_with_alpha():
    """ALTERNATIVE is NEWS with α = 1.0 and every other knob equal (§4)."""
    news = news_config(0.5)
    assert alternative_config(0.5) == dataclasses.replace(news, zipf_alpha=1.0)
    assert news.zipf_alpha == 1.5


@pytest.mark.parametrize(
    "field,value",
    [
        ("horizon", 0.0),
        ("distinct_pages", 0),
        ("modified_pages", 9999),
        ("server_count", 0),
        ("total_requests", -1),
        ("zipf_alpha", 0.0),
        ("pool_overlap", 1.5),
        ("modified_popularity_bias", -1.0),
        ("story_decay_mode", "linear"),
        ("story_halflife_hours", 0.0),
        ("short_interval_fraction", 0.96),
    ],
)
def test_validation_rejects_bad_values(field, value):
    with pytest.raises(ValueError):
        dataclasses.replace(WorkloadConfig(), **{field: value})


def test_age_exponent_count_must_match_classes():
    with pytest.raises(ValueError):
        dataclasses.replace(WorkloadConfig(), age_exponents=(1.0, 2.0))


def test_config_is_frozen():
    config = WorkloadConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.zipf_alpha = 2.0


NON_FINITE_FIELDS = [
    "horizon",
    "zipf_alpha",
    "story_halflife_hours",
    "story_decay_exponent",
    "modified_popularity_bias",
    "pool_exponent",
    "class_rate_decay",
    "min_interval",
    "max_interval",
    "short_interval_fraction",
    "long_interval_fraction",
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", NON_FINITE_FIELDS)
def test_validation_rejects_non_finite_values(field, value):
    with pytest.raises(ValueError, match=field) as error:
        dataclasses.replace(WorkloadConfig(), **{field: value})
    assert "\n" not in str(error.value)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_validation_rejects_a_non_finite_age_exponent(value):
    with pytest.raises(ValueError, match="age_exponents"):
        dataclasses.replace(WorkloadConfig(), age_exponents=(2.0, value, 1.0, 0.5))
