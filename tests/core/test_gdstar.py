"""Tests for the GD* baseline policy."""

import pytest

from repro.core.gdstar import GDStarPolicy
from repro.core.policy import HIT, MISS, STALE


def make(capacity=1000, cost=2.0, beta=2.0, **kwargs):
    return GDStarPolicy(capacity, cost=cost, beta=beta, **kwargs)


def test_publish_is_noop():
    policy = make()
    outcome = policy.on_publish(1, 0, 100, 50, now=0.0)
    assert not outcome.stored
    assert policy.held_version(1) is None
    assert policy.used_bytes == 0


def test_miss_then_hit(replay_one_proxy):
    policy = make()
    first = policy.on_request(1, 0, 100, 0, now=0.0)
    assert not first.hit and first.cached_after
    second = policy.on_request(1, 0, 100, 0, now=1.0)
    assert second.hit
    # What the replay records per request, and what it counts from it.
    assert (first.code, second.code) == (MISS, HIT)
    stats = replay_one_proxy([(0.0, 0)], [(0.0, 0), (1.0, 0)], sizes=[100])
    assert (stats.requests, stats.hits) == (2, 1)


def test_eviction_order_by_value():
    # capacity for two pages; page values differ via access frequency.
    policy = make(capacity=200)
    policy.on_request(1, 0, 100, 0, now=0.0)
    policy.on_request(2, 0, 100, 0, now=1.0)
    policy.on_request(1, 0, 100, 0, now=2.0)  # page 1 now f=2
    policy.on_request(3, 0, 100, 0, now=3.0)  # must evict page 2 (f=1)
    assert policy.held_version(1) is not None
    assert policy.held_version(2) is None
    assert policy.held_version(3) is not None


def test_inflation_advances_on_eviction():
    policy = make(capacity=100)
    policy.on_request(1, 0, 100, 0, now=0.0)
    assert policy.inflation == 0.0
    policy.on_request(2, 0, 100, 0, now=1.0)  # evicts page 1
    assert policy.inflation > 0.0


def test_inflation_gives_recency_preference():
    # An old frequently-accessed page eventually loses to fresh pages.
    policy = make(capacity=300)
    for _ in range(5):
        policy.on_request(1, 0, 100, 0, now=0.0)  # f=5, valued at L=0
    # Cycle many distinct pages through; L rises past page 1's value.
    for page_id in range(2, 40):
        policy.on_request(page_id, 0, 100, 0, now=float(page_id))
    assert policy.held_version(1) is None


def test_oversized_page_served_without_caching():
    policy = make(capacity=50)
    outcome = policy.on_request(1, 0, 100, 0, now=0.0)
    assert not outcome.hit and not outcome.cached_after
    assert policy.used_bytes == 0


def test_stale_version_is_miss_and_refreshes(replay_one_proxy):
    policy = make()
    policy.on_request(1, 0, 100, 0, now=0.0)
    outcome = policy.on_request(1, 3, 100, 0, now=1.0)
    assert not outcome.hit and outcome.stale and outcome.cached_after
    assert policy.cached_version(1) == 3
    assert outcome.code == STALE
    hit = policy.on_request(1, 3, 100, 0, now=2.0)
    assert hit.hit
    stats = replay_one_proxy(
        [(0.0, 0), (0.5, 0)], [(0.0, 0), (1.0, 0), (2.0, 0)], sizes=[100]
    )
    assert (stats.stale_hits, stats.hits, stats.pages_fetched) == (1, 1, 2)


def test_in_cache_lfu_reset_on_eviction():
    policy = make(capacity=100)
    for _ in range(5):
        policy.on_request(1, 0, 100, 0, now=0.0)
    policy.on_request(2, 0, 100, 0, now=1.0)  # evicts 1, f discarded
    policy.on_request(1, 0, 100, 0, now=2.0)  # back with f=1
    entry = policy._cache.get(1)
    assert entry.access_count == 1


def test_retain_counts_ablation_mode():
    policy = make(capacity=100, retain_counts_on_eviction=True)
    for _ in range(5):
        policy.on_request(1, 0, 100, 0, now=0.0)
    policy.on_request(2, 0, 100, 0, now=1.0)
    policy.on_request(1, 0, 100, 0, now=2.0)
    entry = policy._cache.get(1)
    assert entry.access_count == 6  # 5 retained + 1 new


def test_cached_version_unknown_page_raises():
    policy = make()
    with pytest.raises(KeyError):
        policy.cached_version(123)


def test_capacity_never_exceeded():
    policy = make(capacity=250)
    for page_id in range(50):
        policy.on_request(page_id, 0, 60 + page_id % 40, 0, now=float(page_id))
        assert policy.used_bytes <= 250
        policy.check_invariants()


def test_beta_validation():
    with pytest.raises(ValueError):
        make(beta=0.0)


def test_hourly_bucketing_in_stats(replay_one_proxy):
    stats = replay_one_proxy([(0.0, 0)], [(0.0, 0), (3700.0, 0)], sizes=[10])
    assert stats.bucketed_requests == {0: 1, 1: 1}
    assert stats.bucketed_hits == {1: 1}
