"""Tests for the SG1/SG2/SR combined policies."""

import pytest

from repro.core.single_cache import SingleCacheCombinedPolicy


def make(mode, capacity=1000, cost=1.0, beta=2.0):
    return SingleCacheCombinedPolicy(capacity, cost=cost, mode=mode, beta=beta)


def test_mode_validation():
    with pytest.raises(ValueError):
        make("bogus")
    with pytest.raises(ValueError):
        SingleCacheCombinedPolicy(100, mode="sg2", beta=0.0)


def test_name_reflects_mode():
    assert make("sg1").name == "sg1"
    assert make("sg2").name == "sg2"
    assert make("sr").name == "sr"


@pytest.mark.parametrize("mode", ["sg1", "sg2", "sr"])
def test_push_then_first_request_hits(mode):
    policy = make(mode)
    policy.on_publish(1, 0, 100, 5, now=0.0)
    assert policy.on_request(1, 0, 100, 5, now=1.0).hit


@pytest.mark.parametrize("mode", ["sg1", "sg2", "sr"])
def test_miss_caches_when_room(mode):
    policy = make(mode)
    outcome = policy.on_request(1, 0, 100, 5, now=0.0)
    assert not outcome.hit and outcome.cached_after


def test_sg2_spent_page_loses_value():
    """Once a >= s the SG2 value collapses to the inflation floor."""
    policy = make("sg2", capacity=200)
    policy.on_publish(1, 0, 100, 2, now=0.0)
    policy.on_request(1, 0, 100, 2, now=1.0)
    policy.on_request(1, 0, 100, 2, now=2.0)  # a=2=s: spent
    policy.on_publish(2, 0, 100, 1, now=3.0)
    policy.on_publish(3, 0, 100, 1, now=3.5)  # needs room: evicts spent page 1
    assert policy.held_version(1) is None
    assert policy.held_version(2) is not None and policy.held_version(3) is not None


def test_sr_spent_page_goes_negative_and_first_out():
    policy = make("sr", capacity=200)
    policy.on_publish(1, 0, 100, 1, now=0.0)
    policy.on_request(1, 0, 100, 1, now=1.0)
    policy.on_request(1, 0, 100, 1, now=2.0)  # a=2 > s=1: negative value
    policy.on_publish(2, 0, 100, 3, now=3.0)
    policy.on_publish(3, 0, 100, 3, now=3.5)
    assert policy.held_version(1) is None


def test_sg1_keeps_heavily_accessed_spent_pages():
    """SG1 (s+a) treats history as value: spent pages look good."""
    policy = make("sg1", capacity=200)
    policy.on_publish(1, 0, 100, 2, now=0.0)
    for step in range(5):
        policy.on_request(1, 0, 100, 2, now=1.0 + step)
    # s+a = 7; a fresh page with s=3 cannot displace it.
    policy.on_publish(2, 0, 100, 3, now=10.0)
    policy.on_publish(3, 0, 100, 3, now=10.5)
    assert policy.held_version(1) is not None


def test_access_counts_persist_across_eviction():
    """The proxy-level history survives the page leaving the cache."""
    policy = make("sg2", capacity=100)
    policy.on_publish(1, 0, 100, 3, now=0.0)
    policy.on_request(1, 0, 100, 3, now=1.0)
    policy.on_request(1, 0, 100, 3, now=2.0)
    policy.on_request(1, 0, 100, 3, now=3.0)  # a=3=s: spent
    # Displace page 1 entirely.
    policy.on_publish(2, 0, 100, 10, now=4.0)
    assert policy.held_version(1) is None
    # A re-push of the spent page must NOT be admitted over the
    # useful resident: remaining demand is zero (a=3 persisted).
    outcome = policy.on_publish(1, 1, 100, 3, now=5.0)
    assert not outcome.stored
    assert policy.held_version(2) is not None


def test_value_gated_miss_discards_low_value_page():
    policy = make("sg2", capacity=100)
    policy.on_publish(1, 0, 100, 50, now=0.0)  # high-value resident
    # Requested page has s=0 (no subscriptions): value floor; resident
    # is not a candidate, so the fetched page is forwarded and dropped.
    outcome = policy.on_request(2, 0, 100, 0, now=1.0)
    assert not outcome.hit and not outcome.cached_after
    assert policy.held_version(1) is not None


def test_push_refresh_updates_version_in_place():
    for mode in ("sg1", "sg2", "sr"):
        policy = make(mode)
        policy.on_publish(1, 0, 100, 5, now=0.0)
        outcome = policy.on_publish(1, 3, 100, 5, now=1.0)
        assert outcome.refreshed
        assert policy.cached_version(1) == 3


def test_stale_access_refreshes_in_place():
    for mode in ("sg1", "sg2", "sr"):
        policy = make(mode)
        policy.on_publish(1, 0, 100, 5, now=0.0)
        outcome = policy.on_request(1, 2, 100, 5, now=1.0)
        assert outcome.stale and outcome.cached_after
        assert policy.cached_version(1) == 2


def test_inflation_only_for_gd_framework_modes():
    sr = make("sr", capacity=100)
    sr.on_publish(1, 0, 100, 5, now=0.0)
    sr.on_publish(2, 0, 100, 9, now=1.0)  # evicts page 1
    assert sr.inflation == 0.0
    sg2 = make("sg2", capacity=100)
    sg2.on_publish(1, 0, 100, 5, now=0.0)
    sg2.on_publish(2, 0, 100, 9, now=1.0)
    assert sg2.inflation > 0.0


def test_capacity_respected_under_mixed_pressure():
    for mode in ("sg1", "sg2", "sr"):
        policy = make(mode, capacity=400)
        for step in range(120):
            if step % 3 == 0:
                policy.on_publish(step, 0, 80 + step % 60, step % 9, now=float(step))
            else:
                policy.on_request(step % 20, 0, 80 + (step % 20) % 60, step % 9, now=float(step))
            assert policy.used_bytes <= 400
        policy.check_invariants()


def test_oversized_page_rejected_everywhere():
    policy = make("sg2", capacity=50)
    assert not policy.on_publish(1, 0, 100, 5, now=0.0).stored
    assert not policy.on_request(2, 0, 100, 5, now=1.0).cached_after
    assert policy.used_bytes == 0
