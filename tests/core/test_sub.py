"""Tests for the SUB push-time-only policy."""

from repro.core.sub import SubPolicy


def make(capacity=1000, cost=1.0, **kwargs):
    return SubPolicy(capacity, cost=cost, **kwargs)


def test_push_stores_matched_page():
    policy = make()
    outcome = policy.on_publish(1, 0, 100, 5, now=0.0)
    assert outcome.stored
    assert policy.held_version(1) is not None


def test_push_rejects_when_candidates_insufficient():
    policy = make(capacity=200)
    policy.on_publish(1, 0, 100, 50, now=0.0)  # value 0.5
    policy.on_publish(2, 0, 100, 50, now=0.0)  # value 0.5
    # New page value 0.3 < residents: no candidates, rejected.
    outcome = policy.on_publish(3, 0, 100, 30, now=1.0)
    assert not outcome.stored
    assert policy.held_version(1) is not None and policy.held_version(2) is not None
    assert policy.stats.pages_pushed_rejected == 1


def test_push_evicts_cheaper_candidates():
    policy = make(capacity=200)
    policy.on_publish(1, 0, 100, 10, now=0.0)  # value 0.1
    policy.on_publish(2, 0, 100, 50, now=0.0)  # value 0.5
    outcome = policy.on_publish(3, 0, 100, 30, now=1.0)  # evicts page 1
    assert outcome.stored
    assert policy.held_version(1) is None
    assert policy.held_version(2) is not None and policy.held_version(3) is not None


def test_all_or_nothing_rejection_evicts_nobody():
    policy = make(capacity=300)
    policy.on_publish(1, 0, 100, 10, now=0.0)
    policy.on_publish(2, 0, 100, 20, now=0.0)
    policy.on_publish(3, 0, 100, 90, now=0.0)
    # New page of size 300 needs all three slots, but page 3 (0.9) is
    # not a candidate at value 0.5: reject, keep everything.
    outcome = policy.on_publish(4, 0, 300, 150, now=1.0)  # value 0.5
    assert not outcome.stored
    assert all(policy.held_version(page) is not None for page in (1, 2, 3))


def test_miss_does_not_cache():
    policy = make()
    outcome = policy.on_request(1, 0, 100, 5, now=0.0)
    assert not outcome.hit and not outcome.cached_after
    assert policy.held_version(1) is None


def test_hit_on_pushed_page():
    policy = make()
    policy.on_publish(1, 0, 100, 5, now=0.0)
    outcome = policy.on_request(1, 0, 100, 5, now=1.0)
    assert outcome.hit


def test_values_static_after_hits():
    policy = make()
    policy.on_publish(1, 0, 100, 5, now=0.0)
    before = policy._cache.get(1).value
    policy.on_request(1, 0, 100, 5, now=1.0)
    assert policy._cache.get(1).value == before


def test_refresh_on_push_updates_version():
    policy = make()
    policy.on_publish(1, 0, 100, 5, now=0.0)
    outcome = policy.on_publish(1, 1, 100, 5, now=1.0)
    assert outcome.stored and outcome.refreshed
    assert policy.cached_version(1) == 1


def test_frozen_variant_cannot_refresh():
    policy = make(refresh_on_push=False)
    policy.on_publish(1, 0, 100, 5, now=0.0)
    outcome = policy.on_publish(1, 1, 100, 5, now=1.0)
    assert not outcome.stored
    assert policy.cached_version(1) == 0
    # Requests for the new version keep missing (the copy rots).
    request = policy.on_request(1, 1, 100, 5, now=2.0)
    assert not request.hit and request.stale


def test_stale_access_does_not_refresh():
    policy = make()
    policy.on_publish(1, 0, 100, 5, now=0.0)
    outcome = policy.on_request(1, 2, 100, 5, now=1.0)
    assert outcome.stale and not outcome.hit
    assert policy.cached_version(1) == 0  # still the old version


def test_same_version_republish_is_noop():
    policy = make()
    policy.on_publish(1, 0, 100, 5, now=0.0)
    outcome = policy.on_publish(1, 0, 100, 5, now=1.0)
    assert not outcome.stored and not outcome.refreshed


def test_zero_match_count_page_has_zero_value():
    policy = make(capacity=100)
    policy.on_publish(1, 0, 100, 0, now=0.0)  # value 0, stored in empty cache
    assert policy.held_version(1) is not None
    outcome = policy.on_publish(2, 0, 100, 1, now=1.0)  # displaces it
    assert outcome.stored
    assert policy.held_version(1) is None


def test_capacity_respected_under_pressure():
    policy = make(capacity=500)
    for page_id in range(100):
        policy.on_publish(page_id, 0, 90 + page_id % 30, page_id % 17, now=float(page_id))
        assert policy.used_bytes <= 500
    policy.check_invariants()
