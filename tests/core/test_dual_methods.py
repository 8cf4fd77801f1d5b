"""Tests for the Dual-Methods policy."""

from repro.core.dual_methods import DualMethodsPolicy


def make(capacity=1000, cost=1.0, beta=2.0):
    return DualMethodsPolicy(capacity, cost=cost, beta=beta)


def test_push_places_by_sub_value():
    policy = make(capacity=200)
    policy.on_publish(1, 0, 100, 10, now=0.0)
    policy.on_publish(2, 0, 100, 50, now=0.0)
    outcome = policy.on_publish(3, 0, 100, 30, now=1.0)  # evicts page 1
    assert outcome.stored
    assert policy.held_version(1) is None
    assert policy.held_version(2) is not None


def test_miss_always_admits_by_gd_value():
    policy = make(capacity=100)
    policy.on_publish(1, 0, 100, 99, now=0.0)  # high SUB value
    # Access-time module (GD*) evicts the pushed page: it has no
    # access history, so its GD* value sits at the floor.
    outcome = policy.on_request(2, 0, 100, 1, now=1.0)
    assert outcome.cached_after
    assert policy.held_version(1) is None
    assert policy.held_version(2) is not None


def test_interference_hot_page_evicted_by_push():
    """The DM problem the paper describes: a hot page can be pushed out
    when few subscriptions match it."""
    policy = make(capacity=100)
    policy.on_request(1, 0, 100, 1, now=0.0)  # hot page, s=1
    for step in range(5):
        policy.on_request(1, 0, 100, 1, now=1.0 + step)
    outcome = policy.on_publish(2, 0, 100, 50, now=10.0)  # big s wins
    assert outcome.stored
    assert policy.held_version(1) is None


def test_hit_updates_access_value_only():
    policy = make()
    policy.on_publish(1, 0, 100, 5, now=0.0)
    push_value_before = policy._push_heap.priority(1)
    policy.on_request(1, 0, 100, 5, now=1.0)
    assert policy._push_heap.priority(1) == push_value_before
    assert policy._access_heap.priority(1) > 0.0


def test_push_refresh_in_place():
    policy = make()
    policy.on_publish(1, 0, 100, 5, now=0.0)
    outcome = policy.on_publish(1, 1, 100, 5, now=1.0)
    assert outcome.refreshed
    assert policy.cached_version(1) == 1


def test_stale_access_refreshes():
    policy = make()
    policy.on_publish(1, 0, 100, 5, now=0.0)
    outcome = policy.on_request(1, 2, 100, 5, now=1.0)
    assert outcome.stale and outcome.cached_after
    assert policy.cached_version(1) == 2


def test_push_eviction_does_not_touch_inflation():
    policy = make(capacity=100)
    policy.on_publish(1, 0, 100, 5, now=0.0)
    policy.on_publish(2, 0, 100, 9, now=1.0)  # push-module eviction
    assert policy.inflation == 0.0
    policy.on_request(2, 0, 100, 9, now=1.5)  # give page 2 a positive GD* value
    policy.on_request(3, 0, 100, 1, now=2.0)  # access-module eviction of page 2
    assert policy.inflation > 0.0


def test_heaps_and_storage_stay_aligned():
    policy = make(capacity=500)
    for step in range(150):
        if step % 2:
            policy.on_publish(step, 0, 70 + step % 50, step % 11, now=float(step))
        else:
            policy.on_request(step % 25, 0, 70 + (step % 25) % 50, step % 11, now=float(step))
        policy.check_invariants()
        assert policy.used_bytes <= 500


def test_all_or_nothing_push_rejection():
    policy = make(capacity=200)
    policy.on_publish(1, 0, 100, 40, now=0.0)
    policy.on_publish(2, 0, 100, 50, now=0.0)
    outcome = policy.on_publish(3, 0, 200, 45, now=1.0)  # only page 1 cheaper
    assert not outcome.stored
    assert policy.held_version(1) is not None and policy.held_version(2) is not None
