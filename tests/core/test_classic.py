"""Tests for LRU, GDS and LFU-DA comparators."""

from repro.core.classic import GDSPolicy, LFUDAPolicy, LRUPolicy


def test_lru_evicts_least_recent():
    policy = LRUPolicy(200)
    policy.on_request(1, 0, 100, 0, now=0.0)
    policy.on_request(2, 0, 100, 0, now=1.0)
    policy.on_request(1, 0, 100, 0, now=2.0)  # touch page 1
    policy.on_request(3, 0, 100, 0, now=3.0)  # evicts page 2
    assert policy.held_version(1) is not None
    assert policy.held_version(2) is None


def test_lru_hit_semantics():
    policy = LRUPolicy(200)
    assert not policy.on_request(1, 0, 50, 0, now=0.0).hit
    assert policy.on_request(1, 0, 50, 0, now=1.0).hit


def test_gds_prefers_small_pages():
    # GDS value = L + c/s: small pages are worth more per byte.
    policy = GDSPolicy(300, cost=1.0)
    policy.on_request(1, 0, 200, 0, now=0.0)  # big page
    policy.on_request(2, 0, 50, 0, now=1.0)  # small page
    policy.on_request(3, 0, 100, 0, now=2.0)  # needs room: evicts big page 1
    assert policy.held_version(1) is None
    assert policy.held_version(2) is not None
    assert policy.held_version(3) is not None


def test_gds_inflation_advances():
    policy = GDSPolicy(100)
    policy.on_request(1, 0, 100, 0, now=0.0)
    policy.on_request(2, 0, 100, 0, now=1.0)
    assert policy.inflation > 0.0


def test_lfuda_evicts_low_frequency():
    policy = LFUDAPolicy(200)
    policy.on_request(1, 0, 100, 0, now=0.0)
    policy.on_request(1, 0, 100, 0, now=1.0)
    policy.on_request(2, 0, 100, 0, now=2.0)
    policy.on_request(3, 0, 100, 0, now=3.0)  # evicts page 2 (f=1 < f=2)
    assert policy.held_version(1) is not None
    assert policy.held_version(2) is None


def test_lfuda_aging_lets_new_pages_in():
    policy = LFUDAPolicy(100)
    for _ in range(10):
        policy.on_request(1, 0, 100, 0, now=0.0)
    policy.on_request(2, 0, 100, 0, now=1.0)  # evicts 1, L jumps to ~10
    policy.on_request(3, 0, 100, 0, now=2.0)  # can still displace 2
    assert policy.held_version(3) is not None


def test_stale_handling_shared_skeleton():
    for cls in (LRUPolicy, GDSPolicy, LFUDAPolicy):
        policy = cls(500)
        policy.on_request(1, 0, 100, 0, now=0.0)
        outcome = policy.on_request(1, 2, 100, 0, now=1.0)
        assert outcome.stale and not outcome.hit
        assert policy.cached_version(1) == 2


def test_publish_noop_for_all_classics():
    for cls in (LRUPolicy, GDSPolicy, LFUDAPolicy):
        policy = cls(500)
        assert not policy.on_publish(1, 0, 100, 5, now=0.0).stored


def test_oversized_page_not_cached():
    for cls in (LRUPolicy, GDSPolicy, LFUDAPolicy):
        policy = cls(50)
        outcome = policy.on_request(1, 0, 100, 0, now=0.0)
        assert not outcome.cached_after
        policy.check_invariants()
