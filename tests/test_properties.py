"""Property-based tests on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.entry import CacheEntry
from repro.cache.heap import AddressableHeap
from repro.cache.storage import CacheStorage
from repro.core.registry import make_policy_lenient, strategy_names
from repro.sim.engine import Environment
from repro.sim.rng import RandomStreams
from repro.workload.popularity import class_boundaries, zipf_weights
from repro.workload.requests import sample_ages
from repro.workload.subscriptions import build_match_counts
from tests.core._formulas import gdstar_value, sr_value, sub_value


# -- addressable heap vs reference model -------------------------------------

heap_ops = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(0, 15), st.floats(-100, 100)),
        st.tuples(st.just("pop"), st.just(0), st.just(0.0)),
        st.tuples(st.just("discard"), st.integers(0, 15), st.just(0.0)),
    ),
    max_size=200,
)


@given(heap_ops)
def test_heap_matches_reference_model(operations):
    heap = AddressableHeap()
    model = {}
    for op, key, priority in operations:
        if op == "push":
            heap.push(key, priority)
            model[key] = priority
        elif op == "discard":
            heap.discard(key)
            model.pop(key, None)
        else:  # pop
            if not model:
                with pytest.raises(IndexError):
                    heap.pop()
                continue
            popped_key, popped_priority = heap.pop()
            assert popped_priority == min(model.values())
            assert model.pop(popped_key) == popped_priority
    assert len(heap) == len(model)
    assert dict(heap.items()) == model


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=100))
def test_heap_is_a_sorting_machine(priorities):
    heap = AddressableHeap()
    for index, priority in enumerate(priorities):
        heap.push(index, priority)
    drained = [heap.pop()[1] for _ in range(len(priorities))]
    assert drained == sorted(priorities)


# -- storage accounting -------------------------------------------------------

storage_ops = st.lists(
    st.tuples(st.integers(0, 10), st.integers(1, 50)), max_size=100
)


@given(storage_ops)
def test_storage_byte_accounting_exact(operations):
    storage = CacheStorage(500)
    for page_id, size in operations:
        if page_id in storage:
            storage.remove(page_id)
        elif storage.fits(size):
            storage.add(
                CacheEntry(page_id=page_id, version=0, size=size, cost=1.0)
            )
        storage.check_invariants()
        assert storage.used_bytes <= storage.capacity_bytes


# -- value functions ------------------------------------------------------------

@given(
    st.floats(0, 1e6),
    st.integers(-1000, 1000),
    st.floats(0.1, 100),
    st.integers(1, 10**7),
    st.floats(0.05, 8.0),
)
def test_gdstar_value_always_at_least_inflation(L, f, c, s, beta):
    assert gdstar_value(L, f, c, s, beta) >= L


@given(st.integers(0, 10**6), st.floats(0.1, 100), st.integers(1, 10**7))
def test_sub_value_nonnegative_and_scales_with_matches(matches, c, s):
    value = sub_value(matches, c, s)
    assert value >= 0.0
    assert sub_value(matches + 1, c, s) >= value


@given(
    st.integers(0, 1000),
    st.integers(0, 1000),
    st.floats(0.1, 100),
    st.integers(1, 10**6),
)
def test_sr_value_sign_tracks_remaining_demand(matches, accesses, c, s):
    value = sr_value(matches, accesses, c, s)
    if matches > accesses:
        assert value > 0
    elif matches < accesses:
        assert value < 0
    else:
        assert value == 0.0


# -- policies under random workloads -----------------------------------------

policy_events = st.lists(
    st.tuples(
        st.booleans(),  # publish?
        st.integers(0, 12),  # page id
        st.integers(1, 400),  # size
        st.integers(0, 20),  # match count
    ),
    min_size=1,
    max_size=120,
)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(strategy_names())), policy_events, st.integers(50, 1500))
def test_any_policy_respects_capacity_and_invariants(name, events, capacity):
    policy = make_policy_lenient(name, capacity, cost=2.0)
    versions = {}
    for step, (is_publish, page_id, size, match_count) in enumerate(events):
        # one stable size per page id, derived from its first event
        size = 1 + (page_id * 37) % 300
        if is_publish or page_id not in versions:
            versions[page_id] = versions.get(page_id, -1) + 1
            policy.on_publish(page_id, versions[page_id], size, match_count, float(step))
        else:
            policy.on_request(page_id, versions[page_id], size, match_count, float(step))
        policy.check_invariants()
        assert policy.used_bytes <= capacity


# -- workload building blocks ---------------------------------------------------

@given(st.integers(1, 5000), st.floats(0.2, 3.0))
def test_zipf_weights_properties(n, alpha):
    weights = zipf_weights(n, alpha)
    assert len(weights) == n
    assert weights.sum() == pytest.approx(1.0)
    assert np.all(np.diff(weights) <= 1e-18)


@given(st.integers(4, 3000), st.floats(1.5, 20.0))
def test_class_boundaries_partition_ranks(n, decay):
    weights = zipf_weights(n, 1.2)
    boundaries = class_boundaries(weights, 4, decay)
    assert boundaries[0] == 0
    assert np.all(np.diff(boundaries) >= 1)
    assert boundaries[-1] < n


@given(
    st.integers(0, 2000),
    st.floats(0.0, 1e6),
    st.floats(0.0, 3.0),
    st.integers(0, 2**31 - 1),
)
def test_sample_ages_always_in_bounds(count, max_age, gamma, seed):
    ages = sample_ages(count, max_age, gamma, np.random.default_rng(seed))
    assert len(ages) == count
    if count:
        assert ages.min() >= 0.0
        assert ages.max() <= max_age + 1e-6


@given(
    st.lists(
        st.tuples(st.integers(0, 20), st.integers(0, 5)), max_size=300
    ),
    st.sampled_from([0.25, 0.5, 0.75, 1.0]),
    st.integers(0, 2**31 - 1),
)
def test_eq7_match_counts_cover_every_requested_pair(pairs, sq, seed):
    table = build_match_counts(pairs, sq, np.random.default_rng(seed))
    requested = set(pairs)
    for page_id, server_id in requested:
        assert table[page_id][server_id] >= 1
    # at SQ=1 the counts equal request counts exactly
    if sq == 1.0:
        from collections import Counter

        counts = Counter(pairs)
        for (page_id, server_id), count in counts.items():
            assert table[page_id][server_id] == count


# -- engine determinism ----------------------------------------------------------

@given(st.lists(st.floats(0.0, 1000.0), max_size=60))
def test_engine_processes_any_schedule_in_order(times):
    env = Environment()
    seen = []
    for at in times:
        env.schedule(at, lambda e, t=at: seen.append(t))
    env.run()
    assert seen == sorted(times)


@given(st.integers(0, 2**31 - 1), st.text(min_size=1, max_size=20))
def test_rng_streams_deterministic(seed, name):
    a = RandomStreams(seed).stream(name).integers(0, 2**62, size=5)
    b = RandomStreams(seed).stream(name).integers(0, 2**62, size=5)
    assert np.array_equal(a, b)
