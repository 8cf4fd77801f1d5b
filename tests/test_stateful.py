"""Stateful property tests: hypothesis drives the policies and the DES
engine through arbitrary operation sequences while model-based
invariants are checked continuously."""

import pytest
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.cache.storage import CacheStorage
from repro.cache.entry import CacheEntry
from repro.core.registry import make_policy_lenient, strategy_names
from repro.sim.engine import Environment


class PolicyMachine(RuleBasedStateMachine):
    """Drive a random strategy with publishes/requests; compare its
    observable behaviour against a simple oracle (version map +
    capacity bound + hit definition)."""

    @initialize(
        name=st.sampled_from(sorted(strategy_names())),
        capacity=st.integers(100, 2000),
    )
    def setup(self, name, capacity):
        self.policy = make_policy_lenient(name, capacity, cost=2.0)
        self.capacity = capacity
        self.versions = {}
        self.clock = 0.0

    def _size(self, page_id):
        return 50 + (page_id * 31) % 200

    def _tick(self):
        self.clock += 1.0
        return self.clock

    @rule(page_id=st.integers(0, 14), match_count=st.integers(0, 12))
    def publish(self, page_id, match_count):
        self.versions[page_id] = self.versions.get(page_id, -1) + 1
        outcome = self.policy.on_publish(
            page_id,
            self.versions[page_id],
            self._size(page_id),
            match_count,
            self._tick(),
        )
        if outcome.refreshed:
            assert outcome.stored

    @rule(page_id=st.integers(0, 14), match_count=st.integers(0, 12))
    def request(self, page_id, match_count):
        if page_id not in self.versions:
            self.versions[page_id] = 0
            self.policy.on_publish(
                page_id, 0, self._size(page_id), match_count, self._tick()
            )
        current = self.versions[page_id]
        was_cached = self.policy.held_version(page_id) is not None
        cached_version = (
            self.policy.cached_version(page_id) if was_cached else None
        )
        outcome = self.policy.on_request(
            page_id, current, self._size(page_id), match_count, self._tick()
        )
        if outcome.hit:
            assert was_cached and cached_version == current
        if outcome.stale:
            assert was_cached and cached_version != current
        assert outcome.cached_after == (self.policy.held_version(page_id) is not None)

    @invariant()
    def within_capacity(self):
        if hasattr(self, "policy"):
            assert self.policy.used_bytes <= self.capacity

    @invariant()
    def internals_consistent(self):
        if hasattr(self, "policy"):
            self.policy.check_invariants()


TestPolicyMachine = PolicyMachine.TestCase
TestPolicyMachine.settings = settings(
    max_examples=40, stateful_step_count=60, deadline=None
)


class StorageMachine(RuleBasedStateMachine):
    """CacheStorage against a dict-of-sizes oracle."""

    def __init__(self):
        super().__init__()
        self.storage = CacheStorage(1000)
        self.model = {}

    @rule(page_id=st.integers(0, 20), size=st.integers(1, 300))
    def add(self, page_id, size):
        if page_id in self.model:
            return
        if size <= 1000 - sum(self.model.values()):
            self.storage.add(
                CacheEntry(page_id=page_id, version=0, size=size, cost=1.0)
            )
            self.model[page_id] = size
        else:
            with pytest.raises(ValueError):
                self.storage.add(
                    CacheEntry(page_id=page_id, version=0, size=size, cost=1.0)
                )

    @rule(page_id=st.integers(0, 20))
    def remove(self, page_id):
        if page_id in self.model:
            removed = self.storage.remove(page_id)
            assert removed.size == self.model.pop(page_id)
        else:
            with pytest.raises(KeyError):
                self.storage.remove(page_id)

    @invariant()
    def accounting_matches_model(self):
        assert self.storage.used_bytes == sum(self.model.values())
        assert len(self.storage) == len(self.model)
        self.storage.check_invariants()


TestStorageMachine = StorageMachine.TestCase
TestStorageMachine.settings = settings(max_examples=50, deadline=None)


class EngineMachine(RuleBasedStateMachine):
    """The DES engine must process events in time order no matter how
    scheduling interleaves with execution."""

    def __init__(self):
        super().__init__()
        self.env = Environment()
        self.processed = []
        self.scheduled = 0

    @rule(delay=st.floats(0.0, 100.0))
    def schedule(self, delay):
        at = self.env.now + delay
        self.env.schedule(at, lambda e, t=at: self.processed.append(t))
        self.scheduled += 1

    @rule()
    def run_some(self):
        for _ in range(3):
            if not self.env._agenda:
                break
            self.env.step()

    @invariant()
    def processed_in_order(self):
        assert self.processed == sorted(self.processed)

    def teardown(self):
        self.env.run()
        assert len(self.processed) == self.scheduled
        assert self.processed == sorted(self.processed)


TestEngineMachine = EngineMachine.TestCase
TestEngineMachine.settings = settings(max_examples=50, deadline=None)
