"""Cross-strategy contract tests.

Every strategy, whatever its internals, must satisfy the same protocol:
byte capacity is never exceeded, hits require the current version,
outcomes are internally consistent, and the stats ledger adds up.
"""

import pytest

from repro.core.policy import PushOutcome, RequestOutcome
from repro.core.registry import make_policy_lenient, strategy_names
from repro.system.config import SimulationConfig
from repro.system.simulator import run_simulation

ALL_STRATEGIES = sorted(strategy_names())


def drive(policy, steps=300, capacity=700):
    """A deterministic mixed publish/request workload."""
    version = {}
    for step in range(steps):
        page_id = step % 29
        size = 40 + (page_id * 13) % 120
        match_count = (page_id * 7) % 15
        now = float(step)
        if step % 3 == 0:
            version[page_id] = version.get(page_id, -1) + 1
            outcome = policy.on_publish(page_id, version[page_id], size, match_count, now)
            assert isinstance(outcome, PushOutcome)
        else:
            current = version.setdefault(page_id, 0)
            outcome = policy.on_request(page_id, current, size, match_count, now)
            assert isinstance(outcome, RequestOutcome)
        yield policy


@pytest.mark.parametrize("name", ALL_STRATEGIES)
def test_capacity_never_exceeded(name):
    policy = make_policy_lenient(name, 700, cost=2.0)
    for state in drive(policy):
        assert state.used_bytes <= state.capacity_bytes


@pytest.mark.parametrize("name", ALL_STRATEGIES)
def test_invariants_hold_throughout(name):
    policy = make_policy_lenient(name, 700, cost=2.0)
    for state in drive(policy):
        state.check_invariants()


@pytest.mark.parametrize("name", ALL_STRATEGIES)
def test_hit_implies_cached_current_version(name):
    policy = make_policy_lenient(name, 2000, cost=2.0)
    version = {}
    for step in range(200):
        page_id = step % 17
        now = float(step)
        if step % 4 == 0:
            version[page_id] = version.get(page_id, -1) + 1
            policy.on_publish(page_id, version[page_id], 100, 5, now)
        else:
            current = version.setdefault(page_id, 0)
            before_cached = policy.held_version(page_id) is not None
            before_version = (
                policy.cached_version(page_id) if before_cached else None
            )
            outcome = policy.on_request(page_id, current, 100, 5, now)
            if outcome.hit:
                assert before_cached and before_version == current
            if outcome.stale:
                assert before_cached and before_version != current


@pytest.mark.parametrize("name", ALL_STRATEGIES)
def test_stats_ledger_adds_up(name, trace_named):
    """The policy counts what it decides: each push offer stored or
    rejected, and no request.  The simulator counts the requests from
    the outcomes, and its ledger adds up per proxy and per hour."""
    policy = make_policy_lenient(name, 700, cost=2.0)
    publishes = 0
    for step, state in enumerate(drive(policy)):
        if step % 3 == 0:
            publishes += 1
    stats = policy.stats
    offered = stats.pages_pushed_stored + stats.pages_pushed_rejected
    assert offered == (publishes if policy.uses_push else 0)
    assert (stats.requests, stats.hits, stats.bucketed_requests) == (0, 0, {})
    workload = trace_named("news")
    result = run_simulation(workload, SimulationConfig(strategy=name, capacity_fraction=0.05))
    assert result.requests == workload.request_count
    assert sum(stats.requests for stats in result.per_proxy) == result.requests
    for stats in result.per_proxy:
        assert stats.hits + stats.misses == stats.requests
        assert 0.0 <= stats.hit_ratio <= 1.0
        assert sum(stats.bucketed_requests.values()) == stats.requests
        assert sum(stats.bucketed_hits.values()) == stats.hits


@pytest.mark.parametrize("name", ALL_STRATEGIES)
def test_cached_after_matches_contains(name):
    policy = make_policy_lenient(name, 700, cost=2.0)
    version = {}
    for step in range(200):
        page_id = step % 23
        now = float(step)
        if step % 3 == 0:
            version[page_id] = version.get(page_id, -1) + 1
            policy.on_publish(page_id, version[page_id], 90, 4, now)
        else:
            current = version.setdefault(page_id, 0)
            outcome = policy.on_request(page_id, current, 90, 4, now)
            assert outcome.cached_after == (policy.held_version(page_id) is not None)


@pytest.mark.parametrize("name", ALL_STRATEGIES)
def test_zero_capacity_policy_serves_without_caching(name):
    policy = make_policy_lenient(name, 0, cost=1.0)
    policy.on_publish(1, 0, 100, 5, now=0.0)
    outcome = policy.on_request(1, 0, 100, 5, now=1.0)
    assert not outcome.hit
    assert policy.used_bytes == 0
    policy.check_invariants()


@pytest.mark.parametrize("name", ALL_STRATEGIES)
def test_outcome_dataclass_invariants(name):
    with pytest.raises(ValueError):
        RequestOutcome(hit=True, stale=True)
    with pytest.raises(ValueError):
        PushOutcome(stored=False, refreshed=True)


@pytest.mark.parametrize("name", ALL_STRATEGIES)
def test_constructor_validation(name):
    with pytest.raises(ValueError):
        make_policy_lenient(name, -1)
    with pytest.raises(ValueError):
        make_policy_lenient(name, 100, cost=0.0)


@pytest.mark.parametrize("name", ["gdstar", "sg1", "sg2", "dm", "dc-fp", "dc-ap", "dc-lap"])
def test_beta_must_be_finite_and_positive(name):
    """NaN passes every ``beta <= 0``; a run with it would print a wrong H."""
    for beta in (float("nan"), float("inf"), 0.0, -1.0):
        with pytest.raises(ValueError, match="beta must be finite and > 0"):
            make_policy_lenient(name, 100, beta=beta)
