"""Tests for the overload & backpressure layer.

Covers the acceptance criteria of the overload PR: the disabled layer
is bit-identical (across every replay engine, with chaos + delivery +
churn active), the primitives behave deterministically (service queue,
token bucket, circuit breaker, retry budget), queue rejections and
lifecycle shedding never double-count a request, rejection percentage
is monotone in offered load, and a forced-open breaker keeps total
origin retries within the configured retry budget.
"""

import dataclasses

import pytest

from repro.faults import OVERLOAD_STREAM
from repro.faults.generator import derive_overload_rng
from repro.faults.schedule import FaultSchedule, Window
from repro.faults.spec import ChaosSpec, OverloadSpec
from repro.sim.rng import RandomStreams
from repro.system import lifecycle
from repro.system.config import SimulationConfig
from repro.system.cooperation import run_cooperative_simulation
from repro.system.overload import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    OverloadManager,
    RetryBudget,
    ServiceQueue,
    TokenBucket,
)
from repro.system.simulator import Simulation, run_simulation
from repro.workload import generate_workload, news_config
from repro.workload.churn import ChurnSpec
from tests.system._reference import AgendaSimulation

#: Chaos weather used by the bit-identity runs (crashes, outages and
#: delivery loss all active so every optional layer is exercised).
CHAOS = ChaosSpec(
    proxy_mtbf=86_400.0,
    proxy_mttr=3_600.0,
    crash_fraction=0.5,
    publisher_mtbf=172_800.0,
    publisher_mttr=1_800.0,
    delivery_loss_probability=0.05,
)

#: A spec that makes every overload mechanism bite on the test trace.
HARSH = OverloadSpec(
    service_rate=0.005,
    queue_capacity=3,
    origin_capacity=0.002,
    origin_burst=2,
    breaker_threshold=4,
    breaker_cooldown=600.0,
    retry_budget=40,
)


@pytest.fixture(scope="module")
def workload():
    return generate_workload(news_config(scale=0.03), RandomStreams(2), label="news")


@pytest.fixture(scope="module")
def churny(workload):
    spec = ChurnSpec(
        churn_rate=2.0,
        lease_duration=4 * 3600.0,
        renew_probability=0.6,
        confirmation_loss_probability=0.2,
    )
    return workload.with_churn(spec, RandomStreams(7).stream("workload.churn"))


def _comparable(result):
    payload = dataclasses.asdict(result)
    payload.pop("wall_seconds")
    payload.pop("profile", None)
    return payload


# -- spec validation ---------------------------------------------------------


def test_spec_rejects_bad_values():
    with pytest.raises(ValueError, match="service_rate"):
        OverloadSpec(service_rate=-1.0)
    with pytest.raises(ValueError, match="queue_capacity"):
        OverloadSpec(queue_capacity=0)
    with pytest.raises(ValueError, match="push_shed_fraction"):
        OverloadSpec(push_shed_fraction=1.5)
    with pytest.raises(ValueError, match="origin_capacity"):
        OverloadSpec(origin_capacity=-0.1)
    with pytest.raises(ValueError, match="breaker_threshold"):
        OverloadSpec(breaker_threshold=0)
    with pytest.raises(ValueError, match="breaker_jitter"):
        OverloadSpec(breaker_jitter=1.0)
    with pytest.raises(ValueError, match="retry_budget"):
        OverloadSpec(retry_budget=-1)
    with pytest.raises(ValueError, match="retry_jitter"):
        OverloadSpec(retry_jitter=-0.5)


def test_spec_enabled_and_rng_flags():
    assert not OverloadSpec().enabled
    assert OverloadSpec(service_rate=1.0).enabled
    assert OverloadSpec(origin_capacity=1.0).enabled
    assert OverloadSpec(retry_budget=5).enabled
    # Deterministic knobs never derive the RNG stream.
    assert not OverloadSpec(service_rate=1.0, retry_budget=5).uses_rng
    assert OverloadSpec(retry_jitter=0.2).uses_rng
    assert OverloadSpec(origin_capacity=1.0, breaker_jitter=0.2).uses_rng
    # Breaker jitter without an origin gate never runs a breaker.
    assert not OverloadSpec(breaker_jitter=0.2).uses_rng
    streams = RandomStreams(3)
    assert derive_overload_rng(None, streams) is None
    assert derive_overload_rng(OverloadSpec(service_rate=1.0), streams) is None
    assert derive_overload_rng(OverloadSpec(retry_jitter=0.2), streams) is not None


# -- primitives --------------------------------------------------------------


def test_service_queue_deterministic_and_bounded():
    queue = ServiceQueue(rate=1.0, capacity=2, push_shed_fraction=1.0)
    assert queue.offer(0.0, push=False)   # finishes at 1.0
    assert queue.offer(0.0, push=False)   # queued, finishes at 2.0
    assert not queue.offer(0.0, push=False)  # occupancy 2 == capacity
    assert queue.rejected_pulls == 1
    # By t=1.0 one job finished; a slot is free again.
    assert queue.offer(1.0, push=False)
    assert queue.arrivals == 4
    assert queue.peak == 2
    # Occupancies sampled at arrivals: 0, 1, 2, 1.
    assert queue.average_queue_size == pytest.approx(1.0)
    assert queue.rejection_fraction == pytest.approx(0.25)


def test_service_queue_sheds_pushes_before_pulls():
    queue = ServiceQueue(rate=1.0, capacity=4, push_shed_fraction=0.5)
    assert queue.push_capacity == 2
    assert queue.offer(0.0, push=True)
    assert queue.offer(0.0, push=True)
    # Occupancy 2: pushes are shed, pulls still fit.
    assert not queue.offer(0.0, push=True)
    assert queue.offer(0.0, push=False)
    assert queue.rejected_pushes == 1
    assert queue.rejected_pulls == 0


def test_token_bucket_refill_and_future_clamp():
    bucket = TokenBucket(rate=1.0, burst=2)
    assert bucket.admit(0.0)
    assert bucket.admit(0.0)
    assert not bucket.admit(0.0)  # burst exhausted
    assert bucket.admit(1.5)      # 1.5 tokens refilled
    # Forward-committed admission: a later call at an *earlier* time
    # must not un-refill (elapsed clamps at zero).
    assert bucket.admit(5.0)
    tokens = bucket.tokens
    bucket.admit(4.0)
    assert bucket.tokens >= tokens - 1.0


def test_circuit_breaker_transitions():
    breaker = CircuitBreaker(threshold=2, cooldown=10.0, probe_successes=2)
    assert breaker.state == CLOSED
    assert breaker.allow(0.0)
    breaker.record_failure(0.0)
    assert breaker.state == CLOSED
    breaker.record_failure(1.0)
    assert breaker.state == OPEN
    assert breaker.open_count == 1
    # Fast-fail while open.
    assert not breaker.allow(5.0)
    assert breaker.fast_failures == 1
    # Cooldown elapsed: half-open, probes admitted.
    assert breaker.allow(11.0)
    assert breaker.state == HALF_OPEN
    assert breaker.open_seconds == pytest.approx(10.0)
    # A probe failure re-opens immediately.
    breaker.record_failure(11.0)
    assert breaker.state == OPEN
    assert breaker.allow(25.0)
    breaker.record_success(25.0)
    assert breaker.state == HALF_OPEN
    breaker.record_success(26.0)
    assert breaker.state == CLOSED
    # Books closed at the horizon: a still-open interval is charged.
    breaker.record_failure(30.0)
    breaker.record_failure(31.0)
    assert breaker.state == OPEN
    breaker.finalize(36.0)
    assert breaker.state == CLOSED
    assert breaker.open_seconds == pytest.approx(10.0 + 10.0 + 5.0)


def test_retry_budget_spend_deny_refill():
    budget = RetryBudget(budget=2)
    assert budget.allow(0.0)
    assert budget.allow(0.0)
    assert not budget.allow(0.0)
    assert budget.spent == 2
    assert budget.denied == 1
    # Fixed budget never refills.
    assert not budget.allow(1e9)
    refilling = RetryBudget(budget=1, rate=0.5)
    assert refilling.allow(0.0)
    assert not refilling.allow(1.0)  # only 0.5 tokens back
    assert refilling.allow(4.0)


def test_manager_unarmed_parts_are_noops():
    manager = OverloadManager(OverloadSpec(service_rate=1.0), range(2))
    assert manager.origin_admit(0.0)
    assert manager.allow_retry(0.0)
    assert manager.jitter_backoff(3.0) == 3.0
    assert not manager.breaker_open()
    gate_only = OverloadManager(
        OverloadSpec(origin_capacity=1.0, origin_burst=1, breaker_threshold=1),
        range(2),
    )
    assert gate_only.admit(0, 0.0, push=False)
    assert gate_only.origin_admit(0.0)
    assert not gate_only.origin_admit(0.0)
    assert gate_only.breaker_open()
    assert gate_only.origin_rejections == 1


# -- bit-identity of the disabled layer --------------------------------------


def test_inert_spec_bit_identical_all_engines(churny):
    """Chaos + delivery + churn with every overload knob off must be
    byte-identical to the pre-layer behaviour, under the replay driver
    and under the agenda oracle."""
    reference = run_simulation(
        churny, SimulationConfig(strategy="gdstar", chaos=CHAOS)
    )
    baseline = _comparable(reference)
    inert = SimulationConfig(
        strategy="gdstar", chaos=CHAOS, overload=OverloadSpec()
    )
    for engine in (Simulation, AgendaSimulation):
        result = engine(churny, inert).run()
        assert _comparable(result) == baseline, engine.__name__


def test_overload_result_fields_zero_when_disabled(workload):
    result = run_simulation(workload, SimulationConfig(strategy="gdstar"))
    assert result.overload_arrivals == 0
    assert result.overload_pulls_rejected == 0
    assert result.average_queue_size == 0.0
    assert result.rejection_percentage == 0.0
    assert result.breaker_opens == 0
    assert result.retries_denied == 0
    assert result.overload_stale_serves == 0


def test_rng_stream_discipline():
    """The overload stream is derived lazily and independently: pulling
    it never perturbs the draws of any pre-existing named stream."""
    plain = RandomStreams(11)
    baseline = {
        name: plain.stream(name).random(8).tolist()
        for name in ("faults.proxy", "faults.delivery", "workload.churn")
    }
    tapped = RandomStreams(11)
    tapped.stream(OVERLOAD_STREAM).random(64)
    for name, draws in baseline.items():
        assert tapped.stream(name).random(8).tolist() == draws, name


def test_fault_schedule_unchanged_by_overload(workload):
    """Arming overload must not move the materialised fault plan."""
    with_overload = Simulation(
        workload,
        SimulationConfig(strategy="gdstar", chaos=CHAOS, overload=HARSH),
    )
    without = Simulation(
        workload, SimulationConfig(strategy="gdstar", chaos=CHAOS)
    )
    assert with_overload.fault_schedule.crash_windows() == (
        without.fault_schedule.crash_windows()
    )
    assert with_overload.fault_schedule.outage_windows() == (
        without.fault_schedule.outage_windows()
    )


# -- engaged layer behaviour --------------------------------------------------


def test_engines_agree_with_overload_armed(workload):
    """Overload alone arms its wrappers; the run matches the oracle."""
    config = SimulationConfig(strategy="gdstar", overload=HARSH)
    driver = run_simulation(workload, config)
    assert driver.overload_pulls_rejected > 0
    oracle = AgendaSimulation(workload, config).run()
    assert _comparable(driver) == _comparable(oracle)


def test_armed_run_is_deterministic(workload):
    config = SimulationConfig(strategy="gdstar", overload=HARSH)
    first = run_simulation(workload, config)
    second = run_simulation(workload, config)
    assert first.overload_pulls_rejected > 0
    assert first.breaker_opens > 0
    assert _comparable(first) == _comparable(second)


def test_queue_rejections_never_double_count(workload):
    """Every rejected pull is unserved exactly once: with only the
    service queues armed (no origin gate) the unserved remainder of the
    request denominator equals the rejected-pull count exactly."""
    spec = OverloadSpec(service_rate=0.005, queue_capacity=3)
    result = run_simulation(
        workload, SimulationConfig(strategy="gdstar", overload=spec)
    )
    assert result.requests == workload.request_count
    served_by_proxies = sum(p.requests for p in result.per_proxy)
    unserved = result.requests - served_by_proxies
    assert result.overload_pulls_rejected > 0
    assert unserved == result.overload_pulls_rejected
    # No origin gate: a rejected pull is resolved at the origin, so
    # nothing fails — it is merely degraded.
    assert result.failed_requests == 0
    assert result.degraded_requests == result.overload_pulls_rejected


def test_subscriber_queue_shedding_composes_with_rejection(churny, monkeypatch):
    """Lifecycle handshake shedding (SubscriberQueue overflow) and
    proxy-level pull rejection keep separate books: engaging both never
    perturbs the shared request denominator."""
    monkeypatch.setattr(lifecycle, "QUEUE_LIMIT", 2)
    spec = OverloadSpec(service_rate=0.005, queue_capacity=3)
    result = run_simulation(
        churny, SimulationConfig(strategy="gdstar", overload=spec)
    )
    assert result.requests == churny.request_count
    unserved = result.requests - sum(p.requests for p in result.per_proxy)
    assert unserved == result.overload_pulls_rejected
    # The lifecycle layer's own shedding stayed on its own counters.
    assert result.handshake_losses > 0
    assert result.lifecycle_queue_overflows > 0
    assert result.failed_requests == 0


def test_rejection_percentage_monotone_in_offered_load(workload):
    """Lower service rate = higher offered load; rejection percentage
    must be monotone non-decreasing along the sweep."""
    percentages = []
    for rate in (0.05, 0.01, 0.005, 0.002):
        spec = OverloadSpec(service_rate=rate, queue_capacity=3)
        result = run_simulation(
            workload, SimulationConfig(strategy="gdstar", overload=spec)
        )
        percentages.append(result.rejection_percentage)
    assert percentages == sorted(percentages)
    assert percentages[-1] > 0.0


def test_breaker_open_serves_stale_and_caps_retries(workload):
    """With the origin gate starved the breaker opens, cached copies
    are served stale (degraded), and total origin retries stay within
    the configured retry budget."""
    spec = OverloadSpec(
        origin_capacity=0.0005,
        origin_burst=1,
        breaker_threshold=1,
        breaker_cooldown=50_000.0,
        retry_budget=25,
    )
    result = run_simulation(
        workload, SimulationConfig(strategy="gdstar", overload=spec)
    )
    assert result.breaker_opens > 0
    assert result.breaker_open_seconds > 0.0
    assert 0.0 < result.breaker_open_fraction <= 1.0
    assert result.overload_stale_serves > 0
    assert result.retries_denied > 0
    # The retry-storm guarantee: every extra origin attempt spent a
    # budget token, so total retries can never exceed the budget.
    assert result.retry_budget_spent <= spec.retry_budget
    assert result.origin_rejections > 0
    # Requests that found neither origin nor cache failed.
    assert result.failed_requests > 0
    assert result.requests == workload.request_count


def test_jitter_changes_only_with_rng_armed(workload):
    """Retry jitter draws from the dedicated stream: it stretches the
    waits of outage-crossing retries (so response time moves), and the
    jittered run is itself reproducible."""
    # Straddle the first request (a guaranteed cold miss) with a short
    # outage: the first fetch attempt finds the origin down and a
    # backed-off retry succeeds just after the window, so the retry
    # wait — jittered or not — lands in total_response_time.
    first = workload.requests[0].time
    schedule = FaultSchedule(
        publisher_outages=[Window(start=first - 1.0, end=first + 2.0)]
    )
    chaos = ChaosSpec(publisher_mtbf=1.0)  # arms the layer; schedule given
    jittered_spec = OverloadSpec(retry_jitter=0.9)

    def run(overload):
        return Simulation(
            workload,
            SimulationConfig(strategy="gdstar", chaos=chaos, overload=overload),
            fault_schedule=schedule,
        ).run()

    plain = run(None)
    once = run(jittered_spec)
    twice = run(jittered_spec)
    assert _comparable(once) == _comparable(twice)
    assert plain.total_response_time != once.total_response_time


def test_cooperative_rejected_pulls_walk_peer_chain(workload):
    """Cooperation under overload: rejected pulls and misses resolve
    off-proxy without failing when no origin gate is armed, and the
    inert spec stays bit-identical."""
    spec = OverloadSpec(service_rate=0.005, queue_capacity=3)
    result = run_cooperative_simulation(
        workload, SimulationConfig(strategy="sub", overload=spec)
    )
    assert result.overload_pulls_rejected > 0
    assert result.failed_requests == 0
    assert result.requests == workload.request_count
    inert = run_cooperative_simulation(
        workload, SimulationConfig(strategy="sub", overload=OverloadSpec())
    )
    plain = run_cooperative_simulation(
        workload, SimulationConfig(strategy="sub")
    )
    assert _comparable(inert) == _comparable(plain)


def test_push_shedding_heals_via_staleness_repair(workload):
    """Shed pushes leave the cache behind; under the delivery protocol
    the next access notices and repairs, so requests never fail."""
    chaos = ChaosSpec(delivery_loss_probability=0.01)
    spec = OverloadSpec(
        service_rate=0.005, queue_capacity=3, push_shed_fraction=0.34
    )
    result = run_simulation(
        workload,
        SimulationConfig(strategy="sub", chaos=chaos, overload=spec),
    )
    assert result.overload_pushes_shed > 0
    assert result.requests == workload.request_count


def test_per_proxy_queue_metrics(workload):
    spec = OverloadSpec(service_rate=0.005, queue_capacity=3)
    result = run_simulation(
        workload, SimulationConfig(strategy="gdstar", overload=spec)
    )
    server_count = workload.config.server_count
    assert len(result.overload_queue_avg_by_proxy) == server_count
    assert len(result.overload_queue_rejection_by_proxy) == server_count
    assert all(v >= 0.0 for v in result.overload_queue_avg_by_proxy)
    assert all(0.0 <= v <= 100.0 for v in result.overload_queue_rejection_by_proxy)
    assert 0 < result.overload_queue_peak <= spec.queue_capacity
    # The scalar aggregate is the arrival-weighted mean of the per-proxy
    # averages, all of which the manager also reports per proxy.
    assert result.average_queue_size == pytest.approx(
        sum(
            avg * arr
            for avg, arr in zip(
                result.overload_queue_avg_by_proxy,
                _per_proxy_arrivals(workload, spec),
            )
        )
        / result.overload_arrivals
    )


def _per_proxy_arrivals(workload, spec):
    sim = Simulation(workload, SimulationConfig(strategy="gdstar", overload=spec))
    sim.run()
    metrics = sim._overload.queue_metrics_by_proxy()
    return [
        metrics[server_id]["arrivals"]
        for server_id in range(workload.config.server_count)
    ]
