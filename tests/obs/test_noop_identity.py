"""ISSUE 2 acceptance: observability never changes the simulation.

Runs with no observer, with the explicit :class:`NullObserver`, and
with everything on (tracing + metrics + profiling) must all produce the
same :class:`SimulationResult` — excluding the two fields documented as
timing artefacts (``wall_seconds``, ``profile``) — on both a healthy
run and a chaos run.  The full-observer chaos run doubles as the
taxonomy-coverage check: every event type the simulator can emit under
faults must actually appear in the trace.
"""

import dataclasses

import pytest

from repro.faults.spec import ChaosSpec
from repro.obs import EventTracer, MetricsRegistry, NullObserver, Observer, Profiler
from repro.system.config import SimulationConfig
from repro.system.cooperation import run_cooperative_simulation
from repro.system.simulator import Simulation
from repro.workload.presets import make_trace

SCALE = 0.05
SEED = 13

#: Harsh enough that every fault-path event type fires at this scale.
CHAOS = ChaosSpec(
    proxy_mtbf=43_200.0,
    proxy_mttr=3_600.0,
    crash_fraction=1.0,
    publisher_mtbf=86_400.0,
    publisher_mttr=3_600.0,
    degraded_mtbf=86_400.0,
    degraded_mttr=3_600.0,
    degraded_latency_multiplier=4.0,
    degraded_loss_probability=0.05,
)


@pytest.fixture(scope="module")
def workload():
    return make_trace("news", scale=SCALE, seed=SEED)


def _comparable(result):
    payload = dataclasses.asdict(result)
    payload.pop("wall_seconds")
    payload.pop("profile")
    return payload


def _full_observer():
    return Observer(
        registry=MetricsRegistry(),
        tracer=EventTracer(max_events=1_000_000),
        profiler=Profiler(),
    )


def _run(workload, observer, chaos=None, strategy="sg2"):
    config = SimulationConfig(
        strategy=strategy, capacity_fraction=0.05, seed=SEED, chaos=chaos
    )
    return Simulation(workload, config, observer=observer).run()


def test_noop_observer_is_bit_identical(workload):
    baseline = _run(workload, observer=None)
    noop = _run(workload, observer=NullObserver())
    assert _comparable(baseline) == _comparable(noop)


def test_full_observer_is_bit_identical_healthy(workload):
    baseline = _run(workload, observer=None)
    observed = _run(workload, observer=_full_observer())
    assert _comparable(baseline) == _comparable(observed)


@pytest.mark.parametrize("strategy", ["sg2", "dc-lap"])
def test_fused_heap_paths_stay_visible_and_identical(workload, strategy):
    """The conditional-eviction loop runs inside the heap
    (``pop_cheaper``), bypassing ``push``/``pop``: the profiler wraps
    it too, and wrapping must not change what it decides."""
    baseline = _run(workload, observer=None, strategy=strategy)
    observed = _run(workload, observer=_full_observer(), strategy=strategy)
    assert _comparable(baseline) == _comparable(observed)
    for phase in ("heap.push", "heap.pop_cheaper"):
        assert observed.profile[phase]["calls"] > 0


def test_full_observer_is_bit_identical_under_chaos(workload):
    baseline = _run(workload, observer=None, chaos=CHAOS)
    observer = _full_observer()
    observed = _run(workload, observer=observer, chaos=CHAOS)
    assert _comparable(baseline) == _comparable(observed)

    # Taxonomy coverage: everything a non-cooperative chaos run can
    # emit must actually show up (peer_fetch needs cooperation; see
    # test_cooperative_run_emits_peer_events).
    seen = {event["type"] for event in observer.tracer.events()}
    expected = {
        "run_start", "run_end", "publish", "match", "push_offer",
        "push_accept", "push_reject", "push_suppressed", "request",
        "hit", "stale", "miss", "fetch", "failover", "retry", "failed",
        "evict", "crash", "restart", "outage", "outage_end",
    }
    assert expected <= seen, f"missing event types: {sorted(expected - seen)}"


def test_metrics_agree_with_result(workload):
    observer = _full_observer()
    result = _run(workload, observer=observer)
    registry = observer.registry
    assert registry.get("repro_requests_total").value == result.requests
    assert registry.get("repro_hits_total").value == result.hits
    assert registry.get("repro_stale_hits_total").value == result.stale_hits
    assert registry.get("repro_fetches_total").value == result.fetch_pages
    assert (
        registry.get("repro_misses_total").value
        == result.requests - result.hits - result.stale_hits
    )
    assert registry.get("repro_request_latency_seconds").count == result.requests
    assert registry.get("repro_request_latency_seconds").sum == pytest.approx(
        result.total_response_time
    )
    assert registry.get("repro_sim_time_seconds").value > 0


def test_eviction_metrics_match_stats(workload):
    observer = _full_observer()
    result = _run(workload, observer=observer)
    evictions = sum(stats.evictions for stats in result.per_proxy)
    assert observer.registry.get("repro_evictions_total").value == evictions
    causes = [
        event.get("cause")
        for event in observer.tracer.events()
        if event["type"] == "evict"
    ]
    assert len(causes) == evictions
    assert set(causes) <= {"capacity", "displaced", "repartition"}


def test_profile_lands_in_result(workload):
    observer = _full_observer()
    result = _run(workload, observer=observer)
    assert result.profile is not None
    for phase in ("sim.run", "engine.step", "policy.on_request", "heap.push"):
        assert result.profile[phase]["calls"] > 0
    unobserved = _run(workload, observer=None)
    assert unobserved.profile is None


def test_cooperative_run_emits_peer_events(workload):
    observer = _full_observer()
    config = SimulationConfig(strategy="gdstar", capacity_fraction=0.02, seed=SEED)
    baseline = run_cooperative_simulation(workload, config, neighbor_count=3)
    observed = run_cooperative_simulation(
        workload, config, neighbor_count=3, observer=observer
    )
    assert _comparable(baseline) == _comparable(observed)
    assert observed.peer_fetch_pages > 0
    seen = {event["type"] for event in observer.tracer.events()}
    assert "peer_fetch" in seen
    assert (
        observer.registry.get("repro_peer_fetches_total").value
        == observed.peer_fetch_pages
    )
