"""Integration tests for the fault-injection layer.

Covers the acceptance criteria of the chaos PR: empty schedules are
bit-identical to runs without the layer, active schedules are fully
deterministic, crashed proxies restart cold and reject pushes, and
publisher outages turn into retries and (when exhausted) failures.
"""

import dataclasses

import pytest

from repro.faults.schedule import FaultSchedule, Window
from repro.faults.spec import ChaosSpec
from repro.sim.rng import RandomStreams
from repro.system.config import SimulationConfig
from repro.system.simulator import Simulation, run_simulation
from repro.workload import generate_workload, news_config

#: SimulationResult fields that only the faults layer populates.
FAULT_FIELDS = {
    "failed_requests",
    "degraded_requests",
    "hourly_failed",
    "hourly_degraded",
    "proxy_crashes",
    "proxy_downtime_seconds",
    "publisher_outage_seconds",
    "pushes_suppressed",
    "time_to_warm_seconds",
    "unwarmed_recoveries",
    "recovery_curve_requests",
    "recovery_curve_hits",
    "recovery_bin_seconds",
    # reliable-delivery fields (zero/empty healthy, dense zero lists
    # and constant bin edges under an engaged faults layer)
    "notifications_sent",
    "notifications_delivered",
    "notifications_lost",
    "notification_loss_events",
    "notifications_retransmitted",
    "duplicate_notifications",
    "delivery_gaps_detected",
    "retransmit_queue_overflows",
    "stale_hits_served",
    "staleness_validations",
    "repair_fetches",
    "repair_bytes",
    "hourly_stale_served",
    "hourly_repair_pages",
    "hourly_repair_bytes",
    "staleness_age_bin_edges",
    "staleness_age_counts",
}

#: A harsh-weather spec used across the determinism tests.
ACTIVE_SPEC = ChaosSpec(
    proxy_mtbf=86_400.0,
    proxy_mttr=3_600.0,
    crash_fraction=0.5,
    publisher_mtbf=172_800.0,
    publisher_mttr=1_800.0,
    degraded_mtbf=86_400.0,
    degraded_mttr=3_600.0,
    degraded_loss_probability=0.05,
)


@pytest.fixture(scope="module")
def workload():
    return generate_workload(news_config(scale=0.03), RandomStreams(2), label="news")


def _comparable(result):
    payload = dataclasses.asdict(result)
    payload.pop("wall_seconds")
    return payload


def test_empty_spec_is_bit_identical(workload):
    """A zero-rate ChaosSpec must not change any existing metric."""
    plain = run_simulation(workload, SimulationConfig(strategy="gdstar"))
    chaotic = run_simulation(
        workload, SimulationConfig(strategy="gdstar", chaos=ChaosSpec())
    )
    a, b = _comparable(plain), _comparable(chaotic)
    for key in a:
        if key in FAULT_FIELDS:
            continue
        assert a[key] == b[key], f"metric {key} changed by the empty faults layer"
    assert chaotic.failed_requests == 0
    assert chaotic.degraded_requests == 0
    assert chaotic.proxy_crashes == 0
    assert chaotic.availability == 1.0


def test_active_schedule_is_deterministic(workload):
    """Same seed + same spec -> identical SimulationResult, twice."""
    config = SimulationConfig(strategy="gdstar", chaos=ACTIVE_SPEC)
    first = run_simulation(workload, config)
    second = run_simulation(workload, config)
    assert first.proxy_crashes > 0  # the schedule actually did something
    assert _comparable(first) == _comparable(second)
    # One schedule for every strategy: it is a function of the seed, not
    # of who replays it.
    other = run_simulation(workload, dataclasses.replace(config, strategy="sub"))
    assert other.proxy_crashes == first.proxy_crashes
    assert other.proxy_downtime_seconds == first.proxy_downtime_seconds
    assert other.publisher_outage_seconds == first.publisher_outage_seconds


def test_fault_schedule_reproducible_from_seed(workload):
    """The generated schedule is a pure function of the seed."""
    config = SimulationConfig(strategy="sub", chaos=ACTIVE_SPEC)
    first = Simulation(workload, config)
    second = Simulation(workload, config)
    assert first.fault_schedule.crash_windows() == (
        second.fault_schedule.crash_windows()
    )
    assert first.fault_schedule.outage_windows() == (
        second.fault_schedule.outage_windows()
    )
    other = Simulation(
        workload, dataclasses.replace(config, seed=config.seed + 1)
    )
    assert first.fault_schedule.crash_windows() != (
        other.fault_schedule.crash_windows()
    )


def test_crashed_proxy_restarts_cold_and_rejects_pushes(workload):
    """During a crash window the proxy's cache is empty and pushes are
    suppressed; requests fail over to the origin as degraded."""
    horizon = workload.config.horizon
    down = Window(start=horizon * 0.25, end=horizon * 0.75)
    schedule = FaultSchedule(
        proxy_crashes={server: [down] for server in range(workload.config.server_count)}
    )
    result = Simulation(
        workload,
        SimulationConfig(strategy="sub"),
        fault_schedule=schedule,
    ).run()
    assert result.proxy_crashes == workload.config.server_count
    assert result.proxy_downtime_seconds == pytest.approx(
        workload.config.server_count * down.duration
    )
    # Every proxy was down half the run: pushes were rejected and the
    # down-window requests were served by the origin (degraded, not
    # failed — the origin stayed up).
    assert result.pushes_suppressed > 0
    assert result.degraded_requests > 0
    assert result.failed_requests == 0
    assert result.availability == 1.0
    # Cold restart is visible as post-recovery warm-up tracking.
    assert sum(result.recovery_curve_requests) > 0


def test_crash_drops_cache_contents(workload):
    simulation = Simulation(workload, SimulationConfig(strategy="gdstar"))
    proxy = simulation.proxies[0]
    page_id = workload.pages[0].page_id
    proxy.policy.on_request(page_id, 0, 1000, 5, 1.0)
    assert proxy.policy.held_version(page_id) == 0
    proxy.crash(now=2.0)
    assert not proxy.up
    assert proxy.policy.held_version(page_id) is None
    with pytest.raises(RuntimeError, match="already down"):
        proxy.crash(now=3.0)
    proxy.recover(now=10.0)
    assert proxy.up
    assert proxy.downtime_seconds == pytest.approx(8.0)


def test_long_publisher_outage_fails_requests(workload):
    """Retries cannot bridge an hour-long outage: requests fail."""
    horizon = workload.config.horizon
    outage = Window(start=horizon * 0.4, end=horizon * 0.6)
    schedule = FaultSchedule(publisher_outages=[outage])
    result = Simulation(
        workload,
        SimulationConfig(strategy="gdstar"),
        fault_schedule=schedule,
    ).run()
    assert result.publisher_outage_seconds == pytest.approx(outage.duration)
    assert result.failed_requests > 0
    assert result.availability < 1.0
    availability = result.hourly_availability()
    down_hour = int((outage.start + outage.end) / 2 // 3600)
    assert min(availability) < 1.0
    assert availability[down_hour] < 1.0
    # Failed requests still count in the denominator.
    assert result.requests == workload.request_count


def test_retries_bridge_a_short_outage(workload):
    """An outage shorter than the backoff budget degrades but serves."""
    request = workload.requests[len(workload.requests) // 2]
    # Outage starts just before one request and ends 2 s later; the
    # capped exponential backoff (0.5 + 1 + 2 + 4 s) reaches past it.
    schedule = FaultSchedule(
        publisher_outages=[Window(start=request.time - 1e-3, end=request.time + 2.0)]
    )
    result = Simulation(
        workload,
        SimulationConfig(strategy="gdstar"),
        fault_schedule=schedule,
    ).run()
    assert result.failed_requests == 0
    assert result.availability == 1.0


def test_chaos_hurts_hit_ratio_but_metrics_stay_consistent(workload):
    healthy = run_simulation(workload, SimulationConfig(strategy="sub"))
    chaotic = run_simulation(
        workload, SimulationConfig(strategy="sub", chaos=ACTIVE_SPEC)
    )
    assert chaotic.hit_ratio <= healthy.hit_ratio
    assert chaotic.requests == workload.request_count
    assert chaotic.hits + chaotic.stale_hits <= chaotic.requests
    assert 0.0 <= chaotic.availability <= 1.0
    assert len(chaotic.hourly_failed) == chaotic.hour_count
    assert len(chaotic.hourly_degraded) == chaotic.hour_count
    assert sum(chaotic.hourly_failed) == chaotic.failed_requests
    assert sum(chaotic.hourly_degraded) == chaotic.degraded_requests
    assert "avail=" in chaotic.summary()
    assert "avail=" not in healthy.summary()


def test_drop_contents_supported_by_every_strategy(workload):
    from repro.core.registry import make_policy_lenient, strategy_names

    for name in strategy_names():
        policy = make_policy_lenient(
            name, capacity_bytes=10_000, cost=4.0, beta=2.0
        )
        policy.on_publish(1, 0, 500, 3, 0.0)
        policy.on_request(1, 0, 500, 3, 1.0)
        assert policy.held_version(1) is not None, name
        policy.drop_contents()
        assert policy.held_version(1) is None, name
        # Still functional after the cold restart.
        policy.on_request(1, 0, 500, 3, 2.0)
        policy.check_invariants()
