"""Tests for fault-schedule generation from named RNG streams."""

from repro.faults.generator import generate_fault_schedule
from repro.faults.spec import ChaosSpec
from repro.sim.rng import RandomStreams

HORIZON = 7 * 24 * 3600.0


def _schedule(spec, seed=7, servers=20):
    return generate_fault_schedule(
        spec, RandomStreams(seed), horizon=HORIZON, server_count=servers
    )


def test_zero_rates_yield_empty_schedule():
    assert _schedule(ChaosSpec()).empty


def test_same_seed_same_schedule():
    spec = ChaosSpec(
        proxy_mtbf=86_400.0,
        publisher_mtbf=172_800.0,
        degraded_mtbf=86_400.0,
    )
    first = _schedule(spec, seed=11)
    second = _schedule(spec, seed=11)
    assert first.crash_windows() == second.crash_windows()
    assert first.outage_windows() == second.outage_windows()


def test_different_seeds_differ():
    spec = ChaosSpec(proxy_mtbf=86_400.0)
    assert _schedule(spec, seed=1).crash_windows() != _schedule(
        spec, seed=2
    ).crash_windows()


def test_windows_clipped_to_horizon():
    spec = ChaosSpec(
        proxy_mtbf=20_000.0,
        proxy_mttr=10_000.0,
        publisher_mtbf=40_000.0,
        publisher_mttr=10_000.0,
    )
    schedule = _schedule(spec)
    for _server, window in schedule.crash_windows():
        assert 0.0 <= window.start < window.end <= HORIZON
    for window in schedule.outage_windows():
        assert 0.0 <= window.start < window.end <= HORIZON


def test_crash_fraction_zero_means_no_crashes():
    spec = ChaosSpec(proxy_mtbf=10_000.0, crash_fraction=0.0)
    assert _schedule(spec).crash_count == 0


def test_fault_kinds_draw_from_independent_streams():
    """Enabling publisher outages must not move the proxy crashes."""
    crashes_only = _schedule(ChaosSpec(proxy_mtbf=86_400.0))
    both = _schedule(
        ChaosSpec(proxy_mtbf=86_400.0, publisher_mtbf=172_800.0)
    )
    assert crashes_only.crash_windows() == both.crash_windows()


def test_degraded_windows_carry_spec_parameters():
    spec = ChaosSpec(
        degraded_mtbf=43_200.0,
        degraded_latency_multiplier=5.0,
        degraded_loss_probability=0.25,
    )
    schedule = _schedule(spec)
    found = 0
    for server in range(20):
        for hour in range(0, int(HORIZON), 3600):
            window = schedule.degradation(server, float(hour))
            if window is not None:
                assert window.latency_multiplier == 5.0
                assert window.loss_probability == 0.25
                found += 1
    assert found > 0


def test_broker_windows_generated_per_shard():
    spec = ChaosSpec(broker_mtbf=43_200.0, broker_mttr=1_800.0, broker_count=3)
    schedule = _schedule(spec)
    assert schedule.has_broker_faults
    assert schedule.broker_crash_count > 0
    assert set(schedule._brokers) <= set(range(3))
    for timeline in schedule._brokers.values():
        for window in timeline.windows:
            assert 0.0 <= window.start < window.end <= HORIZON


def test_broker_stream_is_independent():
    """Enabling broker crashes must not move any other fault kind."""
    others = ChaosSpec(
        proxy_mtbf=86_400.0,
        publisher_mtbf=172_800.0,
        degraded_mtbf=86_400.0,
    )
    without = _schedule(others)
    with_brokers = _schedule(
        ChaosSpec(
            proxy_mtbf=86_400.0,
            publisher_mtbf=172_800.0,
            degraded_mtbf=86_400.0,
            broker_mtbf=43_200.0,
        )
    )
    assert without.crash_windows() == with_brokers.crash_windows()
    assert without.outage_windows() == with_brokers.outage_windows()
    assert not without.has_broker_faults
    assert with_brokers.has_broker_faults


def test_broker_mtbf_zero_means_no_broker_windows():
    spec = ChaosSpec(proxy_mtbf=86_400.0, broker_count=4)
    assert not _schedule(spec).has_broker_faults
