"""Tests for fault windows, timelines and schedule queries."""

import pytest

from repro.faults.schedule import (
    EMPTY_SCHEDULE,
    DegradedWindow,
    FaultSchedule,
    Window,
)


def test_window_is_half_open():
    window = Window(start=10.0, end=20.0)
    assert not window.covers(9.999)
    assert window.covers(10.0)
    assert window.covers(19.999)
    assert not window.covers(20.0)
    assert window.duration == 10.0


def test_window_rejects_empty_and_negative():
    with pytest.raises(ValueError):
        Window(start=5.0, end=5.0)
    with pytest.raises(ValueError):
        Window(start=5.0, end=4.0)
    with pytest.raises(ValueError):
        Window(start=-1.0, end=4.0)


def test_degraded_window_validation():
    with pytest.raises(ValueError):
        DegradedWindow(start=0.0, end=1.0, latency_multiplier=0.5)
    with pytest.raises(ValueError):
        DegradedWindow(start=0.0, end=1.0, loss_probability=1.0)


def test_overlapping_windows_rejected():
    with pytest.raises(ValueError, match="overlapping"):
        FaultSchedule(
            proxy_crashes={0: [Window(0.0, 10.0), Window(5.0, 15.0)]}
        )


def test_proxy_down_lookup():
    schedule = FaultSchedule(
        proxy_crashes={3: [Window(100.0, 200.0), Window(500.0, 600.0)]}
    )
    assert not schedule.proxy_down(3, 99.0)
    assert schedule.proxy_down(3, 100.0)
    assert schedule.proxy_down(3, 199.0)
    assert not schedule.proxy_down(3, 200.0)
    assert schedule.proxy_down(3, 550.0)
    # Other proxies are never down.
    assert not schedule.proxy_down(0, 150.0)


def test_publisher_queries():
    schedule = FaultSchedule(publisher_outages=[Window(50.0, 80.0)])
    assert not schedule.publisher_down(49.0)
    assert schedule.publisher_down(60.0)
    assert not schedule.publisher_down(80.0)  # half-open
    assert schedule.publisher_outage_seconds == 30.0


def test_degradation_lookup():
    window = DegradedWindow(
        start=0.0, end=100.0, latency_multiplier=3.0, loss_probability=0.1
    )
    schedule = FaultSchedule(degraded_links={2: [window]})
    found = schedule.degradation(2, 50.0)
    assert found is window
    assert schedule.degradation(2, 100.0) is None
    assert schedule.degradation(1, 50.0) is None


def test_crash_windows_ordered_by_server_then_time():
    schedule = FaultSchedule(
        proxy_crashes={
            4: [Window(300.0, 310.0), Window(10.0, 20.0)],
            1: [Window(50.0, 60.0)],
        }
    )
    pairs = schedule.crash_windows()
    assert [(server, window.start) for server, window in pairs] == [
        (1, 50.0),
        (4, 10.0),
        (4, 300.0),
    ]
    assert schedule.crash_count == 3
    assert schedule.proxy_downtime_seconds == pytest.approx(30.0)


def test_empty_schedule():
    assert EMPTY_SCHEDULE.empty
    assert not EMPTY_SCHEDULE.proxy_down(0, 0.0)
    assert not EMPTY_SCHEDULE.publisher_down(0.0)
    assert EMPTY_SCHEDULE.degradation(0, 0.0) is None
    assert not FaultSchedule(proxy_crashes={0: [Window(0.0, 1.0)]}).empty


def test_broker_queries():
    schedule = FaultSchedule(
        broker_crashes={
            1: [Window(start=10.0, end=20.0)],
            0: [Window(start=50.0, end=60.0), Window(start=5.0, end=8.0)],
        }
    )
    assert schedule.has_broker_faults
    assert not schedule.empty
    assert schedule.broker_down(0, 6.0)
    assert not schedule.broker_down(0, 8.0)  # half-open
    assert schedule.broker_down(1, 10.0)
    assert not schedule.broker_down(2, 10.0)  # unknown shard: healthy
    assert schedule.broker_crash_count == 3
    # Each broker's windows in time order, regardless of insertion order.
    assert schedule._brokers[0].windows == [
        Window(start=5.0, end=8.0),
        Window(start=50.0, end=60.0),
    ]


def test_broker_only_schedule_is_not_empty():
    schedule = FaultSchedule(broker_crashes={0: [Window(start=1.0, end=2.0)]})
    assert not schedule.empty
    assert EMPTY_SCHEDULE.broker_crash_count == 0
    assert not EMPTY_SCHEDULE.has_broker_faults
