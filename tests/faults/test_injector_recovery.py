"""Tests for the injector's scheduled transitions and the recovery tracker."""

from repro.faults.injector import FaultInjector
from repro.faults.recovery import RecoveryTracker
from repro.faults.schedule import FaultSchedule, Window
from repro.sim.engine import Environment


class _RecordingTarget:
    """Captures every hook call with its virtual timestamp."""

    def __init__(self):
        self.events = []

    def on_proxy_crash(self, server_id, now):
        self.events.append(("crash", server_id, now))

    def on_proxy_recover(self, server_id, now):
        self.events.append(("recover", server_id, now))

    def on_publisher_outage(self, now):
        self.events.append(("outage", None, now))

    def on_publisher_recover(self, now):
        self.events.append(("back", None, now))


def test_injector_fires_hooks_at_window_edges():
    schedule = FaultSchedule(
        proxy_crashes={
            0: [Window(10.0, 20.0)],
            2: [Window(15.0, 25.0), Window(40.0, 45.0)],
        },
        publisher_outages=[Window(12.0, 18.0)],
    )
    env = Environment()
    target = _RecordingTarget()
    FaultInjector(schedule).install(env, target)
    env.run()
    assert sorted(target.events, key=lambda event: (event[2], str(event[0]))) == [
        ("crash", 0, 10.0),
        ("outage", None, 12.0),
        ("crash", 2, 15.0),
        ("back", None, 18.0),
        ("recover", 0, 20.0),
        ("recover", 2, 25.0),
        ("crash", 2, 40.0),
        ("recover", 2, 45.0),
    ]


def test_injector_with_empty_schedule_installs_nothing():
    env = Environment()
    FaultInjector(FaultSchedule()).install(env, _RecordingTarget())
    assert env.peek() == float("inf")


def test_tracker_records_time_to_warm():
    tracker = RecoveryTracker(
        warm_request_window=4, warm_threshold=0.5, bin_seconds=10.0, bin_count=3
    )
    tracker.on_crash(0, now=100.0, pre_hit_ratio=0.8)
    tracker.on_recover(0, now=110.0)
    # Rolling window of 4: hits [F, F, T, T] -> ratio 0.5 >= 0.5*0.8.
    tracker.on_request(0, hit=False, now=112.0)
    tracker.on_request(0, hit=False, now=115.0)
    tracker.on_request(0, hit=True, now=123.0)
    tracker.on_request(0, hit=True, now=128.0)
    report = tracker.report()
    assert report.time_to_warm == [18.0]
    assert report.unwarmed == 0
    # First bin [0,10): two requests, zero hits; second bin: two hits.
    assert report.curve_requests == [2, 2, 0]
    assert report.curve_hits == [0, 2, 0]


def test_tracker_counts_unwarmed_recoveries():
    tracker = RecoveryTracker(warm_request_window=10, warm_threshold=0.9)
    tracker.on_crash(1, now=0.0, pre_hit_ratio=0.9)
    tracker.on_recover(1, now=50.0)
    tracker.on_request(1, hit=False, now=60.0)
    # Crashes again before ever re-warming, then never recovers.
    tracker.on_crash(1, now=70.0, pre_hit_ratio=0.1)
    assert tracker.report().unwarmed == 1


def test_tracker_still_warming_at_end_counts_as_unwarmed():
    tracker = RecoveryTracker(warm_request_window=5)
    tracker.on_crash(0, now=0.0, pre_hit_ratio=0.5)
    tracker.on_recover(0, now=10.0)
    tracker.on_request(0, hit=True, now=11.0)
    assert tracker.report().unwarmed == 1


def test_tracker_ignores_requests_at_healthy_proxies():
    tracker = RecoveryTracker()
    tracker.on_request(7, hit=True, now=5.0)
    report = tracker.report()
    assert sum(report.curve_requests) == 0
    assert report.unwarmed == 0
