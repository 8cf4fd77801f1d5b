"""Tests for the injector's scheduled transitions and the recovery tracker."""

import numpy as np

from repro.faults.injector import FaultInjector
from repro.faults.recovery import (
    RECOVERY_BIN_COUNT,
    RECOVERY_BIN_SECONDS,
    WARM_REQUEST_WINDOW,
    WARM_THRESHOLD,
    RecoveryTracker,
)
from repro.faults.schedule import FaultSchedule, Window
from repro.faults.spec import ChaosSpec
from repro.core.policy import HIT
from repro.sim.engine import Environment
from repro.system.config import SimulationConfig
from repro.system.simulator import DEGRADED, UNSERVED, Simulation
from repro.workload.presets import make_trace


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
    assert env._agenda == []


def test_tracker_records_time_to_warm():
    assert (WARM_REQUEST_WINDOW, WARM_THRESHOLD) == (50, 0.8)
    assert (RECOVERY_BIN_SECONDS, RECOVERY_BIN_COUNT) == (600.0, 12)
    tracker = RecoveryTracker()
    # Served before the crash: one hit in two, a pre-crash ratio of 0.5.
    tracker.on_request(0, hit=True, now=10.0)
    tracker.on_request(0, hit=False, now=20.0)
    tracker.on_crash(0, now=100.0)
    tracker.on_recover(0, now=1000.0)
    # Rolling window of 50: 25 misses, then 25 hits -> 0.5 >= 0.8 * 0.5.
    for index in range(25):
        tracker.on_request(0, hit=False, now=1000.0 + index)
    for index in range(25):
        tracker.on_request(0, hit=True, now=1600.0 + index)
    report = tracker.report()
    assert report.time_to_warm == [624.0]
    assert report.unwarmed == 0
    # First bin [0, 600): the misses; second bin: the hits.
    assert report.curve_requests == [25, 25] + [0] * 10
    assert report.curve_hits == [0, 25] + [0] * 10


def test_tracker_counts_unwarmed_recoveries():
    tracker = RecoveryTracker()
    tracker.on_crash(1, now=0.0)
    tracker.on_recover(1, now=50.0)
    tracker.on_request(1, hit=False, now=60.0)
    # Crashes again before ever re-warming, then never recovers.
    tracker.on_crash(1, now=70.0)
    assert tracker.report().unwarmed == 1


def test_tracker_still_warming_at_end_counts_as_unwarmed():
    tracker = RecoveryTracker()
    tracker.on_crash(0, now=0.0)
    tracker.on_recover(0, now=10.0)
    tracker.on_request(0, hit=True, now=11.0)
    assert tracker.report().unwarmed == 1


def test_tracker_ignores_requests_at_healthy_proxies():
    tracker = RecoveryTracker()
    tracker.on_request(7, hit=True, now=5.0)
    report = tracker.report()
    assert sum(report.curve_requests) == 0
    assert report.unwarmed == 0


def test_pre_crash_ratio_is_the_count_before_the_crash():
    """Requests are counted after the replay, so the tracker keeps each
    proxy's running hit ratio itself: at every crash it equals the ratio
    of the requests that proxy served up to the crash, counted from the
    run's outcome codes (a record wins a tie with a transition)."""
    workload = make_trace("news", scale=0.03, seed=5)
    chaos = ChaosSpec(proxy_mtbf=43_200.0, proxy_mttr=3_600.0, crash_fraction=1.0)
    simulation = Simulation(
        workload, SimulationConfig("sg2", capacity_fraction=0.05, seed=5, chaos=chaos)
    )
    tracker = simulation._recovery
    crashes = []
    on_crash = tracker.on_crash

    def crash(server_id, now):
        on_crash(server_id, now)
        crashes.append((server_id, now, tracker._pre_ratio[server_id]))

    tracker.on_crash = crash
    recorded = []
    count = simulation._count_requests

    def counted(outcomes):
        recorded.append(bytes(outcomes))
        return count(outcomes)

    simulation._count_requests = counted
    result = simulation.run()

    rows = workload.requests.rows
    codes = np.frombuffer(recorded[0], dtype=np.uint8) % DEGRADED
    served = codes < UNSERVED
    assert len(crashes) > 1 and result.time_to_warm_seconds
    for server_id, at, ratio in crashes:
        before = served & (rows["server_id"] == server_id) & (rows["time"] <= at)
        requests = int(before.sum())
        hits = int((codes[before] == HIT).sum())
        assert ratio == (hits / requests if requests else 0.0), (server_id, at)
