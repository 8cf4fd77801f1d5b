"""The reliable-delivery layer: loss, retransmission, repair.

Covers the acceptance criteria of the reliable-delivery PR: delivery
knobs at their defaults leave every run bit-identical (NULL-object
discipline), configured loss produces retransmissions and permanent
losses, staleness repair drives stale serves below the no-protocol
baseline, duplicates are suppressed by sequence numbers, gaps are
detected, broker-shard crash windows black out the push path, and the
retransmit queue bound sheds load.  Plus unit tests for the analytic
:class:`ReliableDelivery` planner and the proxy-side
:class:`SequenceTracker`.
"""

import dataclasses

import pytest

from repro.faults.generator import generate_fault_schedule
from repro.faults.schedule import FaultSchedule, Window
from repro.faults.spec import ChaosSpec
from repro.pubsub.routing import SequenceTracker
from repro.sim.rng import RandomStreams
from repro.system.config import SimulationConfig
from repro.system.delivery import ReliableDelivery
from repro.system.metrics import STALENESS_AGE_BIN_EDGES, staleness_age_bin
from repro.system.simulator import Simulation, run_simulation

from tests.system.test_chaos import FAULT_FIELDS  # single source of truth
from repro.workload import generate_workload, news_config

#: Push-heavy fair weather except for notification loss.
LOSSY = ChaosSpec(delivery_loss_probability=0.25, delivery_retry_limit=1)


@pytest.fixture(scope="module")
def workload():
    return generate_workload(news_config(scale=0.03), RandomStreams(2), label="news")


def _comparable(result):
    payload = dataclasses.asdict(result)
    payload.pop("wall_seconds")
    return payload


# ---------------------------------------------------------------------------
# bit-identity: defaults change nothing
# ---------------------------------------------------------------------------


def test_delivery_defaults_are_bit_identical(workload):
    """With every delivery fault rate at zero the protocol is inert:
    flipping protocol-only knobs (repair off, different retry budget)
    must not move a single byte of the result — the layer is never
    engaged, so the ``faults.delivery`` stream is never drawn from."""
    base = ChaosSpec(proxy_mtbf=86_400.0, proxy_mttr=3_600.0, crash_fraction=0.5)
    config = SimulationConfig(strategy="sub", chaos=base)
    plain = run_simulation(workload, config)
    for variant in (
        dataclasses.replace(base, delivery_repair=False),
        dataclasses.replace(base, delivery_retry_limit=0),
        dataclasses.replace(base, delivery_ack_timeout=9.0, delivery_queue_limit=1),
    ):
        tweaked = run_simulation(
            workload, dataclasses.replace(config, chaos=variant)
        )
        assert _comparable(plain) == _comparable(tweaked)
    assert plain.notifications_sent == 0
    assert plain.notification_delivery_ratio == 1.0


def test_delivery_fields_zero_on_healthy_run(workload):
    """Golden-seed regression: a healthy run (no faults layer at all)
    reports zeroed delivery fields, and an engaged-but-fault-free spec
    only adds the dense zero lists FAULT_FIELDS allows for."""
    plain = run_simulation(workload, SimulationConfig(strategy="sub"))
    assert plain.notifications_sent == 0
    assert plain.notifications_lost == 0
    assert plain.stale_hits_served == 0
    assert plain.repair_fetches == 0
    assert plain.staleness_age_counts == []
    chaotic = run_simulation(
        workload, SimulationConfig(strategy="sub", chaos=ChaosSpec())
    )
    a, b = _comparable(plain), _comparable(chaotic)
    for key in a:
        if key in FAULT_FIELDS:
            continue
        assert a[key] == b[key], f"metric {key} changed by inert delivery layer"


# ---------------------------------------------------------------------------
# loss, retransmission, repair
# ---------------------------------------------------------------------------


def test_loss_produces_retransmissions_and_losses(workload):
    result = run_simulation(
        workload, SimulationConfig(strategy="sub", chaos=LOSSY)
    )
    assert result.notifications_sent > 0
    assert result.notification_loss_events > 0
    assert result.notifications_retransmitted > 0
    # With one retry and 25% loss some notifications are permanently
    # lost, but most still land.
    assert 0 < result.notifications_lost < result.notifications_sent
    assert result.notifications_delivered + result.notifications_lost <= (
        result.notifications_sent
    )
    assert result.notification_delivery_ratio < 1.0
    # No request is ever dropped by a delivery fault.
    assert result.requests == workload.request_count
    assert result.availability == 1.0


def test_repair_beats_no_protocol_baseline(workload):
    """Lazy staleness repair converts silent stale hits into repair
    fetches: strictly fewer stale serves than with repair disabled."""
    repaired = run_simulation(
        workload, SimulationConfig(strategy="sub", chaos=LOSSY)
    )
    unrepaired = run_simulation(
        workload,
        SimulationConfig(
            strategy="sub",
            chaos=dataclasses.replace(LOSSY, delivery_repair=False),
        ),
    )
    # The send-side fault plan is identical (requests never touch it).
    assert repaired.notifications_lost == unrepaired.notifications_lost > 0
    assert unrepaired.stale_hits_served > 0
    assert repaired.stale_hits_served < unrepaired.stale_hits_served
    assert repaired.repair_fetches > 0
    assert repaired.repair_bytes > 0
    assert unrepaired.repair_fetches == 0
    assert repaired.staleness_validations > 0
    # Stale serves feed the staleness-age histogram.
    assert sum(unrepaired.staleness_age_counts) >= unrepaired.stale_hits_served
    assert unrepaired.staleness_age_bin_edges == STALENESS_AGE_BIN_EDGES


def test_lossy_run_is_deterministic(workload):
    config = SimulationConfig(
        strategy="dm",
        chaos=dataclasses.replace(
            LOSSY,
            delivery_duplicate_probability=0.05,
            delivery_reorder_delay=5.0,
        ),
    )
    first = run_simulation(workload, config)
    second = run_simulation(workload, config)
    assert first.notifications_lost > 0
    assert _comparable(first) == _comparable(second)


# ---------------------------------------------------------------------------
# duplicates, reorder, gaps
# ---------------------------------------------------------------------------


def test_duplicates_are_suppressed(workload):
    """Pure duplication (no loss): every notification arrives, extra
    copies are recognised by their sequence numbers and dropped without
    touching the cache policy."""
    spec = ChaosSpec(delivery_duplicate_probability=0.5)
    result = run_simulation(workload, SimulationConfig(strategy="sub", chaos=spec))
    assert result.notifications_sent > 0
    assert result.notifications_lost == 0
    assert result.notifications_delivered == result.notifications_sent
    assert result.duplicate_notifications > 0
    # Without loss nothing goes stale: no repairs, no stale serves.
    assert result.stale_hits_served == 0
    assert result.repair_fetches == 0


def test_reorder_alone_loses_nothing(workload):
    """Delay alone never *loses* a notification.  It can still shave
    the delivered count: a copy still in flight when the proxy learns
    the version another way (a demand fetch or a staleness repair
    during the delay window) arrives late and is suppressed as a
    duplicate rather than delivered — latest-version-wins."""
    spec = ChaosSpec(delivery_reorder_delay=30.0)
    result = run_simulation(workload, SimulationConfig(strategy="sub", chaos=spec))
    assert result.notifications_sent > 0
    assert result.notifications_lost == 0
    suppressed = result.notifications_sent - result.notifications_delivered
    assert suppressed <= result.duplicate_notifications
    assert result.notification_delivery_ratio > 0.9


def test_gaps_detected_under_unrecovered_loss(workload):
    """With no retry budget every loss is permanent; the next delivery
    for the same page skips a sequence number and the proxy logs a gap."""
    spec = ChaosSpec(delivery_loss_probability=0.3, delivery_retry_limit=0)
    result = run_simulation(workload, SimulationConfig(strategy="sub", chaos=spec))
    assert result.notifications_lost > 0
    assert result.notifications_retransmitted == 0
    assert result.delivery_gaps_detected > 0


# ---------------------------------------------------------------------------
# broker crash windows
# ---------------------------------------------------------------------------


def test_broker_blackout_loses_all_pushes(workload):
    """One broker shard down for the whole run with no retry budget:
    every notification dies on the push path (but requests still work —
    staleness repair and origin fetches do not ride the broker)."""
    horizon = workload.config.horizon
    schedule = FaultSchedule(
        broker_crashes={0: [Window(start=0.0, end=horizon + 1.0)]}
    )
    result = Simulation(
        workload,
        SimulationConfig(
            strategy="sub", chaos=ChaosSpec(delivery_retry_limit=0)
        ),
        fault_schedule=schedule,
    ).run()
    assert result.notifications_sent > 0
    assert result.notifications_lost == result.notifications_sent
    assert result.notifications_delivered == 0
    assert result.availability == 1.0
    assert result.requests == workload.request_count


def test_broker_retransmits_bridge_short_crash(workload):
    """A crash window shorter than the backoff ladder: the retransmit
    that fires after recovery lands, so nothing is permanently lost."""
    # Backoffs 1, 2, 4, 8 reach 15 s past each send; anchor a 5 s
    # window on a real publish event so it cannot outlast the ladder.
    publish = workload.publishes[len(workload.publishes) // 2]
    schedule = FaultSchedule(
        broker_crashes={0: [Window(start=publish.time - 1e-3, end=publish.time + 5.0)]}
    )
    result = Simulation(
        workload,
        SimulationConfig(strategy="sub", chaos=ChaosSpec()),
        fault_schedule=schedule,
    ).run()
    assert result.notifications_lost == 0
    assert result.notifications_retransmitted > 0


def test_generated_broker_windows_are_deterministic(workload):
    spec = ChaosSpec(broker_mtbf=43_200.0, broker_mttr=1_800.0, broker_count=2)
    first = generate_fault_schedule(
        spec, RandomStreams(11), workload.config.horizon, workload.config.server_count
    )
    second = generate_fault_schedule(
        spec, RandomStreams(11), workload.config.horizon, workload.config.server_count
    )
    assert first.has_broker_faults
    assert first.broker_crash_count > 0
    assert first.broker_crash_windows() == second.broker_crash_windows()
    assert {broker for broker, _ in first.broker_crash_windows()} <= {0, 1}


# ---------------------------------------------------------------------------
# retransmit queue bound
# ---------------------------------------------------------------------------


def test_tiny_queue_sheds_retransmissions(workload):
    spec = dataclasses.replace(LOSSY, delivery_queue_limit=0)
    result = run_simulation(workload, SimulationConfig(strategy="sub", chaos=spec))
    # Every first loss found the queue full: abandoned, never retried.
    assert result.retransmit_queue_overflows > 0
    assert result.notifications_retransmitted == 0
    assert result.notifications_lost >= result.retransmit_queue_overflows


# ---------------------------------------------------------------------------
# ReliableDelivery planner units
# ---------------------------------------------------------------------------


def _delivery(spec, schedule=None, seed=0):
    return ReliableDelivery(
        spec,
        schedule if schedule is not None else FaultSchedule(),
        RandomStreams(seed).stream("faults.delivery"),
    )


def test_plan_clean_send():
    plan = _delivery(ChaosSpec(delivery_loss_probability=0.0)).plan(0, 100.0)
    assert plan.delivered
    assert plan.attempts == 1
    assert plan.retransmissions == 0
    assert plan.arrival_time == 100.0
    assert not plan.queued and not plan.queue_overflow
    assert plan.duplicate_time is None


def test_plan_backoff_ladder_against_broker_window():
    """ack_timeout=1, cap=30, limit=3: retransmits at +1, +3, +7.  A
    broker window ending at +5 makes exactly the third retransmit land."""
    spec = ChaosSpec(
        delivery_retry_limit=3, delivery_ack_timeout=1.0, delivery_backoff_cap=30.0
    )
    schedule = FaultSchedule(broker_crashes={0: [Window(start=100.0, end=105.0)]})
    plan = _delivery(spec, schedule).plan(0, 100.0)
    assert plan.delivered
    assert plan.attempts == 4
    assert plan.loss_events == 3
    assert plan.queued
    assert plan.arrival_time == pytest.approx(107.0)


def test_plan_backoff_cap_clamps_ladder():
    """ack_timeout=4, cap=8: backoffs 4, 8, 8 (16 clamped) — attempts
    at +0, +4, +12, +20."""
    spec = ChaosSpec(
        delivery_retry_limit=3, delivery_ack_timeout=4.0, delivery_backoff_cap=8.0
    )
    schedule = FaultSchedule(broker_crashes={0: [Window(start=0.0, end=19.0)]})
    plan = _delivery(spec, schedule).plan(0, 0.0)
    assert plan.delivered
    assert plan.attempts == 4
    assert plan.arrival_time == pytest.approx(20.0)
    # A window outlasting the whole ladder exhausts the retries.
    exhausted = _delivery(
        spec, FaultSchedule(broker_crashes={0: [Window(start=0.0, end=21.0)]})
    ).plan(0, 0.0)
    assert not exhausted.delivered
    assert exhausted.attempts == 4
    assert exhausted.loss_events == 4


def test_plan_retry_limit_zero_never_queues():
    schedule = FaultSchedule(broker_crashes={0: [Window(start=0.0, end=10.0)]})
    plan = _delivery(ChaosSpec(delivery_retry_limit=0), schedule).plan(0, 1.0)
    assert not plan.delivered
    assert plan.attempts == 1
    assert not plan.queued and not plan.queue_overflow


def test_plan_queue_overflow_and_lazy_drain():
    """With one queue slot, a second concurrent loss is shed; once the
    first resolution time passes, the slot frees and queuing resumes."""
    spec = ChaosSpec(
        delivery_retry_limit=2,
        delivery_ack_timeout=1.0,
        delivery_queue_limit=1,
    )
    schedule = FaultSchedule(broker_crashes={0: [Window(start=0.0, end=50.0)]})
    delivery = _delivery(spec, schedule)
    # Attempts at 10, 11, 13 all die; the slot is held until the
    # final ack timeout lapses at 13 + 4 = 17.
    first = delivery.plan(0, 10.0)
    assert first.queued and not first.delivered
    assert delivery.pending_retransmits == 1
    shed = delivery.plan(0, 10.5)
    assert shed.queue_overflow
    assert shed.attempts == 1 and shed.loss_events == 1
    assert delivery.pending_retransmits == 1
    later = delivery.plan(0, 17.5)  # first slot has drained by now
    assert later.queued and not later.queue_overflow
    assert delivery.pending_retransmits == 1


def test_plan_broker_sharding():
    """broker_count=2: even proxies ride shard 0, odd ride shard 1."""
    spec = ChaosSpec(delivery_retry_limit=0, broker_count=2)
    schedule = FaultSchedule(broker_crashes={1: [Window(start=0.0, end=100.0)]})
    delivery = _delivery(spec, schedule)
    assert delivery.plan(2, 5.0).delivered  # shard 0: healthy
    assert not delivery.plan(3, 5.0).delivered  # shard 1: down


def test_plan_duplicate_and_reorder_bounds():
    spec = ChaosSpec(
        delivery_duplicate_probability=0.9, delivery_reorder_delay=5.0
    )
    delivery = _delivery(spec, seed=3)
    duplicated = 0
    for _ in range(50):
        plan = delivery.plan(0, 1000.0)
        assert plan.delivered
        assert 1000.0 <= plan.arrival_time < 1005.0
        if plan.duplicate_time is not None:
            duplicated += 1
            assert plan.arrival_time <= plan.duplicate_time < plan.arrival_time + 5.0
    assert duplicated > 25


# ---------------------------------------------------------------------------
# SequenceTracker units
# ---------------------------------------------------------------------------


def test_tracker_orders_duplicates_and_gaps():
    tracker = SequenceTracker()
    assert tracker.observe(7, 0) == "new"
    assert tracker.observe(7, 1) == "new"
    assert tracker.observe(7, 1) == "duplicate"  # redelivery
    assert tracker.observe(7, 0) == "duplicate"  # stale reordered copy
    assert tracker.observe(7, 3) == "gap"  # version 2 never arrived
    assert tracker.observe(7, 2) == "duplicate"  # late copy of the hole
    assert tracker.duplicates == 3
    assert tracker.gaps == 1
    assert tracker.last_seen(7) == 3
    assert tracker.last_seen(8) is None


def test_tracker_first_delivery_past_zero_is_a_gap():
    tracker = SequenceTracker()
    assert tracker.observe(4, 2) == "gap"
    assert tracker.gaps == 1


def test_tracker_learn_raises_watermark_silently():
    tracker = SequenceTracker()
    tracker.observe(4, 0)
    tracker.learn(4, 5)  # demand fetch saw version 5
    assert tracker.last_seen(4) == 5
    assert tracker.observe(4, 5) == "duplicate"  # late push, already known
    assert tracker.observe(4, 6) == "new"
    assert tracker.gaps == 0
    tracker.learn(4, 2)  # learning something older never regresses
    assert tracker.last_seen(4) == 6


def test_tracker_reset_clears_state_not_counters():
    tracker = SequenceTracker()
    tracker.observe(1, 0)
    tracker.observe(1, 0)
    assert tracker.duplicates == 1
    tracker.reset()
    assert tracker.last_seen(1) is None
    assert tracker.duplicates == 1  # counters are cumulative across crashes
    assert tracker.observe(1, 0) == "new"


# ---------------------------------------------------------------------------
# staleness-age histogram helpers
# ---------------------------------------------------------------------------


def test_staleness_age_bins():
    assert staleness_age_bin(0.0) == 0
    assert staleness_age_bin(60.0) == 0
    assert staleness_age_bin(60.1) == 1
    assert staleness_age_bin(3600.0) == 3
    assert staleness_age_bin(7 * 24 * 3600.0) == len(STALENESS_AGE_BIN_EDGES)
