"""Subscription lifecycle under churn: identity, determinism, repair.

The acceptance criteria of the lifecycle PR:

* churn disabled leaves every run bit-identical to the seed (all
  lifecycle metrics zero, no extra RNG stream derived);
* churn enabled is deterministic under a fixed seed and bit-identical
  between the replay driver and the agenda oracle;
* a chaos + delivery-fault + churn run completes, and no subscriber
  that keeps requesting permanently loses notifications — an access to
  a lapsed or stuck-pending cell always re-polls a confirmed lease
  (asserted exactly on a hand-built micro trace and at the manager
  level, and statistically on the macro run).
"""

import dataclasses
from bisect import bisect_left

import numpy as np
import pytest

from repro.faults.spec import ChaosSpec
from repro.pubsub.matching import TraceMatchCounts
from repro.sim.rng import RandomStreams
from repro.system.config import SimulationConfig
from repro.system.lifecycle import (
    NEVER,
    RENEWAL_LATENCY_BIN_EDGES,
    LifecycleManager,
    SubscriberQueue,
)
from repro.system.simulator import Simulation, run_simulation
from repro.workload import generate_workload, news_config
from repro.workload.churn import ChurnSpec, LifecycleRecord
from repro.workload.config import WorkloadConfig
from repro.workload.presets import make_trace
from repro.workload.trace import PageSpec, PublishRecord, RequestRecord, Workload

from tests.system._reference import AgendaSimulation
from tests.system.test_replay_fastpath import CHAOS, run_both, stripped

#: Aggressive churn so every lifecycle path fires at test scale.
CHURN = ChurnSpec(
    churn_rate=4.0,
    lease_duration=3 * 3600.0,
    renew_probability=0.6,
    confirmation_loss_probability=0.2,
)

#: Every scalar lifecycle counter on SimulationResult.
LIFECYCLE_COUNTERS = [
    "lifecycle_events",
    "leases_granted",
    "leases_renewed",
    "leases_expired",
    "leases_unsubscribed",
    "handshake_losses",
    "handshakes_abandoned",
    "lease_repolls",
    "handshake_repairs",
    "churn_stale_serves",
    "pushes_suppressed_no_lease",
    "active_leases_end",
    "pending_leases_end",
    "expired_leases_end",
    "lifecycle_queue_overflows",
    "lifecycle_queue_peak",
]


@pytest.fixture(scope="module")
def workload():
    return generate_workload(news_config(scale=0.03), RandomStreams(2), label="news")


@pytest.fixture(scope="module")
def churned(workload):
    return workload.with_churn(CHURN, RandomStreams(2).stream("workload.churn"))


# ---------------------------------------------------------------------------
# churn off: the layer does not exist
# ---------------------------------------------------------------------------


def test_lifecycle_fields_zero_without_churn(workload):
    result = run_simulation(workload, SimulationConfig(strategy="sub"))
    for name in LIFECYCLE_COUNTERS:
        assert getattr(result, name) == 0, name
    assert result.renewal_latency_bin_edges == []
    assert result.renewal_latency_counts == []
    assert result.lease_repair_ratio == 1.0  # nothing broke
    assert "leases=" not in result.summary()


def test_attaching_churn_does_not_disturb_the_base_workload(workload):
    """``with_churn`` returns a copy; the original trace — and a run on
    it — is byte-for-byte what it was before the lifecycle layer
    existed (the cached-trace contract of ``run_cell``)."""
    before = run_simulation(workload, SimulationConfig(strategy="dc-lap"))
    churned = workload.with_churn(CHURN, RandomStreams(2).stream("workload.churn"))
    assert churned is not workload and churned.lifecycle
    assert workload.lifecycle == [] and workload.churn is None
    after = run_simulation(workload, SimulationConfig(strategy="dc-lap"))
    assert stripped(before) == stripped(after)


# ---------------------------------------------------------------------------
# churn on: deterministic and engine-identical
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("strategy", ["dc-ap", "dc-lap", "gdstar", "sub"])
def test_bit_identity_across_engines_with_churn(churned, strategy):
    legacy, fast = run_both(churned, strategy=strategy)
    assert legacy.lifecycle_events == len(churned.lifecycle)
    assert legacy.leases_granted > 0
    assert legacy.leases_expired > 0
    assert legacy.handshake_losses > 0  # the loss probability bites
    assert stripped(legacy) == stripped(fast)


def test_churn_run_is_seed_deterministic(churned):
    config = SimulationConfig(strategy="dc-lap")
    first = run_simulation(churned, config)
    second = run_simulation(churned, config)
    assert stripped(first) == stripped(second)


def test_chaos_delivery_churn_completes_and_repairs(churned):
    """The full stack — crash/restart chaos, lossy delivery, churn —
    stays engine-identical, and lapsed cells that are touched again get
    repaired on access (the re-poll path actually fires)."""
    legacy, fast = run_both(churned, strategy="dc-lap", chaos=CHAOS)
    assert stripped(legacy) == stripped(fast)
    assert legacy.proxy_crashes > 0
    assert legacy.notifications_sent > 0
    assert legacy.leases_expired > 0
    assert legacy.lease_repolls + legacy.handshake_repairs > 0
    assert legacy.pushes_suppressed_no_lease > 0
    # End-of-run census covers every cell that ever subscribed.
    census = (
        legacy.active_leases_end
        + legacy.pending_leases_end
        + legacy.expired_leases_end
    )
    assert census > 0
    assert 0.0 <= legacy.lease_repair_ratio <= 1.0


def test_summary_mentions_leases_when_churned(churned):
    result = run_simulation(churned, SimulationConfig(strategy="sub"))
    assert "leases=" in result.summary()
    assert result.renewal_latency_bin_edges == RENEWAL_LATENCY_BIN_EDGES
    assert sum(result.renewal_latency_counts) > 0


def test_churn_erodes_push_hit_ratio_toward_the_pull_only_baseline():
    """More churn and shorter leases suppress more pushes, so DC-LAP's
    hit ratio falls toward GD*'s, which no lease touches.  At scale 0.03
    seed 7: DC-LAP 0.8610 > 0.8513 > 0.8337 with 0 < 124 < 311 pushes
    suppressed, GD* 0.7725 throughout (same order at seed 13 and at
    scale 0.05 seed 3)."""
    base = make_trace("news", scale=0.03, seed=7)
    traces = [base] + [
        base.with_churn(
            ChurnSpec(
                churn_rate=rate,
                lease_duration=hours * 3600.0,
                confirmation_loss_probability=0.2,
            ),
            RandomStreams(7).stream("workload.churn"),
        )
        for rate, hours in ((2.0, 6), (6.0, 1))
    ]
    chaos = ChaosSpec(delivery_loss_probability=0.1, delivery_retry_limit=1)

    def sweep(strategy):
        config = SimulationConfig(
            strategy=strategy, capacity_fraction=0.05, seed=7, chaos=chaos
        )
        return [run_simulation(trace, config) for trace in traces]

    hybrid, baseline = sweep("dc-lap"), sweep("gdstar")
    ratios = [result.hit_ratio for result in hybrid]
    suppressed = [result.pushes_suppressed_no_lease for result in hybrid]
    assert ratios[0] > ratios[1] > ratios[2] > baseline[0].hit_ratio
    assert 0 == suppressed[0] < suppressed[1] < suppressed[2]
    assert len({result.hit_ratio for result in baseline}) == 1


# ---------------------------------------------------------------------------
# micro trace: exact no-permanent-loss accounting
# ---------------------------------------------------------------------------


def micro_workload():
    """One page, two proxies, one lease that silently lapses.

    Timeline (lease granted at t=0 for 120 s, never renewed):

    ====  =====================================================
    t     event
    ====  =====================================================
    0     subscribe(proxy 0, lease 120) *and* publish v0 — the
          lifecycle record wins the tie, so v0 is deliverable
    50    request: lease healthy, no repair
    100   publish v1: delivered (lease valid until 120)
    200   publish v2: suppressed — the lease silently expired
    250   request: re-poll repair; the cached copy is behind
          (v1 < v2), so the miss is a churn stale serve and the
          proxy comes back with the current version
    300   publish v3: delivered again (repaired lease)
    ====  =====================================================
    """
    config = WorkloadConfig(
        horizon=1000.0,
        distinct_pages=1,
        modified_pages=1,
        total_requests=2,
        server_count=2,
    )
    pages = [
        PageSpec(
            page_id=0,
            size=100,
            rank=0,
            popularity_class=0,
            request_count=2,
            first_publish=0.0,
            modification_interval=100.0,
            version_count=4,
        )
    ]
    publishes = [
        PublishRecord(time=0.0, page_id=0, version=0),
        PublishRecord(time=100.0, page_id=0, version=1),
        PublishRecord(time=200.0, page_id=0, version=2),
        PublishRecord(time=300.0, page_id=0, version=3),
    ]
    requests = [
        RequestRecord(time=50.0, server_id=0, page_id=0),
        RequestRecord(time=250.0, server_id=0, page_id=0),
    ]
    lifecycle = [
        LifecycleRecord(time=0.0, server_id=0, page_id=0, kind="subscribe", lease=120.0)
    ]
    return Workload(
        config=config,
        pages=pages,
        publishes=publishes,
        requests=requests,
        label="micro",
        lifecycle=lifecycle,
        churn=ChurnSpec(),
    )


#: The agenda oracle and the replay driver, under the ids the two
#: engines had when they were selected by a config knob.
ENGINES = {"agenda": AgendaSimulation, "fast": Simulation}


@pytest.mark.parametrize("replay", sorted(ENGINES))
def test_micro_trace_exact_lifecycle_accounting(replay):
    workload = micro_workload()
    config = SimulationConfig(strategy="sub", capacity_fraction=1.0)
    simulation = ENGINES[replay](
        workload, config, match_table=TraceMatchCounts({0: {0: 5}})
    )
    result = simulation.run()
    assert result.lifecycle_events == 1
    assert result.leases_granted == 1
    assert result.leases_expired == 1
    # Exactly the t=200 publish was suppressed; t=0/100/300 got through.
    assert result.pushes_suppressed_no_lease == 1
    # The t=250 access repaired the lapsed lease on the spot...
    assert result.lease_repolls == 1
    assert result.handshake_repairs == 0
    # ... and found the cached copy behind the origin: the missed
    # notification had real cost, but the request still came back with
    # the current version — no permanent loss.
    assert result.churn_stale_serves == 1
    assert result.active_leases_end == 1
    assert result.expired_leases_end == 0
    # Draw-free handshake: no losses, no queue activity.
    assert result.handshake_losses == 0
    assert result.lifecycle_queue_peak == 0


def test_micro_trace_engine_identity():
    runs = []
    for engine in ENGINES.values():
        simulation = engine(
            micro_workload(),
            SimulationConfig(strategy="sub", capacity_fraction=1.0),
            match_table=TraceMatchCounts({0: {0: 5}}),
        )
        runs.append(stripped(simulation.run()))
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# manager-level: handshake loss, abandonment, queues, repair
# ---------------------------------------------------------------------------


def manager(rng=None, **kwargs):
    defaults = dict(confirmation_loss_probability=0.0)
    defaults.update(kwargs)
    return LifecycleManager(ChurnSpec(**defaults), server_count=2, rng=rng)


def sub(time, lease=100.0, server=0, page=0, kind="subscribe"):
    return LifecycleRecord(
        time=time, server_id=server, page_id=page, kind=kind, lease=lease
    )


def feed(m, record, now):
    """``record`` through the manager's scalar signature, as the replay
    driver feeds it a table row: ``(server_id, page_id, kind code, lease)``."""
    _time, *row = record.to_row()
    m.on_event(*row, now)


class TestManager:
    def test_lossless_lifecycle(self):
        m = manager()
        assert m.deliverable(0, 0, 0.0) == (False, "no-lease")
        feed(m, sub(0.0, lease=100.0), 0.0)
        assert m.deliverable(0, 0, 10.0) == (True, "")
        feed(m, sub(90.0, lease=100.0, kind="renew"), 90.0)
        assert m.deliverable(0, 0, 150.0) == (True, "")
        assert m.deliverable(0, 0, 190.1) == (False, "lease-expired")
        assert m.granted == 1 and m.renewed == 1 and m.expired == 1

    def test_unsubscribe_gates_delivery(self):
        m = manager()
        feed(m, sub(0.0), 0.0)
        feed(m, sub(10.0, kind="unsubscribe", lease=0.0), 10.0)
        assert m.deliverable(0, 0, 20.0) == (False, "unsubscribed")
        assert m.on_access(0, 0, 20.0) is None  # gone means gone

    def test_expired_lease_repaired_on_access(self):
        m = manager()
        feed(m, sub(0.0, lease=50.0), 0.0)
        assert m.deliverable(0, 0, 60.0) == (False, "lease-expired")
        assert m.on_access(0, 0, 70.0) == "expired"
        assert m.lease_repolls == 1
        assert m.deliverable(0, 0, 80.0) == (True, "")
        # Repaired lease has the nominal duration (no RNG draw).
        assert m.deliverable(0, 0, 70.0 + m.spec.lease_duration - 1.0) == (True, "")

    def test_abandoned_handshake_repaired_on_access(self):
        m = manager(
            rng=np.random.default_rng(0),
            confirmation_loss_probability=1.0,
            confirm_retry_limit=2,
        )
        feed(m, sub(0.0, lease=1000.0), 0.0)
        assert m.handshake_losses == 3  # initial attempt + 2 retries
        assert m.handshakes_abandoned == 1
        assert m.deliverable(0, 0, 500.0) == (False, "lease-pending")
        assert m.on_access(0, 0, 500.0) == "handshake"
        assert m.handshake_repairs == 1
        assert m.deliverable(0, 0, 501.0) == (True, "")

    def test_pending_promotes_once_confirmation_lands(self):
        # loss = 0.5 with this seed: first draw is a loss, second
        # confirms — the lease stays pending for one backoff step.
        rng = np.random.default_rng(1)
        m = manager(
            rng=rng,
            confirmation_loss_probability=0.5,
            confirm_timeout=2.0,
        )
        feed(m, sub(0.0, lease=1000.0), 0.0)
        if m.handshake_losses:
            allowed, reason = m.deliverable(0, 0, 0.5)
            assert (allowed, reason) == (False, "lease-pending")
        assert m.deliverable(0, 0, 200.0) == (True, "")

    def test_queue_overflow_sheds_handshakes(self):
        m = manager(
            rng=np.random.default_rng(0),
            confirmation_loss_probability=1.0,
            confirm_retry_limit=3,
            queue_limit=1,
        )
        feed(m, sub(0.0, page=0), 0.0)  # occupies the single slot
        feed(m, sub(0.0, page=1), 0.0)  # shed at admission
        assert m.handshakes_abandoned == 2
        assert m.queue_overflows == 1
        assert m.queue_peak == 1
        # The shed handshake lost only its first attempt.
        assert m.handshake_losses == (m.spec.confirm_retry_limit + 1) + 1

    def test_finalize_census(self):
        m = manager()
        feed(m, sub(0.0, lease=50.0, page=0), 0.0)    # will expire
        feed(m, sub(0.0, lease=1e9, page=1), 0.0)     # stays active
        feed(m, sub(0.0, lease=50.0, page=2), 0.0)
        feed(m, sub(10.0, kind="unsubscribe", lease=0.0, page=2), 10.0)
        census = m.finalize(horizon=1000.0)
        assert census == {
            "active": 1, "pending": 0, "expired": 1, "unsubscribed": 1
        }
        assert m.expired == 1  # counted exactly once, by finalize


class TestSubscriberQueue:
    def test_admit_drain_peak(self):
        queue = SubscriberQueue(limit=2)
        queue.admit(10.0)
        queue.admit(5.0)
        assert queue.full and queue.peak == 2
        queue.drain(5.0)  # resolve_at <= now frees the slot
        assert len(queue) == 1 and not queue.full
        queue.drain(100.0)
        assert len(queue) == 0
        assert queue.peak == 2  # peak is sticky


def renewal_latency_bin(latency):
    """The bin rule as a loop — what ``on_event``'s ``bisect_left`` replaced."""
    for index, edge in enumerate(RENEWAL_LATENCY_BIN_EDGES):
        if latency <= edge:
            return index
    return len(RENEWAL_LATENCY_BIN_EDGES)


def test_renewal_latency_bins():
    assert renewal_latency_bin(0.0) == 0
    assert renewal_latency_bin(0.5) == 0
    assert renewal_latency_bin(3.0) == 3
    assert renewal_latency_bin(1e9) == len(RENEWAL_LATENCY_BIN_EDGES)
    for latency in (0.0, 0.5, 3.0, 1e9, *RENEWAL_LATENCY_BIN_EDGES):
        for nudged in (np.nextafter(latency, 0.0), latency, np.nextafter(latency, np.inf)):
            assert bisect_left(RENEWAL_LATENCY_BIN_EDGES, nudged) == renewal_latency_bin(nudged)
    assert NEVER == float("inf")
