"""Tracing the subscription lifecycle: the seven lease event types.

Unit half: the :class:`Observer` lifecycle hooks emit exactly the
documented JSONL shape for ``subscribe``, ``unsubscribe``,
``lease_confirmed``, ``lease_renewed``, ``lease_expired``,
``handshake_lost`` and ``repoll``.

Integration half: a churned run traces all seven types end to end.
"""

import pytest

from repro.obs import EventTracer, Observer
from repro.obs.tracer import EVENT_TYPES, read_jsonl
from repro.sim.rng import RandomStreams
from repro.system.config import SimulationConfig
from repro.system.simulator import Simulation
from repro.workload import generate_workload, news_config
from repro.workload.churn import ChurnSpec

LIFECYCLE_TYPES = (
    "subscribe",
    "unsubscribe",
    "lease_confirmed",
    "lease_renewed",
    "lease_expired",
    "handshake_lost",
    "repoll",
)


def _emit_all(observer):
    """Drive every lifecycle hook once, at distinct times."""
    observer.lease_subscribe(1.0, page=4, proxy=0, lease=3600.0)
    observer.lease_confirmed(2.0, page=4, proxy=0, latency=1.0)
    observer.lease_renewed(3.0, page=4, proxy=0, lease=3600.0)
    observer.handshake_lost(4.0, page=4, proxy=1, attempts=3)
    observer.repoll(5.0, page=4, proxy=1, reason="access")
    observer.lease_expired(6.0, page=4, proxy=0, where="publish")
    observer.lease_unsubscribe(7.0, page=4, proxy=0)


def _traced(path, *extra):
    """The events of one observer driven through every lifecycle hook,
    then through ``extra`` (callables of the observer), read back."""
    observer = Observer(tracer=EventTracer(str(path)))
    _emit_all(observer)
    for drive in extra:
        drive(observer)
    observer.close()
    return read_jsonl(str(path))


class TestLifecycleEventShape:
    def test_all_seven_types_are_in_the_taxonomy(self):
        assert set(LIFECYCLE_TYPES) <= EVENT_TYPES

    def test_hooks_emit_one_jsonl_line_each(self, tmp_path):
        events = _traced(tmp_path / "trace.jsonl")
        assert [event["type"] for event in events] == [
            "subscribe",
            "lease_confirmed",
            "lease_renewed",
            "handshake_lost",
            "repoll",
            "lease_expired",
            "unsubscribe",
        ]
        assert all(event["page"] == 4 for event in events)

    def test_type_specific_fields(self, tmp_path):
        by_type = {event["type"]: event for event in _traced(tmp_path / "trace.jsonl")}
        assert by_type["subscribe"]["lease"] == 3600.0
        assert by_type["lease_renewed"]["lease"] == 3600.0
        assert by_type["lease_confirmed"]["latency"] == 1.0
        assert by_type["handshake_lost"]["attempts"] == 3
        assert by_type["repoll"]["reason"] == "access"
        assert by_type["lease_expired"]["where"] == "publish"

    def test_events_for_page_replays_the_lease_life(self, tmp_path):
        events = _traced(
            tmp_path / "trace.jsonl",
            lambda observer: observer.lease_subscribe(8.0, page=9, proxy=0, lease=60.0),
        )
        life = [event for event in events if event.get("page") == 4]
        assert len(life) == 7
        assert [event["t"] for event in life] == sorted(e["t"] for e in life)


class TestChurnedRunTrace:
    @pytest.fixture(scope="class")
    def churned_trace(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("lifecycle") / "trace.jsonl")
        workload = generate_workload(
            news_config(scale=0.03), RandomStreams(2), label="news"
        )
        churned = workload.with_churn(
            ChurnSpec(
                churn_rate=4.0,
                lease_duration=3 * 3600.0,
                renew_probability=0.6,
                confirmation_loss_probability=0.2,
            ),
            RandomStreams(2).stream("workload.churn"),
        )
        observer = Observer(tracer=EventTracer(path))
        config = SimulationConfig(strategy="dc-lap", seed=2)
        result = Simulation(churned, config, observer=observer).run()
        observer.close()
        return read_jsonl(path), result

    def test_all_seven_types_appear(self, churned_trace):
        events, _ = churned_trace
        seen = {event["type"] for event in events}
        missing = set(LIFECYCLE_TYPES) - seen
        assert not missing, f"trace never emitted: {sorted(missing)}"

    def test_trace_counts_match_result_counters(self, churned_trace):
        events, result = churned_trace
        counts = {}
        for event in events:
            counts[event["type"]] = counts.get(event["type"], 0) + 1
        assert counts["subscribe"] == result.leases_granted
        assert counts["lease_renewed"] == result.leases_renewed
        assert counts["lease_expired"] == result.leases_expired
        assert counts["unsubscribe"] == result.leases_unsubscribed
        # handshake_lost traces only fully-abandoned handshakes, not
        # every individual lost confirmation attempt.
        assert counts["handshake_lost"] == result.handshakes_abandoned
        # A repoll trace fires for both expired-lease repolls and
        # access-time handshake repairs (reason="expired"/"handshake").
        assert counts["repoll"] == result.lease_repolls + result.handshake_repairs
