"""The event tracer: ring buffer, JSONL sink, emit-time filters."""

import io

import pytest

from repro.obs import EVENT_TYPES, EventTracer, read_jsonl


def test_ring_buffer_keeps_newest():
    tracer = EventTracer(max_events=3)
    for index in range(5):
        tracer.emit("request", t=float(index), page=index)
    events = tracer.events()
    assert [event["page"] for event in events] == [2, 3, 4]


def test_zero_max_events_disables_ring():
    tracer = EventTracer(sink=io.StringIO(), max_events=0)
    tracer.emit("request", t=1.0, page=1)
    assert tracer.events() == []


def test_negative_max_events_rejected():
    with pytest.raises(ValueError):
        EventTracer(max_events=-1)


def test_jsonl_round_trip(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    with EventTracer(sink=path, max_events=0) as tracer:
        tracer.bind(strategy="sg2")
        tracer.emit("run_start", t=0.0, seed=7)
        tracer.emit("publish", t=12.5, page=4, version=0, size=800)
        tracer.emit("evict", t=99.0, page=4, proxy=2, size=800, cause="capacity")
    events = read_jsonl(path)
    assert [event["type"] for event in events] == ["run_start", "publish", "evict"]
    assert events[1] == {
        "t": 12.5, "type": "publish", "page": 4,
        "strategy": "sg2", "version": 0, "size": 800,
    }
    assert events[2]["cause"] == "capacity"


def test_read_jsonl_reports_bad_line(tmp_path):
    path = tmp_path / "broken.jsonl"
    path.write_text('{"t":0.0,"type":"request"}\nnot json\n')
    with pytest.raises(ValueError, match="broken.jsonl:2"):
        read_jsonl(str(path))


def test_page_filter():
    tracer = EventTracer(pages=[4])
    tracer.emit("request", t=1.0, page=4, proxy=0)
    tracer.emit("request", t=2.0, page=5, proxy=0)
    tracer.emit("crash", t=3.0, proxy=1)  # no page: filtered too
    assert [event["page"] for event in tracer.events()] == [4]
    assert tracer.dropped == 2


def test_proxy_and_type_filters():
    tracer = EventTracer(proxies=[1], types=["evict"])
    tracer.emit("evict", t=1.0, page=9, proxy=1, size=10, cause="capacity")
    tracer.emit("evict", t=2.0, page=9, proxy=2, size=10, cause="capacity")
    tracer.emit("request", t=3.0, page=9, proxy=1)
    assert len(tracer.events()) == 1
    assert tracer.dropped == 2


def test_unknown_type_filter_rejected():
    with pytest.raises(ValueError, match="unknown event types"):
        EventTracer(types=["no-such-event"])


def test_run_framing_bypasses_filters():
    tracer = EventTracer(pages=[4], types=["evict"])
    tracer.emit("run_start", t=0.0, strategy="sub")
    tracer.emit("run_end", t=10.0)
    assert [event["type"] for event in tracer.events()] == ["run_start", "run_end"]
    assert tracer.dropped == 0


def test_bind_and_unbind_context():
    tracer = EventTracer()
    tracer.bind(strategy="sub", seed=7)
    tracer.emit("request", t=1.0, page=1)
    tracer.bind(strategy=None)
    tracer.emit("request", t=2.0, page=1)
    first, second = tracer.events()
    assert first["strategy"] == "sub" and first["seed"] == 7
    assert "strategy" not in second and second["seed"] == 7


def test_taxonomy_is_complete():
    # The docs table and the simulator agree on these names.
    expected = {
        "run_start", "run_end", "publish", "match", "push_offer",
        "push_accept", "push_reject", "push_suppressed", "request",
        "hit", "stale", "miss", "fetch", "peer_fetch", "failover",
        "retry", "failed", "evict", "crash", "restart", "outage",
        "outage_end", "delivery_drop", "delivery_retransmit",
        "delivery_lost", "delivery_dup", "delivery_gap",
        "stale_served", "repair",
        "subscribe", "unsubscribe", "lease_confirmed", "lease_renewed",
        "lease_expired", "handshake_lost", "repoll",
        "overload_shed", "overload_reject", "overload_stale",
        "retry_denied",
    }
    assert EVENT_TYPES == expected
