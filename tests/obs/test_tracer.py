"""The event tracer: a JSONL sink carrying the bound run context."""

import pytest

from repro.obs import EVENT_TYPES, EventTracer, read_jsonl


def test_jsonl_round_trip(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    tracer = EventTracer(path)
    tracer.bind(strategy="sg2")
    tracer.emit("run_start", t=0.0, seed=7)
    tracer.emit("publish", t=12.5, page=4, version=0, size=800)
    tracer.emit("evict", t=99.0, page=4, proxy=2, size=800, cause="capacity")
    tracer.close()
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


@pytest.mark.parametrize("line", ["[]", "3", '"request"', "null"])
def test_read_jsonl_rejects_a_line_that_is_not_an_object(tmp_path, line):
    path = tmp_path / "odd.jsonl"
    path.write_text('{"t":0.0,"type":"request"}\n' + line + "\n")
    with pytest.raises(ValueError, match="odd.jsonl:2: bad trace line"):
        read_jsonl(str(path))


@pytest.mark.parametrize("field", ["page", "proxy", "version"])
@pytest.mark.parametrize("value", ["[1]", '"3"', "true", "2.0", "null"])
def test_read_jsonl_rejects_an_id_that_is_not_an_integer(tmp_path, field, value):
    path = tmp_path / "odd.jsonl"
    path.write_text('{"t":0.0,"type":"request","page":1}\n{"t":1.0,"%s":%s}\n' % (field, value))
    with pytest.raises(ValueError, match=f"odd.jsonl:2: bad trace line: {field} must be an integer"):
        read_jsonl(str(path))


def test_bind_and_unbind_context(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    tracer = EventTracer(path)
    tracer.bind(strategy="sub", seed=7)
    tracer.emit("request", t=1.0, page=1)
    tracer.bind(strategy=None)
    tracer.emit("request", t=2.0, page=1)
    tracer.close()
    first, second = read_jsonl(path)
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
