"""The lifecycle stream as the third event table.

Table semantics for ``LifecycleRecord`` (whose row stores the kind as a
code), the stored form and its damage cases, and the two paths that used
to be silent: an unknown kind, and the per-subscriber event cap.
"""

import dataclasses
import json
import logging

import numpy as np
import pytest

from repro.experiments.artifacts import ArtifactCache, cached_trace
from repro.sim.rng import RandomStreams
from repro.workload.churn import (
    LIFECYCLE_KINDS,
    MAX_EVENTS_PER_SUBSCRIBER,
    ChurnSpec,
    LifecycleRecord,
    churn_statistics,
    generate_churn,
)
from repro.workload.config import DAY
from repro.workload.presets import make_trace
from repro.workload.streaming import make_streaming_trace
from repro.workload.trace import ROW_DTYPES, EventTable, RequestRecord, Workload
from tests.workload import _reference
from tests.workload.test_trace_digest import trace_digest

SPEC = ChurnSpec(churn_rate=2.0, lease_duration=7200.0, renew_probability=0.6)


def _records(count):
    return [
        LifecycleRecord(
            time=float(i // 2),
            server_id=i % 3,
            page_id=i % 5,
            kind=LIFECYCLE_KINDS[i % 3],
            lease=0.0 if i % 3 == 2 else 60.0 + i,
        )
        for i in range(count)
    ]


@pytest.fixture(scope="module")
def churned():
    return make_trace("news", scale=0.03, seed=3).with_churn(
        SPEC, RandomStreams(3).stream("workload.churn")
    )


# -- table semantics ---------------------------------------------------------


def test_row_layout_is_the_sort_key_then_the_lease():
    dtype = ROW_DTYPES[LifecycleRecord]
    assert dtype.names == ("time", "server_id", "page_id", "kind", "lease")
    assert [dtype[name].str for name in dtype.names] == ["<f8", "<i4", "<i4", "|i1", "<f8"]
    assert dtype.itemsize == 25


def test_lifecycle_table_reads_like_the_list_of_records():
    records = _records(10)
    table = EventTable(LifecycleRecord, records, chunk_rows=4)
    assert table.rows["kind"].tolist() == [i % 3 for i in range(10)]
    assert len(table) == 10
    assert table[0] == records[0] and table[-1] == records[-1] and table[-3] == records[7]
    assert type(table[3]) is LifecycleRecord
    assert type(table[3].time) is float and type(table[3].page_id) is int
    assert type(table[3].kind) is str and type(table[3].lease) is float
    with pytest.raises(IndexError):
        table[10]
    # Iteration crosses the 4-row chunk boundary twice.
    assert list(table) == records
    assert list(reversed(table)) == records[::-1]
    assert records[7] in table
    middle = table[2:9]
    assert isinstance(middle, EventTable) and middle.chunk_rows == 4
    assert middle == records[2:9]
    assert middle[1:-1:2] == records[3:8:2]
    assert middle[-2] == records[7]


def test_lifecycle_table_equality():
    records = _records(6)
    table = EventTable(LifecycleRecord, records)
    assert table == EventTable(LifecycleRecord, records)
    assert table == records and records == table
    assert table != records[:-1] and table != records[::-1]
    assert table != EventTable(LifecycleRecord, records[:-1])
    # One field apart, in the column a record does not store as itself.
    other = [dataclasses.replace(records[0], kind="renew"), *records[1:]]
    assert table != other and table != EventTable(LifecycleRecord, other)
    # A table of another record type is never the same events.
    requests = EventTable(
        RequestRecord, [RequestRecord(r.time, r.server_id, r.page_id) for r in records]
    )
    assert table != requests and requests != table
    assert table != "lifecycle" and table != 6


def test_empty_lifecycle_table():
    empty = EventTable(LifecycleRecord)
    assert len(empty) == 0 and list(empty) == [] and empty == [] and not empty
    assert empty == EventTable(LifecycleRecord, []) and empty[:3] == []
    assert empty != EventTable(RequestRecord)
    assert list(empty.chunks()) == []
    with pytest.raises(IndexError):
        empty[0]
    assert generate_churn([], DAY, SPEC, np.random.default_rng(0)) == empty
    assert churn_statistics(empty) == {
        "events": 0, "subscribers": 0, "subscribe": 0, "renew": 0, "unsubscribe": 0
    }


def test_workload_wraps_a_hand_built_record_list(churned):
    records = list(churned.lifecycle)
    rebuilt = dataclasses.replace(churned, lifecycle=records)
    assert isinstance(rebuilt.lifecycle, EventTable)
    assert rebuilt.lifecycle.record is LifecycleRecord
    assert rebuilt == churned and rebuilt.to_json() == churned.to_json()
    # A churn-free trace keeps a plain empty list (and never imports churn).
    assert dataclasses.replace(churned, lifecycle=[], churn=None).lifecycle == []


def test_with_churn_on_a_spilled_trace_equals_in_memory(churned):
    streaming = make_streaming_trace("news", scale=0.03, seed=3)
    try:
        spilled = streaming.with_churn(SPEC, RandomStreams(3).stream("workload.churn"))
        assert spilled.spool is not None
        assert isinstance(spilled.lifecycle, EventTable)
        assert np.array_equal(spilled.lifecycle.rows, churned.lifecycle.rows)
        assert spilled == churned
    finally:
        streaming.close()


def test_churn_statistics_equals_the_record_loop(churned):
    # The parent's implementation: one pass over record attributes.
    counts = {kind: 0 for kind in LIFECYCLE_KINDS}
    subscribers = set()
    for event in churned.lifecycle:
        counts[event.kind] += 1
        subscribers.add((event.server_id, event.page_id))
    want = {"events": len(churned.lifecycle), "subscribers": len(subscribers), **counts}
    assert churn_statistics(churned.lifecycle) == want
    assert churn_statistics(list(churned.lifecycle)) == want
    assert list(churn_statistics(churned.lifecycle)) == list(want)  # key order too
    assert all(type(value) is int for value in churn_statistics(churned.lifecycle).values())


# -- an unknown kind is rejected where the table is built ----------------------

UNKNOWN_KIND = r"unknown lifecycle kind 'renewal' \(expected one of subscribe, renew, unsubscribe\)"


def test_unknown_kind_is_rejected_when_the_table_is_built(churned):
    bad = LifecycleRecord(0.0, 0, 1, "renewal", 60.0)
    with pytest.raises(ValueError, match=UNKNOWN_KIND):
        EventTable(LifecycleRecord, [bad])
    with pytest.raises(ValueError, match=UNKNOWN_KIND):
        dataclasses.replace(churned, lifecycle=[*churned.lifecycle[:3], bad])
    with pytest.raises(ValueError, match=UNKNOWN_KIND):
        churn_statistics([bad])


# -- the stored form and its damage cases ------------------------------------------


def test_churned_trace_round_trips_byte_for_byte(churned):
    text = churned.to_json()
    restored = Workload.from_json(text)
    assert restored == churned
    assert restored.to_json() == text
    assert np.array_equal(restored.lifecycle.rows, churned.lifecycle.rows)
    assert restored.lifecycle.rows.dtype == ROW_DTYPES[LifecycleRecord]
    assert list(json.loads(text)["lifecycle"]) == ["time", "server_id", "page_id", "kind", "lease"]


def _damaged_lifecycle_blocks(payload):
    """Valid JSON whose lifecycle block is not a lifecycle table."""
    block = payload["lifecycle"]
    yield "ragged", "ragged LifecycleRecord columns", {**block, "lease": block["lease"][:-1]}
    yield "one-row column", "ragged LifecycleRecord columns", {**block, "kind": block["kind"][:1]}
    for code in (3, -1, 300):
        yield (
            f"kind code {code}",
            "unknown lifecycle kind code|out of bounds",
            {**block, "kind": [code, *block["kind"][1:]]},
        )
    rows = [dict(zip(block, row)) for row in zip(*block.values())][:5]
    yield "row dicts", "pre-columnar layout", rows
    yield "kind names", "invalid literal", {**block, "kind": ["subscribe"] * len(block["kind"])}


def test_damaged_lifecycle_block_never_loads_as_a_shorter_stream(churned, tmp_path, caplog):
    payload = json.loads(churned.to_json())
    # A hand-edited artifact entry takes the cache's corrupt-entry path.
    cache = ArtifactCache(str(tmp_path))
    want = trace_digest(cached_trace(cache, "news", 0.03, 3))
    path = cache.path("trace", {"trace": "news", "scale": 0.03, "seed": 3})
    for label, message, block in _damaged_lifecycle_blocks(payload):
        text = json.dumps({**payload, "lifecycle": block})
        with pytest.raises(ValueError, match=message):
            Workload.from_json(text)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        misses = cache.misses
        caplog.clear()
        regenerated = cached_trace(cache, "news", 0.03, 3)
        assert trace_digest(regenerated) == want and regenerated.lifecycle == [], label
        assert cache.misses == misses + 1, label
        assert "corrupt trace artifact" in caplog.text, label
    del payload["lifecycle"]["lease"]
    with pytest.raises(KeyError):  # a missing column: the cache regenerates on it too
        Workload.from_json(json.dumps(payload))


# -- the per-subscriber cap says so ---------------------------------------------


def test_cap_warns_once_per_call_and_names_the_count(caplog):
    pathological = ChurnSpec(lease_duration=1.0, lease_min=1.0, renew_probability=1.0)
    with caplog.at_level(logging.WARNING, logger="repro.workload"):
        events = generate_churn(
            [(1, 0), (2, 0), (1, 0)], 30 * DAY, pathological, np.random.default_rng(0)
        )
    assert len(events) == 2 * MAX_EVENTS_PER_SUBSCRIBER
    (record,) = caplog.records
    assert record.levelno == logging.WARNING and record.name.startswith("repro.workload")
    message = record.getMessage()
    assert "2 subscriber(s)" in message and f"{MAX_EVENTS_PER_SUBSCRIBER}-event cap" in message
    # The earliest cut-off is the last event of the chain that stopped first.
    last = {}
    for event in events:
        last[event.page_id] = event.time
    assert f"t={min(last.values()):.0f} s" in message
    assert f"{30 * DAY:.0f} s horizon" in message
    # Same stream as the silent generator: the warning changes nothing.
    assert events == _reference.generate_churn(
        [(1, 0), (2, 0)], 30 * DAY, pathological, np.random.default_rng(0)
    )


def test_no_cap_no_warning(caplog):
    with caplog.at_level(logging.DEBUG, logger="repro.workload"):
        generate_churn([(1, 0), (2, 1)], 2 * DAY, SPEC, np.random.default_rng(0))
    assert caplog.records == []
