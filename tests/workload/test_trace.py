"""Tests for workload assembly and the Workload container."""

import dataclasses
import json
import tracemalloc
from itertools import chain

import numpy as np
import pytest

from repro.sim.rng import RandomStreams
from repro.workload.churn import LIFECYCLE_KINDS, ChurnSpec
from repro.workload.config import DAY, HOUR, WorkloadConfig
from repro.workload.presets import alternative_config, make_trace, news_config
from repro.workload.trace import (
    EventTable,
    PublishRecord,
    RequestRecord,
    Workload,
    generate_workload,
)


@pytest.fixture(scope="module")
def small_trace():
    return generate_workload(
        news_config(scale=0.05), RandomStreams(3), label="news"
    )


def test_counts_match_config(small_trace):
    config = small_trace.config
    assert len(small_trace.pages) == config.distinct_pages
    assert small_trace.request_count == config.total_requests
    assert small_trace.publish_count >= config.distinct_pages


def test_streams_are_time_sorted(small_trace):
    publish_times = [event.time for event in small_trace.publishes]
    request_times = [record.time for record in small_trace.requests]
    assert publish_times == sorted(publish_times)
    assert request_times == sorted(request_times)


def test_requests_never_precede_first_publication(small_trace):
    first_publish = {page.page_id: page.first_publish for page in small_trace.pages}
    for record in small_trace.requests:
        assert record.time >= first_publish[record.page_id] - 1e-9


def test_versions_ordered_per_page(small_trace):
    last_version = {}
    for event in small_trace.publishes:
        expected = last_version.get(event.page_id, -1) + 1
        assert event.version == expected
        last_version[event.page_id] = event.version


def test_request_pairs_are_built_on_each_call(small_trace):
    """The trace keeps no per-request list: two calls return equal lists,
    and once the caller drops its list the memory is back."""
    trace = dataclasses.replace(small_trace)
    pairs = trace.request_pairs()
    assert len(pairs) == trace.request_count
    assert trace.request_pairs() == pairs
    del pairs
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        pairs = trace.request_pairs()
        held, _ = tracemalloc.get_traced_memory()
        del pairs
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held - before > 32 * trace.request_count
    # What stays is CPython's free list of 2-tuples (2,000 of them).
    assert after - before < (held - before) / 4


def test_a_replace_copy_reports_its_own_request_pairs(small_trace):
    small_trace.request_pairs()
    copy = dataclasses.replace(
        small_trace, requests=small_trace.requests[: 10]
    )
    assert copy.request_pairs() == [
        (record.page_id, record.server_id) for record in copy.requests
    ]


def _requests(count):
    return [
        RequestRecord(time=float(i), server_id=i % 3, page_id=i % 5) for i in range(count)
    ]


def test_event_table_reads_like_the_list_of_records():
    records = _requests(10)
    table = EventTable(RequestRecord, records, chunk_rows=4)
    assert len(table) == 10
    assert table[0] == records[0] and table[-1] == records[-1]
    assert isinstance(table[3], RequestRecord)
    assert type(table[3].time) is float and type(table[3].page_id) is int
    with pytest.raises(IndexError):
        table[10]
    # Iteration crosses the 4-row chunk boundary twice.
    assert list(table) == records
    assert list(reversed(table)) == records[::-1]
    assert records[7] in table
    # A slice is a table over the same rows; so is a slice of a slice.
    middle = table[2:9]
    assert isinstance(middle, EventTable) and middle.chunk_rows == 4
    assert middle == records[2:9]
    assert middle[1:-1:2] == records[3:8:2]
    assert middle[-2] == records[7]


def test_event_table_equality():
    records = _requests(6)
    table = EventTable(RequestRecord, records)
    assert table == EventTable(RequestRecord, records)
    assert table == records and records == table
    assert table != records[:-1] and table != records[::-1]
    assert table != EventTable(RequestRecord, records[:-1])
    # Same numbers under the other record type: not the same events.
    publishes = EventTable(
        PublishRecord, [PublishRecord(r.time, r.server_id, r.page_id) for r in records]
    )
    assert publishes.rows.tolist() == table.rows.tolist()
    assert table != publishes
    assert table != "requests" and table != 6


def test_empty_event_table():
    empty = EventTable(PublishRecord)
    assert len(empty) == 0 and list(empty) == [] and empty == []
    assert empty == EventTable(PublishRecord, []) and empty[:3] == []
    assert empty != EventTable(RequestRecord)
    assert list(empty.chunks()) == []
    with pytest.raises(IndexError):
        empty[0]


def test_workload_from_record_lists_equals_workload_from_rows(small_trace):
    from_lists = Workload(
        config=small_trace.config,
        pages=small_trace.pages,
        publishes=list(small_trace.publishes),
        requests=list(small_trace.requests),
        label=small_trace.label,
    )
    assert from_lists == small_trace
    assert from_lists.requests.rows.dtype == small_trace.requests.rows.dtype
    assert from_lists.pair_counts() == small_trace.pair_counts()
    assert from_lists.to_json() == small_trace.to_json()


def test_pair_counts_count_the_request_pairs(small_trace):
    counted = {}
    for pair in small_trace.request_pairs():
        counted[pair] = counted.get(pair, 0) + 1
    assert small_trace.pair_counts() == counted
    assert list(small_trace.pair_counts()) == sorted(counted)
    assert small_trace.pair_counts() is small_trace.pair_counts()
    # Chunk boundaries fall inside runs of one pair: counts still add up.
    fine = dataclasses.replace(
        small_trace,
        requests=EventTable(RequestRecord, small_trace.requests.rows, chunk_rows=7),
    )
    assert fine.pair_counts() == counted


def test_for_servers_partitions_the_requests(small_trace):
    servers = range(small_trace.config.server_count)
    shards = [
        small_trace.for_servers(shard)
        for shard in ([0, 3], [1], [s for s in servers if s not in (0, 1, 3)])
    ]
    seen = []
    fleet = small_trace.unique_bytes_per_server()
    for shard in shards:
        assert shard.publishes is small_trace.publishes
        seen.append({record.server_id for record in shard.requests})
        assert shard.unique_bytes_per_server() == {server: fleet[server] for server in seen[-1]}
        times = [record.time for record in shard.requests]
        assert times == sorted(times)
    assert seen[0] == {0, 3} and seen[1] == {1}
    assert not (seen[0] & seen[2]) and not (seen[1] & seen[2])
    # Disjoint, and together the whole trace: the multiset union is it.
    assert sum(shard.request_count for shard in shards) == small_trace.request_count
    union = sorted(chain.from_iterable(shard.requests.rows.tolist() for shard in shards))
    assert union == small_trace.requests.rows.tolist()
    assert small_trace.for_servers([]).request_count == 0


def test_server_ids_in_range(small_trace):
    for record in small_trace.requests:
        assert 0 <= record.server_id < small_trace.config.server_count


def test_version_at(small_trace):
    page = next(p for p in small_trace.pages if p.modification_interval > 0)
    assert small_trace.version_at(page.page_id, page.first_publish) == 0
    late = page.first_publish + 1.5 * page.modification_interval
    assert small_trace.version_at(page.page_id, late) == 1
    assert (
        small_trace.version_at(page.page_id, small_trace.config.horizon * 2)
        == page.version_count - 1
    )
    unmodified = next(p for p in small_trace.pages if p.modification_interval == 0)
    assert small_trace.version_at(unmodified.page_id, 1e12) == 0


def test_unique_bytes_and_capacities(small_trace):
    unique = small_trace.unique_bytes_per_server()
    capacities = small_trace.capacities(0.05)
    assert len(capacities) == small_trace.config.server_count
    for server, total in unique.items():
        assert capacities[server] == max(1, int(total * 0.05))
    with pytest.raises(ValueError):
        small_trace.capacities(0.0)


def test_unique_bytes_match_per_request_loop(small_trace):
    """The one pass over distinct pairs against the per-request loop it replaced."""
    sizes = {page.page_id: page.size for page in small_trace.pages}
    seen = {}
    for record in small_trace.requests:
        seen.setdefault(record.server_id, set()).add(record.page_id)
    reference = {
        server: sum(sizes[page_id] for page_id in pages)
        for server, pages in seen.items()
    }
    assert small_trace.unique_bytes_per_server() == reference
    for fraction in (0.01, 0.05, 1.0):
        mean_bytes = sum(reference.values()) / len(reference)
        expected = {
            server: max(1, int(reference.get(server, mean_bytes) * fraction))
            for server in range(small_trace.config.server_count)
        }
        assert small_trace.capacities(fraction) == expected


def test_capacity_for_silent_server():
    config = dataclasses.replace(
        news_config(scale=0.02), server_count=50
    )
    trace = generate_workload(config, RandomStreams(1))
    capacities = trace.capacities(0.05)
    assert len(capacities) == 50
    assert all(value >= 1 for value in capacities.values())


def test_to_json_stores_event_columns(small_trace):
    """Each stored column is that field of the records, in order (a
    lifecycle kind as its index in ``LIFECYCLE_KINDS``); the churn block
    serializes like ``asdict``."""
    churned = small_trace.with_churn(
        ChurnSpec(churn_rate=2.0, lease_duration=2 * HOUR, renew_probability=0.6),
        RandomStreams(3).stream("workload.churn"),
    )
    assert churned.lifecycle
    for workload in (small_trace, churned):
        text = workload.to_json()
        payload = json.loads(text)
        assert payload["label"] == workload.label
        assert payload["config"] == json.loads(
            json.dumps(dataclasses.asdict(workload.config))
        )
        assert payload["pages"] == [dataclasses.asdict(page) for page in workload.pages]
        for stream, names in (
            ("publishes", ["time", "page_id", "version"]),
            ("requests", ["time", "server_id", "page_id"]),
        ):
            assert list(payload[stream]) == names
            for name in names:
                assert payload[stream][name] == [
                    getattr(event, name) for event in getattr(workload, stream)
                ]
        if workload.lifecycle:
            names = ["time", "server_id", "page_id", "kind", "lease"]
            assert list(payload["lifecycle"]) == names
            stored = dict(payload["lifecycle"])
            stored["kind"] = [LIFECYCLE_KINDS[code] for code in stored["kind"]]
            for name in names:
                assert stored[name] == [
                    getattr(event, name) for event in workload.lifecycle
                ]
        else:
            assert "lifecycle" not in payload
        if workload.churn is not None:
            assert payload["churn"] == dataclasses.asdict(workload.churn)
        else:
            assert "churn" not in payload


def test_json_roundtrip(small_trace):
    """``generate-trace``'s JSON columns, read back, are the workload's
    rows byte for byte: ``repr`` keeps every float64 time exact."""
    payload = json.loads(small_trace.to_json())
    for stream in ("publishes", "requests"):
        rows = getattr(small_trace, stream).rows
        columns = payload[stream]
        restored = np.empty(len(rows), dtype=rows.dtype)
        for name in rows.dtype.names:
            restored[name] = columns[name]
        assert restored.tobytes() == rows.tobytes()


def test_generation_is_deterministic():
    a = generate_workload(news_config(scale=0.02), RandomStreams(5))
    b = generate_workload(news_config(scale=0.02), RandomStreams(5))
    assert a.pages == b.pages
    assert a.requests == b.requests
    assert a.publishes == b.publishes


def test_different_seeds_differ():
    a = generate_workload(news_config(scale=0.02), RandomStreams(5))
    b = generate_workload(news_config(scale=0.02), RandomStreams(6))
    assert a.requests != b.requests


def test_presets():
    assert news_config().zipf_alpha == 1.5
    assert alternative_config().zipf_alpha == 1.0
    assert news_config(0.1).distinct_pages == 600
    with pytest.raises(KeyError):
        make_trace("bogus")


def test_make_trace_labels():
    trace = make_trace("alternative", scale=0.02, seed=1)
    assert trace.label == "alternative"
    assert trace.config.zipf_alpha == 1.0


def test_age_from_first_publication_mode():
    config = dataclasses.replace(
        news_config(scale=0.02), age_from_latest_version=False
    )
    trace = generate_workload(config, RandomStreams(2))
    assert trace.request_count == config.total_requests
