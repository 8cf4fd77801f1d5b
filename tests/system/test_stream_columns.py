"""The memoised replay stream: packed numbers, columns of shared objects.

``Simulation._stream`` keeps an in-memory, churn-free trace merged as
columns on the workload — five the trace alone decides (time an
``array('d')``, kind a ``bytes``, three lists), one ``m`` list per match
table — and hands the arms ``zip`` over them.  Held here: the tie rule
on a hand-built trace and on generated ones, what is shared between
cells and what a copy or a pickle inherits (nothing), what the memo
costs in bytes, what ``-vv`` says about it, and that an id the workload
does not have or a time that is no instant ends in one ``ValueError``
before any lookup array is indexed.
"""

import copy
import dataclasses
import heapq
import logging
import pickle
import tracemalloc
from operator import itemgetter

import pytest

from repro.pubsub.matching import TraceMatchCounts
from repro.system.config import SimulationConfig
from repro.system.simulator import Simulation
from repro.workload.churn import ChurnSpec, LifecycleRecord
from repro.workload.config import WorkloadConfig
from repro.sim.rng import RandomStreams
from repro.workload.presets import make_trace
from repro.workload.trace import (
    PageSpec,
    PublishRecord,
    RequestRecord,
    Workload,
    generate_workload,
)
from tests.system.test_result_digest import digest

CONFIG = SimulationConfig(strategy="sg2", capacity_fraction=0.5)
MATCHES = {0: {0: 2, 1: 1}, 1: {1: 300}}


def page(page_id, size):
    return PageSpec(
        page_id=page_id,
        size=size,
        rank=page_id,
        popularity_class=0,
        request_count=2,
        first_publish=0.0,
        modification_interval=0.0,
        version_count=1,
    )


def tiny(publishes, requests, lifecycle=()):
    """Two pages, two proxies, and whatever events the test hands in."""
    config = WorkloadConfig(
        horizon=1000.0, distinct_pages=2, modified_pages=0, total_requests=4, server_count=2
    )
    churn = ChurnSpec() if lifecycle else None
    return Workload(
        config=config,
        pages=[page(0, 1000), page(1, 70_000)],
        publishes=publishes,
        requests=requests,
        label="tiny",
        lifecycle=list(lifecycle),
        churn=churn,
    )


PUBLISHES = [
    PublishRecord(time=0.0, page_id=0, version=0),
    PublishRecord(time=10.0, page_id=1, version=0),
    PublishRecord(time=20.0, page_id=0, version=1),
]
REQUESTS = [
    RequestRecord(time=10.0, server_id=1, page_id=0),  # ties with a publish
    RequestRecord(time=20.0, server_id=1, page_id=1),  # ties with the next,
    RequestRecord(time=20.0, server_id=0, page_id=0),  # out of key order
    RequestRecord(time=30.0, server_id=0, page_id=1),  # no match count
]


def lazy_merge(simulation, enriched):
    return list(
        heapq.merge(
            simulation._publish_tuples(enriched),
            simulation._request_tuples(enriched),
            key=itemgetter(0),
        )
    )


@pytest.mark.parametrize(
    "publishes, requests",
    [(PUBLISHES, REQUESTS), ([], REQUESTS), (PUBLISHES, []), ([], [])],
    ids=["ties", "no-publishes", "no-requests", "empty"],
)
def test_tie_rule_equals_the_lazy_merge(publishes, requests):
    simulation = Simulation(
        tiny(publishes, requests), CONFIG, match_table=TraceMatchCounts(MATCHES)
    )
    for enriched in (True, False):
        got = list(simulation._stream(enriched))
        assert got == lazy_merge(simulation, enriched)
        assert len(got) == len(publishes) + len(requests)
    if publishes and requests:
        assert list(simulation._stream(True)) == [
            (0.0, 0, 0, 0, 1000, ((0, 2), (1, 1))),
            (10.0, 0, 1, 0, 70_000, ((1, 300),)),
            (10.0, 1, 1, 0, 1000, 1),
            (20.0, 0, 0, 1, 1000, ((0, 2), (1, 1))),
            (20.0, 1, 1, 1, 70_000, 300),
            (20.0, 1, 0, 0, 1000, 2),
            (30.0, 1, 0, 1, 70_000, 0),
        ]


@pytest.mark.parametrize("preset", ["news", "alternative"])
def test_a_generated_trace_merges_as_the_lazy_merge_does(preset):
    simulation = Simulation(make_trace(preset, 0.3, 7), CONFIG)
    for enriched in (True, False):
        assert list(simulation._stream(enriched)) == lazy_merge(simulation, enriched)


def test_a_trace_without_requests_is_empty_tables_and_an_empty_stream(monkeypatch):
    """No room (no request asked for) and nothing filled (every page's
    draw came back empty) both leave zero request rows."""
    config = WorkloadConfig(
        horizon=1000.0, distinct_pages=5, modified_pages=0, total_requests=40, server_count=2
    )
    none_asked = generate_workload(dataclasses.replace(config, total_requests=0), RandomStreams(3))
    monkeypatch.setattr(
        "repro.workload.trace.request_times_for_versions", lambda *args, **kwargs: []
    )
    none_drawn = generate_workload(config, RandomStreams(3))
    assert sum(page.request_count for page in none_drawn.pages) == 40
    for workload in (none_asked, none_drawn):
        assert len(workload.requests) == 0 and workload.requests == []
        assert len(workload.publishes) == 5
        assert len(list(Simulation(workload, CONFIG)._stream(True))) == 5
    assert list(Simulation(tiny([], []), CONFIG)._stream(True)) == []


def test_every_value_is_a_plain_python_object():
    """A numpy scalar reaching a policy would change result JSON bytes."""
    simulation = Simulation(
        tiny(PUBLISHES, REQUESTS), CONFIG, match_table=TraceMatchCounts(MATCHES)
    )
    for record in simulation._stream(True):
        assert [type(value) for value in record[:5]] == [float, int, int, int, int]
        assert type(record[5]) is (int if record[1] else tuple)


def test_the_tiny_trace_runs():
    result = Simulation(
        tiny(PUBLISHES, REQUESTS), CONFIG, match_table=TraceMatchCounts(MATCHES)
    ).run()
    assert result.requests == len(REQUESTS)


@pytest.fixture(scope="module")
def news():
    return make_trace("news", scale=0.05, seed=13)


def stream_messages(caplog):
    return [
        record.getMessage()
        for record in caplog.records
        if record.getMessage().startswith("replay stream:")
    ]


def test_cells_share_the_base_columns_and_add_one_match_column(news, caplog):
    workload = dataclasses.replace(news)  # a copy: the memo starts empty
    assert workload._stream_columns is None and workload._match_columns == {}
    first = Simulation(workload, dataclasses.replace(CONFIG, subscription_quality=1.0))
    second = Simulation(workload, dataclasses.replace(CONFIG, subscription_quality=0.5))
    with caplog.at_level(logging.DEBUG, logger="repro.system"):
        list(first._stream(True))
        base = workload._stream_columns
        list(second._stream(True))
        list(second._stream(True))
        list(second._stream(False))
    rows = workload.publish_count + workload.request_count
    assert stream_messages(caplog) == [
        f"replay stream: built base columns ({rows} rows) + match column",
        "replay stream: reused base columns, built match column",
        "replay stream: memo hit",
        "replay stream: memo hit",
    ]
    assert len(base) == 5 and all(type(column) is list for column in base[2:])
    assert all(type(column) is not list and len(column) == rows for column in base[:2])
    assert len(workload._stream_columns) == 5
    assert all(now is then for now, then in zip(workload._stream_columns, base))
    assert set(workload._match_columns) == {first.match_table, second.match_table}
    one, other = workload._match_columns.values()
    assert one is not other and one != other and len(one) == len(other) == rows
    # Ids and sizes are shared objects — one int per id, one per page —
    # not one per row.
    _times, kinds, a_column, b_column, sizes = base
    int_of, size_of = {}, {}
    for kind, a, b, size in zip(kinds, a_column, b_column, sizes):
        assert int_of.setdefault(a, a) is a
        assert size_of.setdefault(b if kind else a, size) is size

    for copy in (dataclasses.replace(workload, label="copy"), workload.for_servers([0, 1])):
        assert copy._stream_columns is None and copy._match_columns == {}
    shard = workload.for_servers([0, 1])
    assert len(list(Simulation(shard, CONFIG)._stream(True))) == (
        shard.publish_count + shard.request_count
    )
    assert shard.request_count < workload.request_count


def test_a_bare_first_call_builds_the_base_columns_only(news, caplog):
    workload = dataclasses.replace(news)
    simulation = Simulation(workload, CONFIG)
    with caplog.at_level(logging.DEBUG, logger="repro.system"):
        list(simulation._stream(False))
        list(simulation._stream(True))
    rows = workload.publish_count + workload.request_count
    assert stream_messages(caplog) == [
        f"replay stream: built base columns ({rows} rows)",
        "replay stream: reused base columns, built match column",
    ]


def test_a_churned_trace_says_it_merges_lazily(caplog):
    lifecycle = [LifecycleRecord(time=0.0, server_id=0, page_id=0, kind="subscribe", lease=50.0)]
    workload = tiny(PUBLISHES, REQUESTS, lifecycle)
    with caplog.at_level(logging.DEBUG, logger="repro.system"):
        Simulation(workload, CONFIG).run()
    assert stream_messages(caplog) == ["replay stream: lazy merge (churn)"]
    assert workload._stream_columns is None and workload._match_columns == {}


def retained_by(call):
    """Bytes still allocated after ``call()`` that were not before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_memo_costs_a_double_a_byte_and_four_pointers_an_event(news):
    """Measured: 42 B an event for the first table and 8 B for a second
    (a boxed float and an int pointer per row made the first 72)."""
    workload = dataclasses.replace(news)
    first = Simulation(workload, dataclasses.replace(CONFIG, subscription_quality=1.0))
    second = Simulation(workload, dataclasses.replace(CONFIG, subscription_quality=0.5))
    rows = workload.publish_count + workload.request_count
    assert retained_by(lambda: first._stream(True)) / rows <= 48
    assert retained_by(lambda: second._stream(True)) / rows <= 16


def test_a_memoised_workload_pickles_without_its_memo(news):
    workload = dataclasses.replace(news)
    result = Simulation(workload, CONFIG).run()
    workload.request_pairs()
    assert workload._stream_columns is not None and workload._match_columns
    shard = workload.for_servers([0, 1])
    for clone in (pickle.loads(pickle.dumps(workload)), copy.deepcopy(workload)):
        assert clone == workload and clone is not workload
        assert clone._stream_columns is None and clone._match_columns == {}
        assert clone._request_pairs == [] and clone._pair_counts is None
        assert digest(Simulation(clone, CONFIG).run()) == digest(result)
    # What a shard knows of its fleet is not a memo of its own rows.
    assert pickle.loads(pickle.dumps(shard)).capacities(0.05) == shard.capacities(0.05)
    assert len(pickle.dumps(workload)) < 1.1 * len(pickle.dumps(dataclasses.replace(news)))


BAD_TIMES = [float("nan"), float("inf"), float("-inf"), -1.0]


@pytest.mark.parametrize(
    "kind, churned",
    [("publish", False), ("publish", True), ("request", False), ("request", True),
     ("lifecycle", True)],  # a memoised stream has no lifecycle rows
)
@pytest.mark.parametrize("bad", BAD_TIMES, ids=str)
def test_a_time_that_is_no_instant_is_one_value_error(bad, kind, churned):
    lifecycle = [LifecycleRecord(time=0.0, server_id=0, page_id=0, kind="subscribe", lease=50.0)]
    events = {"publish": PUBLISHES, "request": REQUESTS, "lifecycle": lifecycle}
    events[kind] = [*events[kind], dataclasses.replace(events[kind][0], time=bad)]
    workload = tiny(
        events["publish"], events["request"], events["lifecycle"] if churned else ()
    )
    message = rf"{kind} at t={bad} names no instant: times must be finite and >= 0"
    with pytest.raises(ValueError, match=message):
        Simulation(workload, CONFIG, match_table=TraceMatchCounts(MATCHES)).run()
    assert workload._stream_columns is None and workload._match_columns == {}


def test_a_stored_trace_holding_nan_is_refused_before_replay():
    """``json.loads`` accepts the bare ``NaN`` that ``json.dumps`` writes."""
    stored = tiny(PUBLISHES, REQUESTS).to_json().replace("30.0", "NaN")
    workload = Workload.from_json(stored)
    with pytest.raises(ValueError, match="request at t=nan names no instant"):
        Simulation(workload, CONFIG, match_table=TraceMatchCounts(MATCHES))


BAD_IDS = {
    "request-unknown-page": (
        PUBLISHES,
        [*REQUESTS, RequestRecord(time=40.0, server_id=0, page_id=7)],
        r"request at t=40\.0 names page 7, not one of the workload's 2",
    ),
    "publish-unknown-page": (
        [*PUBLISHES, PublishRecord(time=40.0, page_id=7, version=0)],
        REQUESTS,
        r"publish at t=40\.0 names page 7, not one of the workload's 2",
    ),
    "server-beyond-count": (
        PUBLISHES,
        [*REQUESTS, RequestRecord(time=40.0, server_id=5, page_id=0)],
        r"request at t=40\.0 names proxy 5, not one of the workload's 2",
    ),
    "negative-server": (
        PUBLISHES,
        [RequestRecord(time=5.0, server_id=-1, page_id=0), *REQUESTS],
        r"request at t=5\.0 names proxy -1, not one of the workload's 2",
    ),
    "negative-page": (
        PUBLISHES,
        [RequestRecord(time=5.0, server_id=0, page_id=-1), *REQUESTS],
        r"request at t=5\.0 names page -1, not one of the workload's 2",
    ),
}


@pytest.mark.parametrize("churned", [False, True], ids=["memoised", "lazy"])
@pytest.mark.parametrize("case", sorted(BAD_IDS))
def test_an_id_the_workload_lacks_is_one_value_error(case, churned):
    publishes, requests, message = BAD_IDS[case]
    lifecycle = [LifecycleRecord(time=0.0, server_id=0, page_id=0, kind="subscribe", lease=50.0)]
    workload = tiny(publishes, requests, lifecycle if churned else ())
    with pytest.raises(ValueError, match=message):
        Simulation(workload, CONFIG, match_table=TraceMatchCounts(MATCHES)).run()
    assert workload._stream_columns is None and workload._match_columns == {}


@pytest.mark.parametrize(
    "field, bad, noun",
    [("server_id", -1, "proxy"), ("server_id", 999, "proxy"),
     ("page_id", -1, "page"), ("page_id", 10**6, "page")],
)
def test_a_lifecycle_id_the_workload_lacks_is_one_value_error(field, bad, noun):
    """Replay hands a lifecycle row's ids to the manager as list indices:
    -1 would charge the last proxy's queue, 999 is a bare IndexError."""
    ids = {"server_id": 0, "page_id": 0, field: bad}
    lifecycle = [
        LifecycleRecord(time=0.0, server_id=0, page_id=0, kind="subscribe", lease=50.0),
        LifecycleRecord(time=3.0, kind="renew", lease=50.0, **ids),
    ]
    workload = tiny(PUBLISHES, REQUESTS, lifecycle)
    message = rf"lifecycle at t=3\.0 names {noun} {bad}, not one of the workload's 2"
    with pytest.raises(ValueError, match=message):
        Simulation(workload, CONFIG, match_table=TraceMatchCounts(MATCHES))


def test_a_negative_id_in_the_page_table_is_refused():
    workload = tiny(PUBLISHES, REQUESTS)
    workload.pages.append(page(-1, 10))
    with pytest.raises(ValueError, match="negative page id: -1"):
        Simulation(workload, CONFIG, match_table=TraceMatchCounts(MATCHES)).run()
