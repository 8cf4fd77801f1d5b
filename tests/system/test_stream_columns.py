"""The memoised replay stream: columns of shared objects.

``Simulation._stream`` keeps an in-memory, churn-free trace merged as
plain lists on the workload — five the trace alone decides, one ``m``
column per match table — and hands the arms ``zip`` over them.  Held
here: the tie rule on a hand-built trace, what is shared between cells
and what a copy inherits (nothing), what the memo costs in bytes, what
``-vv`` says about it, and that an id the workload does not have ends in
one ``ValueError`` before any lookup array is indexed.
"""

import dataclasses
import heapq
import logging
import tracemalloc
from operator import itemgetter

import pytest

from repro.pubsub.matching import TraceMatchCounts
from repro.system.config import SimulationConfig
from repro.system.simulator import Simulation
from repro.workload.churn import ChurnSpec, LifecycleRecord
from repro.workload.config import WorkloadConfig
from repro.workload.presets import make_trace
from repro.workload.trace import PageSpec, PublishRecord, RequestRecord, Workload

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
    assert len(base) == 5 and all(type(column) is list for column in base)
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


def test_memo_costs_a_float_and_six_pointers_an_event(news):
    """Measured: 72 B an event for the first table and 8 B for a second
    (a tuple per event was 125 and 123)."""
    workload = dataclasses.replace(news)
    first = Simulation(workload, dataclasses.replace(CONFIG, subscription_quality=1.0))
    second = Simulation(workload, dataclasses.replace(CONFIG, subscription_quality=0.5))
    rows = workload.publish_count + workload.request_count
    assert retained_by(lambda: first._stream(True)) / rows <= 100
    assert retained_by(lambda: second._stream(True)) / rows <= 16


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
