"""The request count held to a per-event Python recount.

The simulator records one outcome code per request and counts requests,
hits, bytes, the hourly series and latency afterwards, in numpy
(``Simulation._count_requests``).  Here ``paper_sim`` decides each
request's outcome and the test counts it again, one event at a time,
with sequential ``+=`` for latency: every per-proxy counter, both hourly
dicts (keys ascending), the result's hourly series and ``response_time``
must agree exactly, from memory and from a spool read two rows a chunk
— for a plain run, an observed one, one sharded across two processes,
and each layer at the limit where it changes nothing
(``test_metamorphic.VANILLA_LIMITS``).
"""

import dataclasses
import os

import pytest

from repro.obs import EventTracer, MetricsRegistry, Observer, TimeSeriesCollector
from repro.pubsub.matching import TraceMatchCounts
from repro.system.config import HIT_LATENCY, PER_HOP_LATENCY, SimulationConfig
from repro.system.sharding import plan_shards
from repro.system.simulator import Simulation
from repro.workload import streaming
from repro.workload.config import WorkloadConfig
from repro.workload.trace import EventTable, PageSpec, PublishRecord, RequestRecord, Workload
from tests.oracle import paper_sim
from tests.oracle.test_metamorphic import VANILLA_LIMITS, costs_of

HOUR = 3600.0
HOURS = 3  # the horizon; hour_count is 4, and hour 4 starts at 4 * HOUR
COSTS = [1.0, 3.0, 2.0]
SIZES = [100, 200, 300, 150]
#: page -> {proxy: matching subscriptions}; page 3 matches nowhere.
MATCHES = {0: {0: 3, 1: 1}, 1: {1: 4, 2: 2}, 2: {0: 1, 2: 5}}
PUBLISHES = [
    (0.0, 0), (0.0, 1), (0.0, 2), (0.0, 3),
    (4000.0, 3), (5000.0, 0), (9000.0, 3), (9000.0, 1), (12000.0, 2),
]
#: (time, proxy, page): interleaved across proxies and hours, ties with
#: publishes included, one row at exactly 4 * HOUR and one past it.
REQUESTS = [
    (10.0, 0, 0), (20.0, 1, 0), (30.0, 2, 3), (40.0, 0, 3), (50.0, 2, 2),
    (3599.0, 1, 1), (3600.0, 0, 0), (3700.0, 2, 3), (4000.0, 0, 3), (4100.0, 1, 3),
    (5000.0, 1, 0), (5100.0, 0, 0), (7300.0, 2, 1), (7400.0, 2, 3), (9000.0, 0, 3),
    (9100.0, 1, 1), (9200.0, 2, 2), (10900.0, 0, 2), (12000.0, 2, 2), (12500.0, 1, 3),
    (13000.0, 0, 0), (14400.0, 2, 3), (14400.0, 1, 1), (20000.0, 0, 3), (20001.0, 2, 2),
]
STRATEGIES = ["gdstar", "sg2", "dm", "dc-ap"]
COUNTED = ("requests", "hits", "stale_hits", "bytes_served_local", "pages_fetched", "bytes_fetched")


def hand_built():
    versions = {}
    publishes = []
    for at, page in PUBLISHES:
        versions[page] = versions.get(page, -1) + 1
        publishes.append(PublishRecord(at, page, versions[page]))
    pages = [
        PageSpec(page, size, page, 0, 1, 0.0, 0.0, versions[page] + 1)
        for page, size in enumerate(SIZES)
    ]
    config = WorkloadConfig(
        horizon=HOURS * HOUR, distinct_pages=len(SIZES), modified_pages=3,
        total_requests=len(REQUESTS), server_count=len(COSTS),
    )
    return Workload(
        config=config, pages=pages, publishes=publishes,
        requests=[RequestRecord(*row) for row in REQUESTS], label="hand",
    )


def spooled(workload):
    """``workload`` with its rows memory-mapped from a spool, two a chunk."""
    spool = streaming._Spool()
    tables = {}
    for name in ("publishes", "requests"):
        table = getattr(workload, name)
        path = os.path.join(spool.directory, f"{name}.bin")
        table.rows.tofile(path)
        rows = streaming._map_rows(path, table.rows.dtype, len(table))
        tables[name] = EventTable(table.record, rows, chunk_rows=2)
    return dataclasses.replace(workload, spool=spool, **tables)


def recount(strategy, capacities):
    """Each proxy's request counters, hourly dicts and response time, and
    the publisher's hourly fetches, counted one event at a time."""
    proxies = [paper_sim.make_proxy(strategy, capacities[i], COSTS[i]) for i in range(len(COSTS))]
    counted = [
        dict.fromkeys(COUNTED, 0)
        | {"response_time": 0.0, "requests_by_hour": {}, "hits_by_hour": {}}
        for _ in proxies
    ]
    fetch_pages, fetch_bytes = {}, {}
    current = {}
    events = [(at, 0, page, None) for at, page in PUBLISHES]
    events += [(at, 1, page, proxy) for at, proxy, page in REQUESTS]
    for at, kind, page, proxy in sorted(events, key=lambda event: event[:2]):
        size = SIZES[page]
        if not kind:
            current[page] = current.get(page, -1) + 1
            for server, s in sorted(MATCHES.get(page, {}).items()):
                if proxies[server].uses_push:
                    proxies[server].publish(page, current[page], size, s)
            continue
        s = MATCHES.get(page, {}).get(proxy, 0)
        hit, stale = proxies[proxy].request(page, current[page], size, s)
        hour = int(at // HOUR)
        books = counted[proxy]
        books["requests"] += 1
        books["requests_by_hour"][hour] = books["requests_by_hour"].get(hour, 0) + 1
        if hit:
            books["hits"] += 1
            books["bytes_served_local"] += size
            books["hits_by_hour"][hour] = books["hits_by_hour"].get(hour, 0) + 1
            books["response_time"] += HIT_LATENCY
        else:
            books["stale_hits"] += stale
            books["pages_fetched"] += 1
            books["bytes_fetched"] += size
            fetch_pages[hour] = fetch_pages.get(hour, 0) + 1
            fetch_bytes[hour] = fetch_bytes.get(hour, 0) + size
            books["response_time"] += HIT_LATENCY + PER_HOP_LATENCY * COSTS[proxy]
    return counted, fetch_pages, fetch_bytes


def clamped(by_hour, hour_count):
    series = [0] * hour_count
    for hour, value in by_hour.items():
        series[min(hour, hour_count - 1)] += value
    return series


def assert_counts_as_the_recount(
    strategy, spill, transform=None, observer=None, processes=1, **layers
):
    """Replay the hand-built trace (through ``transform``, with
    ``observer`` and ``layers`` armed, across ``processes``) and hold its
    count to :func:`recount`."""
    workload = hand_built()
    config = SimulationConfig(strategy, capacity_fraction=0.6, **layers)
    capacities = workload.capacities(config.capacity_fraction)
    counted, fetch_pages, fetch_bytes = recount(strategy, capacities)
    if transform is not None:
        workload = transform(workload)
    if spill:
        workload = spooled(workload)
    simulation = Simulation(
        workload, config, match_table=TraceMatchCounts(MATCHES), topology=costs_of(COSTS),
        observer=observer, processes=processes,
    )
    result = simulation.run()

    hour_count = HOURS + 1
    assert result.hour_count == hour_count
    for stats, books in zip(result.per_proxy, counted):
        assert {name: getattr(stats, name) for name in COUNTED} == {
            name: books[name] for name in COUNTED
        }
        assert list(stats.bucketed_requests.items()) == sorted(books["requests_by_hour"].items())
        assert list(stats.bucketed_hits.items()) == sorted(books["hits_by_hour"].items())
        assert stats.response_time == books["response_time"]  # bit for bit
    assert result.total_response_time == sum(books["response_time"] for books in counted)
    requests_by_hour, hits_by_hour = {}, {}
    for books in counted:
        for hour, value in books["requests_by_hour"].items():
            requests_by_hour[hour] = requests_by_hour.get(hour, 0) + value
        for hour, value in books["hits_by_hour"].items():
            hits_by_hour[hour] = hits_by_hour.get(hour, 0) + value
    assert result.hourly_requests == clamped(requests_by_hour, hour_count)
    assert result.hourly_hits == clamped(hits_by_hour, hour_count)
    assert result.hourly_fetch_pages == clamped(fetch_pages, hour_count)
    assert result.hourly_fetch_bytes == clamped(fetch_bytes, hour_count)
    assert list(simulation.publisher.fetch_pages_by_hour.items()) == sorted(fetch_pages.items())
    assert list(simulation.publisher.fetch_bytes_by_hour.items()) == sorted(fetch_bytes.items())
    assert (result.requests, result.fetch_pages, result.fetch_bytes) == (
        len(REQUESTS), sum(fetch_pages.values()), sum(fetch_bytes.values())
    )
    # The trace exercises every outcome and both edge hours.
    assert sum(books["hits"] for books in counted) > 0
    assert sum(books["stale_hits"] for books in counted) > 0
    assert sum(books["pages_fetched"] - books["stale_hits"] for books in counted) > 0
    assert max(requests_by_hour) == 5 and 4 in requests_by_hour
    assert (result.failed_requests, result.degraded_requests) == (0, 0)


@pytest.mark.parametrize("spill", [False, True], ids=["memory", "spool"])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_plain_count_equals_a_per_event_recount(strategy, spill):
    assert_counts_as_the_recount(strategy, spill)


@pytest.mark.parametrize("spill", [False, True], ids=["memory", "spool"])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_sharded_count_equals_a_per_event_recount(strategy, spill):
    """Two processes, one count: the rows at and past 4 * HOUR, the edge
    hours, fall to different shards."""
    owner = {
        server: index
        for index, shard in enumerate(plan_shards(hand_built(), 2))
        for server in shard
    }
    edge = {owner[proxy] for at, proxy, _ in REQUESTS if at == 4 * HOUR}
    past = {owner[proxy] for at, proxy, _ in REQUESTS if at > 4 * HOUR}
    assert edge == past == {0, 1}
    assert_counts_as_the_recount(strategy, spill, processes=2)


@pytest.mark.parametrize("spill", [False, True], ids=["memory", "spool"])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_observed_count_equals_a_per_event_recount(strategy, spill, tmp_path):
    observer = Observer(
        registry=MetricsRegistry(),
        tracer=EventTracer(str(tmp_path / "trace.jsonl")),
        timeseries=TimeSeriesCollector(HOUR, str(tmp_path / "series.jsonl")),
    )
    try:
        assert_counts_as_the_recount(strategy, spill, observer=observer)
    finally:
        observer.close()


@pytest.mark.parametrize("spill", [False, True], ids=["memory", "spool"])
@pytest.mark.parametrize("limit", sorted(VANILLA_LIMITS))
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_layer_at_its_limit_counts_as_the_recount(strategy, limit, spill):
    transform, layers = VANILLA_LIMITS[limit]
    assert_counts_as_the_recount(strategy, spill, transform, **layers)


def test_count_refuses_outcomes_that_do_not_match_the_rows():
    simulation = Simulation(
        hand_built(), SimulationConfig("sg2"), match_table=TraceMatchCounts(MATCHES),
        topology=costs_of(COSTS),
    )
    with pytest.raises(RuntimeError, match="24 request outcomes for 25 request rows"):
        simulation._count_requests(bytearray(len(REQUESTS) - 1))
