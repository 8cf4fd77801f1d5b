"""Tests for Publisher and ProxyServer."""

import pytest

from repro.core.gdstar import GDStarPolicy
from repro.sim.rng import RandomStreams
from repro.system.config import SimulationConfig
from repro.system.proxy import ProxyServer
from repro.system.publisher import Publisher
from repro.system.simulator import Simulation
from repro.workload import generate_workload, news_config
from repro.workload.trace import PublishRecord, Workload


@pytest.fixture(scope="module")
def workload():
    return generate_workload(news_config(scale=0.02), RandomStreams(1), label="news")


def test_publisher_tracks_versions(workload):
    """The replay loop records each publication in the publisher: a copy
    at version v went stale when version v + 1 was published."""
    page_id = workload.pages[0].page_id
    published = Workload(
        config=workload.config,
        pages=workload.pages,
        publishes=[
            PublishRecord(time=at, page_id=page_id, version=version)
            for version, at in enumerate((10.0, 100.0, 250.0))
        ],
        requests=[],
        label="published",
    )
    simulation = Simulation(published, SimulationConfig(strategy="sg2"))
    simulation.run()
    publisher = simulation.publisher
    assert publisher.staleness_age(page_id, 0, 300.0) == 200.0
    assert publisher.staleness_age(page_id, 1, 300.0) == 50.0
    assert publisher.staleness_age(page_id, 2, 300.0) == 0.0  # current


def test_publisher_page_size(workload):
    """Every transfer is charged the page's own size."""
    publisher = Publisher(workload)
    page = workload.pages[3]
    publisher.record_fetch(page.page_id, at=10.0)
    publisher.record_push_transfer(page.page_id, at=20.0)
    assert publisher.fetch_bytes_by_hour == publisher.push_bytes_by_hour == {0: page.size}


def test_publisher_traffic_bucketing(workload):
    publisher = Publisher(workload)
    page = workload.pages[0]
    publisher.record_push_transfer(page.page_id, at=10.0)
    publisher.record_push_transfer(page.page_id, at=3_700.0)
    publisher.record_fetch(page.page_id, at=3_800.0)
    assert publisher.push_pages_by_hour == {0: 1, 1: 1}
    assert publisher.fetch_pages_by_hour == {1: 1}
    assert publisher.total_push_pages == 2
    assert publisher.total_fetch_pages == 1
    assert publisher.total_push_bytes == 2 * page.size
    assert publisher.total_fetch_bytes == page.size


def test_proxy_delegates_to_policy(workload):
    """The replay loop calls the policy itself; the proxy reports the
    policy's counters and invariants.  The policy counts none of its
    requests: the simulator counts them, into those same counters."""
    policy = GDStarPolicy(1000, cost=2.0)
    proxy = ProxyServer(3, policy)
    policy.on_request(1, 0, 100, 5, now=1.0)
    assert proxy.stats is policy.stats and proxy.stats.requests == 0
    proxy.check_invariants()
    assert proxy.server_id == 3
    simulation = Simulation(workload, SimulationConfig(strategy="gdstar"))
    result = simulation.run()
    assert all(proxy.stats is proxy.policy.stats for proxy in simulation.proxies)
    counted = sum(proxy.stats.requests for proxy in simulation.proxies)
    assert counted == result.requests == workload.request_count
