"""Tests for Publisher and ProxyServer."""

import pytest

from repro.core.gdstar import GDStarPolicy
from repro.sim.rng import RandomStreams
from repro.system.proxy import ProxyServer
from repro.system.publisher import Publisher
from repro.workload import generate_workload, news_config


@pytest.fixture(scope="module")
def workload():
    return generate_workload(news_config(scale=0.02), RandomStreams(1), label="news")


def test_publisher_tracks_versions(workload):
    publisher = Publisher(workload)
    page_id = workload.pages[0].page_id
    assert publisher.current_version(page_id) is None
    publisher.publish(page_id, 0)
    assert publisher.current_version(page_id) == 0
    publisher.publish(page_id, 1)
    assert publisher.current_version(page_id) == 1


def test_publisher_rejects_out_of_order_versions(workload):
    publisher = Publisher(workload)
    page_id = workload.pages[0].page_id
    with pytest.raises(ValueError):
        publisher.publish(page_id, 1)  # version 0 never published
    publisher.publish(page_id, 0)
    with pytest.raises(ValueError):
        publisher.publish(page_id, 0)  # replay


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


def test_proxy_delegates_to_policy():
    proxy = ProxyServer(3, GDStarPolicy(1000, cost=2.0))
    push = proxy.handle_publish(1, 0, 100, 5, now=0.0)
    assert not push.stored  # GD* ignores pushes
    miss = proxy.handle_request(1, 0, 100, 5, now=1.0)
    assert not miss.hit
    hit = proxy.handle_request(1, 0, 100, 5, now=2.0)
    assert hit.hit
    assert proxy.stats.requests == 2
    proxy.check_invariants()
    assert proxy.server_id == 3
