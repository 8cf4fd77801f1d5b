"""Failure-injection tests: malformed inputs must fail loudly, and
degenerate-but-legal configurations must still behave."""

import dataclasses

import pytest

from repro.pubsub.matching import TraceMatchCounts
from repro.sim.rng import RandomStreams
from repro.system.config import SimulationConfig
from repro.system.publisher import Publisher
from repro.system.simulator import Simulation, run_simulation
from repro.workload import generate_workload, news_config
from repro.workload.trace import PublishRecord, RequestRecord, Workload


@pytest.fixture(scope="module")
def workload():
    return generate_workload(news_config(scale=0.02), RandomStreams(4), label="news")


def test_request_before_publication_raises(workload):
    # Force the single request before the page's first publication.
    broken = Workload(
        config=workload.config,
        pages=workload.pages,
        publishes=[event for event in workload.publishes if event.time > 0.0],
        requests=[
            RequestRecord(time=0.0, server_id=0, page_id=workload.pages[0].page_id)
        ],
        label="broken",
    )
    simulation = Simulation(
        broken, SimulationConfig(strategy="gdstar", capacity_fraction=0.05)
    )
    with pytest.raises(RuntimeError, match="before its first publication"):
        simulation.run()


def test_out_of_order_version_replay_raises(workload):
    publisher = Publisher(workload)
    page_id = workload.pages[0].page_id
    publisher.publish(page_id, 0)
    with pytest.raises(ValueError, match="out-of-order"):
        publisher.publish(page_id, 2)


def test_unknown_page_size_lookup_raises(workload):
    publisher = Publisher(workload)
    with pytest.raises(KeyError):
        publisher.page_size(10**9)


def test_one_byte_caches_still_serve_everything(workload):
    """Cache so small nothing fits: zero hits, but every request served."""
    tiny = dataclasses.replace(
        SimulationConfig(strategy="sg2"), capacity_fraction=0.05
    )
    simulation = Simulation(workload, tiny)
    for proxy in simulation.proxies:
        proxy.policy.capacity_bytes = 1  # sabotage after construction
    # Rebuild policies properly instead: run with a fresh simulation
    # whose capacities are forced to 1 byte via a monkeypatched table.
    result = run_simulation(
        _with_unit_capacities(workload),
        SimulationConfig(strategy="sg2", capacity_fraction=0.05),
    )
    assert result.requests == workload.request_count
    assert result.hits == 0
    assert result.fetch_pages == result.requests


def _with_unit_capacities(workload):
    class UnitCapacityWorkload(Workload):
        def capacities(self, fraction):
            return {
                server: 1 for server in range(self.config.server_count)
            }

    return UnitCapacityWorkload(
        config=workload.config,
        pages=workload.pages,
        publishes=workload.publishes,
        requests=workload.requests,
        label=workload.label,
    )


def test_match_table_with_unknown_pages_is_ignored(workload):
    bogus = TraceMatchCounts({10**9: {0: 5}})
    result = run_simulation(
        workload,
        SimulationConfig(strategy="sub", capacity_fraction=0.05),
        match_table=bogus,
    )
    assert result.push_transfers == 0


def test_empty_request_stream(workload):
    quiet = Workload(
        config=workload.config,
        pages=workload.pages,
        publishes=list(workload.publishes),
        requests=[],
        label="quiet",
    )
    result = run_simulation(
        quiet, SimulationConfig(strategy="sg2", capacity_fraction=0.05)
    )
    assert result.requests == 0
    assert result.hit_ratio == 0.0


def test_empty_publish_stream_with_no_requests():
    config = news_config(scale=0.02)
    empty = Workload(config=config, pages=[], publishes=[], requests=[])
    result = run_simulation(
        empty, SimulationConfig(strategy="gdstar", capacity_fraction=0.05)
    )
    assert result.requests == 0
