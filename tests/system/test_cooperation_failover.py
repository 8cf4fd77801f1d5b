"""Failover-ordering tests for cooperative proxies under faults.

The chain is: nearest live peer holding the current version, then the
next-nearest, ..., then the origin.  Crashed peers cost ``peer_timeout``
and are skipped; the origin is the terminal fallback and only its
exhausted retries make a request fail.
"""

import dataclasses

import pytest

from repro.faults.schedule import FaultSchedule, Window
from repro.faults.spec import ChaosSpec
from repro.sim.rng import RandomStreams
from repro.system.config import SimulationConfig
from repro.system.cooperation import CooperativeSimulation
from repro.workload import generate_workload, news_config


@pytest.fixture(scope="module")
def workload():
    return generate_workload(news_config(scale=0.05), RandomStreams(5), label="news")


def make_sim(workload, schedule=None, **config_kwargs):
    return CooperativeSimulation(
        workload,
        SimulationConfig(strategy="gdstar", **config_kwargs),
        neighbor_count=8,
        fault_schedule=schedule if schedule is not None else FaultSchedule(),
    )


def close_peers(sim, minimum=2):
    """A (server_id, [(peer, hops), ...]) with >= ``minimum`` peers
    strictly closer than the origin (the only peers the chain probes)."""
    for server_id, peers in enumerate(sim._peers.neighbors):
        origin_cost = sim.proxies[server_id].policy.cost
        close = [(p, h) for p, h in peers if max(1.0, h) < origin_cost]
        if len(close) >= minimum:
            return server_id, close
    pytest.skip("topology yielded no server with enough close peers")


def seed_peer_cache(sim, peer_index, page_id, version, size):
    policy = sim.proxies[peer_index].policy
    policy.on_request(page_id, version, size, 5, 0.0)  # miss caches it
    assert policy.contains(page_id) and policy.cached_version(page_id) == version


def test_nearest_live_holder_serves(workload):
    sim = make_sim(workload)
    server_id, close = close_peers(sim)
    requester = sim.proxies[server_id]
    page = workload.pages[0]
    sim.publisher.publish(page.page_id, 0)
    for peer_index, _hops in close[:2]:  # both near peers hold it
        seed_peer_cache(sim, peer_index, page.page_id, 0, page.size)

    before = sim.publisher.total_fetch_pages
    resolution = sim._peers.fetch(
        sim, requester, server_id, page.page_id, 0, page.size, now=10.0
    )
    assert resolution is not None
    extra_latency, degraded = resolution
    nearest_hops = max(1.0, close[0][1])
    assert extra_latency == pytest.approx(
        sim.config.per_hop_latency * nearest_hops
    )
    assert not degraded
    assert sim._peers.fetch_pages == 1
    assert sim.publisher.total_fetch_pages == before  # origin untouched


def test_crashed_nearest_peer_is_skipped_with_timeout(workload):
    sim = make_sim(workload)
    server_id, close = close_peers(sim)
    requester = sim.proxies[server_id]
    page = workload.pages[0]
    sim.publisher.publish(page.page_id, 0)
    (first_peer, _h1), (second_peer, h2) = close[0], close[1]
    seed_peer_cache(sim, first_peer, page.page_id, 0, page.size)
    seed_peer_cache(sim, second_peer, page.page_id, 0, page.size)
    sim.proxies[first_peer].crash(now=5.0)

    resolution = sim._peers.fetch(
        sim, requester, server_id, page.page_id, 0, page.size, now=10.0
    )
    assert resolution is not None
    extra_latency, degraded = resolution
    assert degraded  # the dead probe downgraded the service level
    assert extra_latency == pytest.approx(
        sim.chaos.peer_timeout + sim.config.per_hop_latency * max(1.0, h2)
    )
    assert sim._peers.fetch_pages == 1


def test_origin_is_terminal_when_no_peer_holds_the_page(workload):
    sim = make_sim(workload)
    server_id, _close = close_peers(sim)
    requester = sim.proxies[server_id]
    page = workload.pages[0]
    sim.publisher.publish(page.page_id, 0)

    before = sim.publisher.total_fetch_pages
    resolution = sim._peers.fetch(
        sim, requester, server_id, page.page_id, 0, page.size, now=10.0
    )
    assert resolution is not None
    extra_latency, degraded = resolution
    assert extra_latency == pytest.approx(
        sim.config.per_hop_latency * requester.policy.cost
    )
    assert not degraded
    assert sim._peers.fetch_pages == 0
    assert sim.publisher.total_fetch_pages == before + 1


def test_stale_peer_copies_do_not_serve(workload):
    """A peer holding an old version is not a holder for the chain."""
    sim = make_sim(workload)
    server_id, close = close_peers(sim)
    requester = sim.proxies[server_id]
    page = workload.pages[0]
    sim.publisher.publish(page.page_id, 0)
    seed_peer_cache(sim, close[0][0], page.page_id, 0, page.size)
    sim.publisher.publish(page.page_id, 1)  # peer copy now stale

    before = sim.publisher.total_fetch_pages
    resolution = sim._peers.fetch(
        sim, requester, server_id, page.page_id, 1, page.size, now=10.0
    )
    assert resolution is not None
    assert sim._peers.fetch_pages == 0
    assert sim.publisher.total_fetch_pages == before + 1


def test_request_fails_only_when_origin_retries_exhausted(workload):
    """Dead peers + long origin outage -> the whole chain fails."""
    outage = Window(start=0.0, end=3_600.0)
    sim = make_sim(workload, schedule=FaultSchedule(publisher_outages=[outage]))
    server_id, close = close_peers(sim)
    requester = sim.proxies[server_id]
    page = workload.pages[0]
    sim.publisher.publish(page.page_id, 0)
    for peer_index, _hops in close:
        seed_peer_cache(sim, peer_index, page.page_id, 0, page.size)
        sim.proxies[peer_index].crash(now=5.0)

    resolution = sim._peers.fetch(
        sim, requester, server_id, page.page_id, 0, page.size, now=10.0
    )
    assert resolution is None  # every hop of the chain was exhausted


def test_cooperative_chaos_run_is_deterministic(workload):
    spec = ChaosSpec(
        proxy_mtbf=86_400.0,
        proxy_mttr=3_600.0,
        crash_fraction=0.5,
        publisher_mtbf=172_800.0,
    )
    config = SimulationConfig(strategy="gdstar", chaos=spec)

    def run():
        sim = CooperativeSimulation(workload, config, neighbor_count=3)
        payload = dataclasses.asdict(sim.run())
        payload.pop("wall_seconds")
        return payload

    first, second = run(), run()
    assert first["proxy_crashes"] > 0
    assert first == second
