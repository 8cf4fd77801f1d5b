"""Tests for the cooperative-proxy extension."""

import pytest

from repro.sim.rng import RandomStreams
from repro.system.config import SimulationConfig
from repro.system.cooperation import (
    CooperativeSimulation,
    run_cooperative_simulation,
)
from repro.system.simulator import run_simulation
from repro.workload import generate_workload, news_config
from repro.workload.churn import ChurnSpec


@pytest.fixture(scope="module")
def workload():
    return generate_workload(news_config(scale=0.05), RandomStreams(5), label="news")


@pytest.fixture(scope="module")
def config():
    return SimulationConfig(strategy="gdstar", capacity_fraction=0.05)


def test_local_hit_ratio_unchanged(workload, config):
    """Peering changes where misses are served, not whether they hit."""
    solo = run_simulation(workload, config)
    coop = run_cooperative_simulation(workload, config, neighbor_count=3)
    assert coop.hit_ratio == solo.hit_ratio


def test_churn_repairs_leases_with_or_without_peering(workload, config):
    """The access-time lease re-poll sits in front of the miss path, so
    peering must not skip it (the fault-free cooperative handler did)."""
    churned = workload.with_churn(
        ChurnSpec(churn_rate=4.0, lease_duration=3 * 3600.0),
        RandomStreams(5).stream("workload.churn"),
    )
    solo = run_simulation(churned, config)
    coop = run_cooperative_simulation(churned, config, neighbor_count=3)
    assert solo.lease_repolls > 0
    assert coop.lease_repolls == solo.lease_repolls
    assert coop.pushes_suppressed_no_lease == solo.pushes_suppressed_no_lease
    assert coop.hit_ratio == solo.hit_ratio


def test_peer_fetches_offload_the_origin(workload, config):
    solo = run_simulation(workload, config)
    coop = run_cooperative_simulation(workload, config, neighbor_count=3)
    assert coop.peer_fetch_pages > 0
    assert coop.fetch_pages + coop.peer_fetch_pages == solo.fetch_pages
    assert coop.fetch_pages < solo.fetch_pages


def test_more_neighbors_more_offload(workload, config):
    few = run_cooperative_simulation(workload, config, neighbor_count=1)
    many = run_cooperative_simulation(workload, config, neighbor_count=8)
    assert many.peer_fetch_pages >= few.peer_fetch_pages


def test_zero_neighbors_degenerates_to_solo(workload, config):
    solo = run_simulation(workload, config)
    coop = run_cooperative_simulation(workload, config, neighbor_count=0)
    assert coop.peer_fetch_pages == 0
    assert coop.fetch_pages == solo.fetch_pages
    assert coop.total_response_time == pytest.approx(solo.total_response_time)


def test_response_time_improves_with_peering(workload, config):
    """Peers are closer than the publisher, so misses get cheaper."""
    solo = run_simulation(workload, config)
    coop = run_cooperative_simulation(workload, config, neighbor_count=5)
    assert coop.mean_response_time <= solo.mean_response_time


def test_neighbor_lists_exclude_self(workload, config):
    simulation = CooperativeSimulation(workload, config, neighbor_count=3)
    for index, peers in enumerate(simulation._peers.neighbors):
        assert all(peer != index for peer, _hops in peers)
        assert len(peers) <= 3


def test_neighbor_count_validation(workload, config):
    with pytest.raises(ValueError):
        CooperativeSimulation(workload, config, neighbor_count=-1)


def test_fractional_neighbor_count_is_an_error(workload, config):
    """1.5 neighbours used to be truncated to one, silently: the run
    reported peer traffic for a fleet the caller had not asked for."""
    with pytest.raises(ValueError, match="neighbor_count must be an integer"):
        CooperativeSimulation(workload, config, neighbor_count=1.5)
    # An integral float still names a fleet.
    CooperativeSimulation(workload, config, neighbor_count=2.0)


def test_peer_bytes_accounting(workload, config):
    coop = run_cooperative_simulation(workload, config, neighbor_count=3)
    assert (coop.peer_fetch_bytes > 0) == (coop.peer_fetch_pages > 0)
