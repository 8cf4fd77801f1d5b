"""The request and publish paths are assembled once, from what is armed.

A layer that is off is *absent* — no object on the simulation, no stage
in either path — rather than guarded by a flag; each layer adds exactly
its own stages; and nothing in the assembly ties the simulation into a
reference cycle (docs/architecture.md, "One request path", trap a).
"""

import gc
import logging
import weakref

import pytest

from repro.system.config import SimulationConfig
from repro.system.cooperation import CooperativeSimulation
from repro.system.simulator import Simulation
from tests.system.test_layer_matrix import (
    LAYERS,
    churned,  # noqa: F401 - fixture
    config_for,
    workload,  # noqa: F401 - fixture
)

S = Simulation
PLAIN = SimulationConfig(strategy="sg2", capacity_fraction=0.05, seed=2)
LAYER_OBJECTS = ("_recovery", "_delivery", "_overload", "_lifecycle", "_peers")


def armed(simulation):
    return {name for name in LAYER_OBJECTS if getattr(simulation, name) is not None}


def test_vanilla_path_is_one_stage_and_no_layer_object(workload):
    simulation = Simulation(workload, PLAIN)
    assert simulation._request_stages == (S._serve,)
    assert simulation._publish_stages == (S._offer_push,)
    assert simulation._dark_publish_stages is None
    assert simulation._off_proxy is S._origin_resolution
    assert armed(simulation) == set()


def test_each_layer_adds_exactly_its_own_stages(workload, churned):
    churn = Simulation(churned, PLAIN)
    assert armed(churn) == {"_lifecycle"}
    assert churn._request_stages == (S._lifecycle_access, S._serve)
    assert churn._publish_stages == (S._lease_gate, S._offer_push)
    assert churn._dark_publish_stages is None

    chaos = Simulation(workload, config_for({"chaos"}))
    assert armed(chaos) == {"_recovery"}
    assert chaos._request_stages == (S._proxy_down_failover, S._serve)
    assert chaos._publish_stages == (S._proxy_down_gate, S._offer_push)
    assert chaos._dark_publish_stages == (S._origin_down_gate,)

    delivery = Simulation(workload, config_for({"delivery"}))
    assert armed(delivery) == {"_recovery", "_delivery"}
    assert delivery._request_stages == (
        S._proxy_down_failover, S._silently_stale, S._serve,
    )
    assert delivery._publish_stages == (S._send_notification,)

    overload = Simulation(workload, config_for({"overload"}))
    assert armed(overload) == {"_overload"}
    assert overload._request_stages == (S._pull_admission, S._serve)
    assert overload._publish_stages == (S._push_admission, S._offer_push)

    peers = Simulation(workload, PLAIN, neighbor_count=3)
    assert armed(peers) == {"_peers"}
    assert peers._request_stages == (S._serve,)
    assert peers._off_proxy == peers._peers.fetch


def test_all_layers_compose_in_order(churned):
    everything = CooperativeSimulation(churned, config_for(set(LAYERS)))
    assert armed(everything) == set(LAYER_OBJECTS)
    assert everything._request_stages == (
        S._lifecycle_access,
        S._proxy_down_failover,
        S._pull_admission,
        S._silently_stale,
        S._serve,
    )
    assert everything._publish_stages == (S._lease_gate, S._send_notification)
    assert everything._dark_publish_stages == (S._lease_gate, S._origin_down_gate)


def test_zero_neighbors_is_the_plain_run(workload, caplog):
    simulation = CooperativeSimulation(workload, PLAIN, neighbor_count=0)
    assert armed(simulation) == set()
    assert simulation._off_proxy is S._origin_resolution
    with caplog.at_level(logging.DEBUG, logger="repro.system"):
        simulation.run()
    assert "replay: inline arm" in [record.getMessage() for record in caplog.records]


@pytest.mark.parametrize("layered", [False, True], ids=["plain", "all-layers"])
def test_a_finished_run_is_freed_by_reference_count(workload, churned, layered):
    """No cycle through the stage tuples or the peers object: with the
    cyclic collector off, dropping the last name frees the simulation
    (a tuple of *bound* stage methods on the instance would not)."""
    gc.collect()
    gc.disable()
    try:
        if layered:
            simulation = Simulation(churned, config_for(set(LAYERS)), neighbor_count=3)
            assert armed(simulation) == set(LAYER_OBJECTS)
        else:
            simulation = Simulation(workload, PLAIN)
        simulation.run()
        freed = weakref.ref(simulation)
        del simulation
        assert freed() is None
    finally:
        gc.enable()
