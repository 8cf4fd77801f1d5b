"""Each proxy's publish and request calls are composed once, from what
is armed.

A layer that is off is *absent* — no object on the simulation, no
wrapper around either call — rather than guarded by a flag; each layer
adds exactly its own wrappers, in one order; and nothing in the
composition ties the simulation into a reference cycle
(docs/architecture.md, "One loop", trap a).
"""

import gc
import importlib
import logging
import weakref

import pytest

from repro.sim.engine import Environment
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


#: Each layer's wrapper factory, by the module ``_compose`` imports it from.
FACTORIES = {
    "repro.system.lifecycle": "lease_wrappers",
    "repro.faults.gates": "fault_wrappers",
    "repro.system.overload": "admission_wrappers",
    "repro.system.delivery": "delivery_wrappers",
}


def chain(simulation):
    """The composed ``(publish, request)`` wrapper names of the first
    proxy, outermost first, as the layers' factories return them."""
    names = ([], [])

    def recording(factory):
        def built(sim, env):
            wrap = factory(sim, env)

            def recorded(proxy, *calls):
                wrapped = wrap(proxy, *calls)
                if proxy.server_id == 0:
                    for side, new, old in zip(names, wrapped, calls):
                        if new is not old:
                            side.insert(0, new.__name__)
                return wrapped

            return recorded

        return built

    with pytest.MonkeyPatch.context() as patch:
        for module_name, name in FACTORIES.items():
            module = importlib.import_module(module_name)
            patch.setattr(module, name, recording(getattr(module, name)))
        simulation._compose(Environment())
    return tuple(names[0]), tuple(names[1])


def test_vanilla_path_is_one_stage_and_no_layer_object(workload):
    simulation = Simulation(workload, PLAIN)
    assert chain(simulation) == ((), ())
    assert simulation._off_proxy is S._origin_resolution
    assert armed(simulation) == set()


def test_each_layer_adds_exactly_its_own_stages(workload, churned):
    churn = Simulation(churned, PLAIN)
    assert armed(churn) == {"_lifecycle"}
    assert chain(churn) == (("lease_gate",), ("repoll",))

    chaos = Simulation(workload, config_for({"chaos"}))
    assert armed(chaos) == {"_recovery"}
    assert chain(chaos) == (("fault_gate",), ("failover",))

    delivery = Simulation(workload, config_for({"delivery"}))
    assert armed(delivery) == {"_recovery", "_delivery"}
    assert chain(delivery) == (
        ("fault_gate", "send_notification"),
        ("failover", "silently_stale"),
    )

    overload = Simulation(workload, config_for({"overload"}))
    assert armed(overload) == {"_overload"}
    assert chain(overload) == (("push_admission",), ("pull_admission",))

    peers = Simulation(workload, PLAIN, neighbor_count=3)
    assert armed(peers) == {"_peers"}
    assert chain(peers) == ((), ())
    assert peers._off_proxy == peers._peers.fetch


def test_all_layers_compose_in_order(churned):
    everything = CooperativeSimulation(churned, config_for(set(LAYERS)))
    assert armed(everything) == set(LAYER_OBJECTS)
    # Under the delivery protocol a push is admitted where it arrives.
    assert chain(everything) == (
        ("lease_gate", "fault_gate", "send_notification"),
        ("repoll", "failover", "pull_admission", "silently_stale"),
    )


def test_zero_neighbors_is_the_plain_run(workload, caplog):
    simulation = CooperativeSimulation(workload, PLAIN, neighbor_count=0)
    assert armed(simulation) == set()
    assert simulation._off_proxy is S._origin_resolution
    with caplog.at_level(logging.DEBUG, logger="repro.system"):
        simulation.run()
    assert "replay: plain" in [record.getMessage() for record in caplog.records]


@pytest.mark.parametrize("layered", [False, True], ids=["plain", "all-layers"])
def test_a_finished_run_is_freed_by_reference_count(workload, churned, layered):
    """No cycle through the composed wrappers or the peers object: with
    the cyclic collector off, dropping the last name frees the
    simulation (wrappers kept on the instance would not)."""
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
