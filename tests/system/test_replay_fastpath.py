"""Bit-identity guard: the replay driver vs the agenda oracle.

``Simulation._replay`` must produce a :class:`SimulationResult`
identical — every field except ``wall_seconds``/``profile`` — to
:class:`tests.system._reference.AgendaSimulation`, which heap-schedules
every trace record: across every strategy, both pushing schemes (the
driver's inline arm), and under chaos plus delivery faults (its staged
arm, where dynamic DES events interleave with the static records).
``tests/system/test_layer_matrix.py`` extends this to every layer
combination; the ordering rules of ``Environment.run_before`` are
tested in ``tests/sim/test_engine.py``.
"""

import dataclasses

import pytest

from repro.core.registry import strategy_names
from repro.faults.spec import ChaosSpec
from repro.sim.rng import RandomStreams
from repro.system.config import PushingScheme, SimulationConfig
from repro.system.simulator import Simulation
from repro.workload import generate_workload, news_config
from tests.system._reference import AgendaSimulation


@pytest.fixture(scope="module")
def workload():
    return generate_workload(news_config(scale=0.03), RandomStreams(2), label="news")


CHAOS = ChaosSpec(
    proxy_mtbf=4 * 3600.0,
    proxy_mttr=1800.0,
    publisher_mtbf=6 * 3600.0,
    publisher_mttr=900.0,
    delivery_loss_probability=0.2,
    delivery_duplicate_probability=0.1,
    delivery_reorder_delay=30.0,
    delivery_retry_limit=2,
)


def stripped(result):
    payload = dataclasses.asdict(result)
    payload.pop("wall_seconds")
    payload.pop("profile")
    return payload


def run_both(workload, **kwargs):
    """``(oracle result, driver result)`` of one configuration."""
    config = SimulationConfig(**{"capacity_fraction": 0.05, **kwargs})
    legacy = AgendaSimulation(workload, config).run()
    fast = Simulation(workload, config).run()
    return legacy, fast


@pytest.mark.parametrize("strategy", sorted(strategy_names()))
def test_bit_identity_per_strategy(workload, strategy):
    legacy, fast = run_both(workload, strategy=strategy)
    assert stripped(legacy) == stripped(fast)


@pytest.mark.parametrize(
    "pushing", [PushingScheme.ALWAYS, PushingScheme.WHEN_NECESSARY]
)
def test_bit_identity_per_pushing_scheme(workload, pushing):
    legacy, fast = run_both(workload, strategy="sub", pushing=pushing)
    assert stripped(legacy) == stripped(fast)


@pytest.mark.parametrize("strategy", ["sg2", "sub", "dc-lap"])
def test_bit_identity_under_chaos_and_delivery_faults(workload, strategy):
    """Dynamic agenda events (arrivals, fault processes) interleave
    correctly with the merged static stream."""
    legacy, fast = run_both(workload, strategy=strategy, chaos=CHAOS)
    assert legacy.proxy_crashes > 0  # the chaos config actually bites
    assert legacy.notifications_sent > 0
    assert stripped(legacy) == stripped(fast)


def test_bit_identity_with_invariant_checks(workload):
    legacy, fast = run_both(
        workload, strategy="sg2", invariant_check_interval=500
    )
    assert stripped(legacy) == stripped(fast)
