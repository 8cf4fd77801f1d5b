"""Layer-composition matrix: the replay driver vs the agenda oracle.

Every on/off combination of the five opt-in layers — chaos (crashes
and outages), delivery faults, subscription churn, overload and
cooperation — at smoke scale with the invariant checks on, each
asserting that ``Simulation._replay`` and the heap-scheduling oracle of
``tests/system/_reference.py`` agree on every result field except the
two timing artefacts.  The all-off cell calls the policies directly,
the other 31 the wrappers their layers compose, and nothing but the
run's own layers selects them: this is the test that shows the
selection needs no knob.  Two more rows replay a streaming trace, plain
and layered.
"""

import itertools
import logging

import pytest

from repro.faults.spec import ChaosSpec, OverloadSpec
from repro.sim.rng import RandomStreams
from repro.system.config import SimulationConfig
from repro.system.cooperation import CooperativeSimulation
from repro.system.metrics import check_result
from repro.system.simulator import Simulation
from repro.workload import generate_workload, news_config
from repro.workload.churn import ChurnSpec
from repro.workload.streaming import generate_streaming_workload
from tests.system._reference import AgendaCooperativeSimulation, AgendaSimulation
from tests.system.test_replay_fastpath import stripped

SCALE = 0.03
SEED = 2

CRASHES = dict(
    proxy_mtbf=4 * 3600.0,
    proxy_mttr=1800.0,
    publisher_mtbf=6 * 3600.0,
    publisher_mttr=900.0,
)
DELIVERY = dict(
    delivery_loss_probability=0.2,
    delivery_duplicate_probability=0.1,
    delivery_reorder_delay=30.0,
    delivery_retry_limit=2,
)
CHURN = ChurnSpec(
    churn_rate=4.0,
    lease_duration=3 * 3600.0,
    renew_probability=0.6,
    confirmation_loss_probability=0.2,
)
OVERLOAD = OverloadSpec(
    service_rate=0.005,
    queue_capacity=3,
    origin_capacity=0.002,
    origin_burst=2,
    breaker_threshold=4,
    breaker_cooldown=600.0,
    retry_budget=40,
)

LAYERS = ("chaos", "delivery", "churn", "overload", "cooperation")
COMBINATIONS = [
    frozenset(itertools.compress(LAYERS, bits))
    for bits in itertools.product((False, True), repeat=len(LAYERS))
]


@pytest.fixture(scope="module")
def workload():
    return generate_workload(news_config(scale=SCALE), RandomStreams(SEED), label="news")


@pytest.fixture(scope="module")
def churned(workload):
    return workload.with_churn(CHURN, RandomStreams(SEED).stream("workload.churn"))


def config_for(on):
    chaos = {**(CRASHES if "chaos" in on else {}), **(DELIVERY if "delivery" in on else {})}
    return SimulationConfig(
        strategy="sg2",
        capacity_fraction=0.05,
        seed=SEED,
        invariant_check_interval=200,
        chaos=ChaosSpec(**chaos) if chaos else None,
        overload=OVERLOAD if "overload" in on else None,
    )


def run_pair(trace, on):
    """``(driver result, oracle result)`` with the layers in ``on`` armed."""
    config = config_for(on)
    if "cooperation" in on:
        engines = (CooperativeSimulation, AgendaCooperativeSimulation)
    else:
        engines = (Simulation, AgendaSimulation)
    return [engine(trace, config).run() for engine in engines]


@pytest.mark.parametrize(
    "on", COMBINATIONS, ids=lambda on: "+".join(sorted(on)) or "none"
)
def test_driver_equals_oracle(workload, churned, on, caplog):
    with caplog.at_level(logging.DEBUG, logger="repro"):
        driver, oracle = run_pair(churned if "churn" in on else workload, on)
    assert stripped(driver) == stripped(oracle)
    # The oracle would share an accounting bug; the conservation laws do not.
    assert check_result(driver, workload.request_count) == []
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("replay")]
    # Both feed the one loop the same wrappers; only the driver builds
    # the production stream (the oracle never reaches its merge).
    wrappers = [line for line in lines if line.startswith("replay:")]
    assert wrappers == [wrappers[0]] * 2
    assert wrappers[0].startswith("replay: wrappers (" if on else "replay: plain")
    assert sum(line.startswith("replay stream:") for line in lines) == 1
    # Each armed layer actually bites, so the cell tests what it names.
    if "chaos" in on:
        assert driver.proxy_crashes > 0
    if "delivery" in on:
        assert driver.notifications_sent > 0
    if "churn" in on:
        assert driver.lifecycle_events > 0
    if "overload" in on:
        assert driver.overload_pulls_rejected > 0
    if "cooperation" in on:
        assert driver.peer_fetch_pages > 0


@pytest.mark.parametrize(
    "on",
    [frozenset(), frozenset({"chaos", "delivery", "churn"})],
    ids=["inline", "staged"],
)
def test_streaming_driver_equals_materialised_oracle(workload, churned, on):
    """A streaming trace goes through the same loop, merged lazily, and
    lands on the oracle's result for the materialised twin."""
    streaming = generate_streaming_workload(
        news_config(scale=SCALE), RandomStreams(SEED), label="news"
    )
    try:
        trace = streaming
        if "churn" in on:
            trace = streaming.with_churn(
                CHURN, RandomStreams(SEED).stream("workload.churn")
            )
        config = config_for(on)
        driver = Simulation(trace, config).run()
        oracle = AgendaSimulation(churned if "churn" in on else workload, config).run()
        assert stripped(driver) == stripped(oracle)
        assert check_result(driver, workload.request_count) == []
    finally:
        streaming.close()
