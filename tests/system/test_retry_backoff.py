"""Boundary tests for the origin-retry backoff model.

``Simulation._origin_wait`` resolves "does a backed-off retry land
after the publisher recovers?" analytically against the materialised
outage windows.  These tests pin its edge behaviour at the module's
``RETRY_LIMIT`` / ``RETRY_BASE`` / ``RETRY_CAP``: an outage outlasting
every retry, and one that ends in the middle of a backoff period.  The
walk itself, over other limits, bases and caps, is
``test_retry_walk.py``'s.
"""

import pytest

from repro.faults.schedule import FaultSchedule, Window
from repro.faults.spec import ChaosSpec
from repro.sim.rng import RandomStreams
from repro.system.config import SimulationConfig
from repro.system.simulator import Simulation
from repro.workload import generate_workload, news_config


@pytest.fixture(scope="module")
def workload():
    return generate_workload(news_config(scale=0.02), RandomStreams(3), label="news")


def simulation_with(workload, chaos, outages):
    return Simulation(
        workload,
        SimulationConfig(strategy="gdstar", chaos=chaos),
        fault_schedule=FaultSchedule(publisher_outages=outages),
    )


def test_origin_up_needs_no_wait(workload):
    sim = simulation_with(workload, ChaosSpec(), [Window(start=50.0, end=60.0)])
    assert sim._origin_wait(10.0, 0, 1) == (True, 0.0)


def test_outage_outlasting_every_retry(workload):
    """Backoffs 0.5, 1, 2, 4: the last retry lands at +7.5 s.  An outage
    still running then fails the fetch after the full ladder; one ending
    exactly at +7.5 does not (half-open windows make the publisher
    reachable at its recovery instant)."""
    start = 1000.0
    sim = simulation_with(workload, ChaosSpec(), [Window(start=start, end=start + 8.0)])
    assert sim._origin_wait(start, 0, 1) == (False, pytest.approx(7.5))
    sim = simulation_with(workload, ChaosSpec(), [Window(start=start, end=start + 7.5)])
    assert sim._origin_wait(start, 0, 1) == (True, pytest.approx(7.5))


def test_outage_ending_mid_backoff(workload):
    """Recovery during a backoff period: the retry that fires after the
    outage ends succeeds, with the full elapsed backoff as the wait.

    Backoffs are 0.5, 1, 2, 4 -> retries at +0.5, +1.5,
    +3.5, +7.5.  An outage ending at +3.0 straddles the second backoff
    period; the +3.5 retry lands on a healthy origin.
    """
    start = 2000.0
    sim = simulation_with(
        workload, ChaosSpec(), [Window(start=start, end=start + 3.0)]
    )
    ok, waited = sim._origin_wait(start, 0, 1)
    assert ok is True
    assert waited == pytest.approx(3.5)
