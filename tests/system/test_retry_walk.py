"""The one retry walk (``repro.system.delivery.retry_instants``).

Its three callers' timelines are pinned where they always were —
``test_retry_backoff.py`` (origin fetch), the ``plan`` cases of
``test_delivery.py`` and the handshake cases of ``test_lifecycle.py``.
Here: the walk's own shape, and the origin fetch against a straight
transcription of the loop it replaced, over random retry parameters,
outage windows and retry budgets.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.schedule import FaultSchedule, Window
from repro.faults.spec import ChaosSpec, OverloadSpec
from repro.sim.rng import RandomStreams
from repro.system.config import SimulationConfig
from repro.system.delivery import retry_instants
from repro.system.simulator import Simulation
from repro.workload import generate_workload, news_config


class _Budget:
    """An overload manager that grants ``tokens`` retries and stretches
    every backoff by half."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.asked_at = []

    def allow_retry(self, at):
        self.asked_at.append(at)
        self.tokens -= 1
        return self.tokens >= 0

    def jitter_backoff(self, backoff):
        return backoff * 1.5


def test_retries_are_capped_doubling_steps_apart():
    assert list(retry_instants(100.0, 4, 2.0, 8.0)) == [
        (1, 102.0, 2.0), (2, 106.0, 4.0), (3, 114.0, 8.0), (4, 122.0, 8.0),
    ]
    assert list(retry_instants(100.0, 0, 2.0, 8.0)) == []


def test_ack_timeout_adds_the_instant_the_last_attempt_times_out():
    assert list(retry_instants(0.0, 2, 1.0, 60.0, ack_timeout=True)) == [
        (1, 1.0, 1.0), (2, 3.0, 2.0), (3, 7.0, 4.0),
    ]
    # With no retry at all the first attempt still times out.
    assert list(retry_instants(5.0, 0, 1.0, 60.0, ack_timeout=True)) == [(1, 6.0, 1.0)]


def test_a_refused_retry_ends_the_walk_and_the_timeout_asks_no_budget():
    refused = _Budget(tokens=1)
    assert list(retry_instants(0.0, 3, 1.0, 60.0, refused, ack_timeout=True)) == [
        (1, 1.5, 1.5)
    ]
    assert refused.asked_at == [0.0, 1.5]  # each asked at the instant of the loss
    granted = _Budget(tokens=2)
    steps = list(retry_instants(0.0, 2, 1.0, 60.0, granted, ack_timeout=True))
    assert [attempt for attempt, _at, _backoff in steps] == [1, 2, 3]
    assert len(granted.asked_at) == 2


def test_nothing_is_asked_or_drawn_for_attempts_not_made():
    budget = _Budget(tokens=5)
    walk = retry_instants(0.0, 3, 1.0, 60.0, budget)
    next(walk)  # the caller's first retry succeeds: it stops iterating
    assert budget.asked_at == [0.0]


# -- the origin fetch against the loop it replaced ---------------------------


def reference_origin_wait(simulation, now):
    """``Simulation._origin_wait`` as it was before the shared walk,
    transcribed (observer calls dropped); runs on ``simulation``'s own
    schedule, spec and overload manager."""
    schedule = simulation.fault_schedule
    overload = simulation._overload
    down = schedule is not None and schedule.publisher_down(now)
    if not down and (overload is None or overload.origin_admit(now)):
        return True, 0.0
    spec = simulation.chaos
    waited = 0.0
    at = now
    for attempt in range(spec.retry_limit):
        if overload is not None and not overload.allow_retry(at):
            break
        backoff = min(spec.retry_base * (2.0 ** attempt), spec.retry_cap)
        if overload is not None:
            backoff = overload.jitter_backoff(backoff)
        at += backoff
        waited += backoff
        if (schedule is None or not schedule.publisher_down(at)) and (
            overload is None or overload.origin_admit(at)
        ):
            return True, waited
    return False, waited


@pytest.fixture(scope="module")
def cell():
    """A small trace with its match table and topology, built once."""
    workload = generate_workload(news_config(scale=0.02), RandomStreams(3), label="news")
    built = Simulation(workload, SimulationConfig(strategy="gdstar"))
    return workload, built.match_table, built.topology


def _windows(spans):
    """Disjoint outage windows from ``(gap before, length)`` pairs."""
    windows, clock = [], 0.0
    for gap, length in spans:
        windows.append(Window(start=clock + gap, end=clock + gap + length))
        clock += gap + length
    return windows


outage_windows = st.lists(
    st.tuples(st.floats(0.1, 60.0), st.floats(0.1, 60.0)), max_size=4
).map(_windows)


@settings(max_examples=60, deadline=None)
@given(
    retry_limit=st.integers(0, 6),
    retry_base=st.floats(0.1, 8.0),
    retry_cap=st.floats(0.1, 30.0),
    outages=outage_windows,
    budget=st.one_of(st.none(), st.integers(1, 6)),
    jitter=st.sampled_from([0.0, 0.3]),
    fetch_times=st.lists(st.floats(0.0, 260.0), min_size=1, max_size=8).map(sorted),
)
def test_origin_wait_equals_the_loop_it_replaced(
    cell, retry_limit, retry_base, retry_cap, outages, budget, jitter, fetch_times
):
    workload, match_table, topology = cell
    overload = None
    if budget is not None:
        # An origin gate too, so a retry can be refused admission, and a
        # budget small enough to run dry inside a walk.
        overload = OverloadSpec(
            origin_capacity=0.05,
            origin_burst=1,
            retry_budget=budget,
            retry_budget_rate=0.01,
            retry_jitter=jitter,
        )
    config = SimulationConfig(
        strategy="gdstar",
        chaos=ChaosSpec(retry_limit=retry_limit, retry_base=retry_base, retry_cap=retry_cap),
        overload=overload,
    )

    def twin():
        return Simulation(
            workload,
            config,
            match_table,
            topology,
            fault_schedule=FaultSchedule(publisher_outages=outages),
        )

    built, reference = twin(), twin()
    for now in fetch_times:  # state (budget, bucket, breaker, jitter) carries over
        assert built._origin_wait(now, 0, 1) == reference_origin_wait(reference, now)
    if overload is not None:
        assert built._overload.budget.spent == reference._overload.budget.spent
        assert built._overload.budget.denied == reference._overload.budget.denied
