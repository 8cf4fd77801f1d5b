"""End-to-end tests of the trace-driven simulator."""

import logging

import pytest

from repro.faults.spec import ChaosSpec
from repro.obs.recorder import NullObserver, Observer
from repro.obs.tracer import EventTracer
from repro.pubsub.matching import TraceMatchCounts
from repro.sim.rng import RandomStreams
from repro.system.config import (
    HIT_LATENCY,
    PER_HOP_LATENCY,
    PushingScheme,
    SimulationConfig,
)
from repro.system.cooperation import CooperativeSimulation
from repro.system.simulator import Simulation, run_simulation
from repro.workload import generate_workload, news_config


@pytest.fixture(scope="module")
def workload():
    return generate_workload(news_config(scale=0.03), RandomStreams(2), label="news")


def run(workload, **kwargs):
    defaults = dict(strategy="sg2", capacity_fraction=0.05)
    defaults.update(kwargs)
    return run_simulation(workload, SimulationConfig(**defaults))


def test_every_request_is_served(workload):
    result = run(workload)
    assert result.requests == workload.request_count
    assert 0.0 <= result.hit_ratio <= 1.0


def test_fetches_equal_misses(workload):
    """Every miss fetches from the publisher exactly once."""
    result = run(workload)
    assert result.fetch_pages == result.requests - result.hits


def test_hourly_series_sum_to_totals(workload):
    result = run(workload)
    assert sum(result.hourly_requests) == result.requests
    assert sum(result.hourly_hits) == result.hits
    assert sum(result.hourly_push_pages) == result.push_transfers
    assert sum(result.hourly_fetch_pages) == result.fetch_pages


def test_per_proxy_stats_aggregate(workload):
    result = run(workload)
    assert sum(stats.requests for stats in result.per_proxy) == result.requests
    assert sum(stats.hits for stats in result.per_proxy) == result.hits


def test_gdstar_never_pushes(workload):
    result = run(workload, strategy="gdstar")
    assert result.push_transfers == 0
    assert result.push_bytes == 0


def test_pushing_scheme_changes_traffic_not_hits(workload):
    always = run(workload, pushing=PushingScheme.ALWAYS)
    necessary = run(workload, pushing=PushingScheme.WHEN_NECESSARY)
    assert always.hit_ratio == necessary.hit_ratio
    assert always.push_transfers >= necessary.push_transfers


def test_deterministic_runs(workload):
    a = run(workload)
    b = run(workload)
    assert a.hit_ratio == b.hit_ratio
    assert a.traffic_pages == b.traffic_pages
    assert a.hourly_hits == b.hourly_hits


def test_capacity_fraction_monotone(workload):
    small = run(workload, capacity_fraction=0.01)
    large = run(workload, capacity_fraction=0.20)
    assert large.hit_ratio >= small.hit_ratio


def test_strategy_options_forwarded(workload):
    result = run(workload, strategy="gdstar", strategy_options={"beta": 0.5})
    assert result.requests == workload.request_count


def test_custom_match_table(workload):
    empty = TraceMatchCounts({})
    result = Simulation(
        workload,
        SimulationConfig(strategy="sub", capacity_fraction=0.05),
        match_table=empty,
    ).run()
    # No subscriptions: SUB can never store anything.
    assert result.hits == 0
    assert result.push_transfers == 0


def test_invariant_checking_mode(workload):
    config = SimulationConfig(
        strategy="dc-lap", capacity_fraction=0.05, invariant_check_interval=500
    )
    result = run_simulation(workload, config)
    assert result.requests == workload.request_count


def test_invariant_cadence_is_every_nth_handled_event(workload):
    simulation = Simulation(
        workload,
        SimulationConfig(strategy="sg2", capacity_fraction=0.05, invariant_check_interval=3),
    )
    swept_at = []
    simulation.proxies[0].check_invariants = lambda: swept_at.append(
        simulation._events_processed
    )
    for _ in range(7):
        simulation._maybe_check_invariants()
    assert swept_at == [3, 6]


def test_records_and_notification_arrivals_share_one_cadence(workload):
    """A replayed record and an arriving notification each count once on
    the same counter, so interval k sweeps (records + arrivals) // k times."""
    interval = 7
    simulation = Simulation(
        workload,
        SimulationConfig(
            strategy="sg2",
            capacity_fraction=0.05,
            invariant_check_interval=interval,
            chaos=ChaosSpec(delivery_loss_probability=0.2, delivery_reorder_delay=30.0),
        ),
    )
    sweeps = []
    simulation.proxies[0].check_invariants = lambda: sweeps.append(None)
    simulation.run()
    arrivals = simulation._delivery.delivered
    records = workload.publish_count + workload.request_count
    assert arrivals > 0
    assert len(sweeps) == (records + arrivals) // interval


def test_simulation_exposes_proxies(workload):
    simulation = Simulation(
        workload, SimulationConfig(strategy="sg2", capacity_fraction=0.05)
    )
    assert len(simulation.proxies) == workload.config.server_count
    simulation.run()
    for proxy in simulation.proxies:
        proxy.check_invariants()


def test_config_validation():
    with pytest.raises(ValueError):
        SimulationConfig(capacity_fraction=0.0)
    with pytest.raises(ValueError):
        SimulationConfig(subscription_quality=1.5)
    with pytest.raises(ValueError):
        SimulationConfig(notified_fraction=-0.1)
    with pytest.raises(ValueError):
        SimulationConfig(invariant_check_interval=-1)


def test_subscription_quality_affects_sub(workload):
    perfect = run(workload, strategy="sub", subscription_quality=1.0)
    noisy = run(workload, strategy="sub", subscription_quality=0.25)
    assert perfect.hit_ratio != noisy.hit_ratio


def test_notified_fraction_extension(workload):
    partial = run_simulation(
        workload,
        SimulationConfig(
            strategy="sg2", capacity_fraction=0.05, notified_fraction=0.5
        ),
    )
    assert partial.requests == workload.request_count


def test_response_time_model(workload):
    """Higher hit ratio must mean lower modelled response time, and the
    bounds follow from the latency parameters."""
    fast = run(workload, strategy="sg2")
    slow = run(workload, strategy="gdstar")
    assert fast.hit_ratio > slow.hit_ratio
    assert fast.mean_response_time < slow.mean_response_time
    assert fast.mean_response_time >= HIT_LATENCY
    # every request pays at least HIT_LATENCY; misses add hop latency
    expected_min = HIT_LATENCY + (1 - fast.hit_ratio) * PER_HOP_LATENCY * 1.0
    assert fast.mean_response_time >= expected_min - 1e-9


def test_a_simulation_runs_once(workload):
    """Publisher, caches and counters hold the first run's state, so a
    second ``run()`` refuses up front instead of dying mid-replay."""
    config = SimulationConfig(strategy="sg2", capacity_fraction=0.05)
    for simulation in (
        Simulation(workload, config),
        CooperativeSimulation(workload, config, neighbor_count=2),
    ):
        simulation.run()
        with pytest.raises(RuntimeError, match="already ran; build a new Simulation"):
            simulation.run()


def test_run_logs_which_replay_arm_ran_and_why(workload, caplog, tmp_path):
    def arm_of(simulation):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="repro.system"):
            simulation.run()
        return [
            record.getMessage()
            for record in caplog.records
            if record.getMessage().startswith("replay:")
        ]

    plain = SimulationConfig(strategy="sg2", capacity_fraction=0.05)
    assert arm_of(Simulation(workload, plain)) == ["replay: plain"]
    # An observer is not a layer: observed or not, a plain cell arms no
    # wrapper.
    traced = Observer(tracer=EventTracer(str(tmp_path / "plain.jsonl")))
    for observer in (NullObserver(), traced):
        assert arm_of(Simulation(workload, plain, observer=observer)) == [
            "replay: plain"
        ]
    layered = SimulationConfig(
        strategy="sg2",
        capacity_fraction=0.05,
        chaos=ChaosSpec(proxy_mtbf=4 * 3600.0, proxy_mttr=1800.0),
    )
    observed = Simulation(
        workload,
        layered,
        observer=Observer(tracer=EventTracer(str(tmp_path / "layered.jsonl"))),
        neighbor_count=2,
    )
    assert arm_of(observed) == [
        "replay: wrappers (chaos, peers)"
    ]
