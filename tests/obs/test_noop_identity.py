"""Observability never changes the simulation, nor the code that runs it.

Runs with no observer, with the explicit :class:`NullObserver`, and
with every sink on (tracing, metrics, time series and the live monitor)
must all produce the same :class:`SimulationResult` — excluding the two
fields documented as timing artefacts (``wall_seconds``, ``profile``) —
*and compose the same wrappers*, on both a healthy run and a chaos run.
The full-observer chaos run doubles as the taxonomy-coverage check:
every event type the simulator can emit under faults must actually
appear in the trace.
"""

import cProfile
import dataclasses
import io
import logging
import pstats

import pytest

from repro.faults.spec import ChaosSpec
from repro.obs import (
    EventTracer, MetricsRegistry, NullObserver, Observer, RunMonitor, TimeSeriesCollector,
)
from repro.system.config import SimulationConfig
from repro.system.cooperation import run_cooperative_simulation
from repro.system.simulator import Simulation
from repro.workload.presets import make_trace

SCALE = 0.05
SEED = 13

#: Harsh enough that every fault-path event type fires at this scale.
CHAOS = ChaosSpec(
    proxy_mtbf=43_200.0,
    proxy_mttr=3_600.0,
    crash_fraction=1.0,
    publisher_mtbf=86_400.0,
    publisher_mttr=3_600.0,
    degraded_mtbf=86_400.0,
    degraded_mttr=3_600.0,
    degraded_latency_multiplier=4.0,
    degraded_loss_probability=0.05,
)


@pytest.fixture(scope="module")
def workload():
    return make_trace("news", scale=SCALE, seed=SEED)


def _comparable(result):
    payload = dataclasses.asdict(result)
    payload.pop("wall_seconds")
    payload.pop("profile")
    return payload


def _full_observer():
    return Observer(
        registry=MetricsRegistry(),
        tracer=EventTracer(max_events=1_000_000),
        timeseries=TimeSeriesCollector(),
        monitor=RunMonitor(interval=1e9, sink=io.StringIO()),
    )


def _run(workload, observer, chaos=None, strategy="sg2"):
    config = SimulationConfig(
        strategy=strategy, capacity_fraction=0.05, seed=SEED, chaos=chaos
    )
    return Simulation(workload, config, observer=observer).run()


def _replayed(caplog, workload, observer, chaos=None):
    """``(comparable result, replay: log lines)`` of one run."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="repro.system"):
        result = _run(workload, observer, chaos)
    arms = [r.getMessage() for r in caplog.records if r.getMessage().startswith("replay:")]
    return _comparable(result), arms


def test_noop_observer_is_bit_identical(workload, caplog):
    baseline = _replayed(caplog, workload, observer=None)
    assert _replayed(caplog, workload, observer=NullObserver()) == baseline


def test_full_observer_is_bit_identical_healthy(workload, caplog):
    baseline = _replayed(caplog, workload, observer=None)
    observer = _full_observer()
    assert _replayed(caplog, workload, observer=observer) == baseline
    assert baseline[1] == ["replay: plain"]
    assert observer.monitor.events == workload.publish_count + workload.request_count


@pytest.mark.parametrize("strategy", ["sg2", "dc-lap"])
def test_fused_heap_paths_stay_visible_and_identical(workload, strategy):
    """The conditional-eviction loop runs inside the heap
    (``pop_cheaper``), bypassing ``push``/``pop``: an observed run calls
    it as an unobserved one does, where cProfile sees it, and profiling
    must not change what it decides."""
    baseline = _run(workload, observer=None, strategy=strategy)
    profiler = cProfile.Profile()
    observed = profiler.runcall(_run, workload, _full_observer(), strategy=strategy)
    assert _comparable(baseline) == _comparable(observed)
    calls = {
        name: count
        for (_file, _line, name), (_, count, *_rest) in pstats.Stats(profiler).stats.items()
    }
    assert calls["pop_cheaper"] > 0


def test_full_observer_is_bit_identical_under_chaos(workload, caplog):
    baseline = _replayed(caplog, workload, observer=None, chaos=CHAOS)
    observer = _full_observer()
    assert _replayed(caplog, workload, observer=observer, chaos=CHAOS) == baseline
    assert baseline[1] == ["replay: wrappers (chaos)"]

    # Taxonomy coverage: everything a non-cooperative chaos run can
    # emit must actually show up (peer_fetch needs cooperation; see
    # test_cooperative_run_emits_peer_events).
    seen = {event["type"] for event in observer.tracer.events()}
    expected = {
        "run_start", "run_end", "publish", "match", "push_offer",
        "push_accept", "push_reject", "push_suppressed", "request",
        "hit", "stale", "miss", "fetch", "failover", "retry", "failed",
        "evict", "crash", "restart", "outage", "outage_end",
    }
    assert expected <= seen, f"missing event types: {sorted(expected - seen)}"


def test_metrics_agree_with_result(workload):
    observer = _full_observer()
    result = _run(workload, observer=observer)
    registry = observer.registry
    assert registry.get("repro_requests_total").value == result.requests
    assert registry.get("repro_hits_total").value == result.hits
    assert registry.get("repro_stale_hits_total").value == result.stale_hits
    assert registry.get("repro_fetches_total").value == result.fetch_pages
    assert (
        registry.get("repro_misses_total").value
        == result.requests - result.hits - result.stale_hits
    )
    assert registry.get("repro_request_latency_seconds").count == result.requests
    assert registry.get("repro_request_latency_seconds").sum == pytest.approx(
        result.total_response_time
    )
    assert registry.get("repro_sim_time_seconds").value > 0


def test_eviction_metrics_match_stats(workload):
    observer = _full_observer()
    result = _run(workload, observer=observer)
    evictions = sum(stats.evictions for stats in result.per_proxy)
    assert observer.registry.get("repro_evictions_total").value == evictions
    causes = [
        event.get("cause")
        for event in observer.tracer.events()
        if event["type"] == "evict"
    ]
    assert len(causes) == evictions
    assert set(causes) <= {"capacity", "displaced", "repartition"}


def test_profile_lands_in_result(monkeypatch):
    """``run --profile`` folds cProfile per package into the result it
    prints, and the numbers are an unprofiled run's."""
    from repro import cli
    from repro.experiments import runner

    results = []
    run_cell = runner.run_cell

    def recorded(*args, **kwargs):
        results.append(run_cell(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(runner, "run_cell", recorded)
    argv = ["run", "--scale", "0.03", "--seed", str(SEED), "--no-artifact-cache"]
    assert cli.main(argv) == 0
    assert cli.main([*argv, "--profile"]) == 0
    plain, profiled = results
    assert plain.profile is None
    assert {"cache", "core", "sim", "system"} <= set(profiled.profile)
    assert all(set(entry) == {"calls", "seconds"} for entry in profiled.profile.values())
    assert _comparable(plain) == _comparable(profiled)


def test_cooperative_run_emits_peer_events(workload):
    observer = _full_observer()
    config = SimulationConfig(strategy="gdstar", capacity_fraction=0.02, seed=SEED)
    baseline = run_cooperative_simulation(workload, config, neighbor_count=3)
    observed = run_cooperative_simulation(
        workload, config, neighbor_count=3, observer=observer
    )
    assert _comparable(baseline) == _comparable(observed)
    assert observed.peer_fetch_pages > 0
    seen = {event["type"] for event in observer.tracer.events()}
    assert "peer_fetch" in seen
    assert (
        observer.registry.get("repro_peer_fetches_total").value
        == observed.peer_fetch_pages
    )
