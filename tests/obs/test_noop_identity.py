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
import os
import pstats

import pytest

from repro.faults.spec import ChaosSpec
from repro.obs import (
    EventTracer, MetricsRegistry, NullObserver, Observer, RunMonitor, TimeSeriesCollector,
    read_jsonl,
)
from repro.system.config import SimulationConfig
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


def _full_observer(directory):
    return Observer(
        registry=MetricsRegistry(),
        tracer=EventTracer(str(directory / "trace.jsonl")),
        timeseries=TimeSeriesCollector(3600.0, str(directory / "series.jsonl")),
        monitor=RunMonitor(interval=1e9, sink=io.StringIO()),
    )


def _traced(observer, directory):
    """The trace ``_full_observer(directory)`` wrote, once it is closed."""
    observer.close()
    return read_jsonl(str(directory / "trace.jsonl"))


def _samples(registry):
    """``{sample name: value}`` of the registry's Prometheus text."""
    return {
        line.rsplit(" ", 1)[0]: float(line.rsplit(" ", 1)[1])
        for line in registry.render_prometheus().splitlines()
        if not line.startswith("#")
    }


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


def test_full_observer_is_bit_identical_healthy(workload, caplog, tmp_path):
    baseline = _replayed(caplog, workload, observer=None)
    observer = _full_observer(tmp_path)
    assert _replayed(caplog, workload, observer=observer) == baseline
    assert baseline[1] == ["replay: plain"]
    assert observer.monitor.events == workload.publish_count + workload.request_count


@pytest.mark.parametrize("strategy", ["sg2", "dc-lap"])
def test_fused_heap_paths_stay_visible_and_identical(workload, strategy, tmp_path):
    """The conditional-eviction loop runs inside the heap
    (``pop_cheaper``), bypassing ``push``/``pop``: an observed run calls
    it as an unobserved one does, where cProfile sees it, and profiling
    must not change what it decides."""
    baseline = _run(workload, observer=None, strategy=strategy)
    profiler = cProfile.Profile()
    observed = profiler.runcall(_run, workload, _full_observer(tmp_path), strategy=strategy)
    assert _comparable(baseline) == _comparable(observed)
    calls = {
        name: count
        for (_file, _line, name), (_, count, *_rest) in pstats.Stats(profiler).stats.items()
    }
    assert calls["pop_cheaper"] > 0


def test_observed_plain_run_takes_the_plain_path(workload, tmp_path):
    """An observer is not a layer: an observed vanilla run calls the
    policies through the observer's own wrappers, never the composed
    calls and settling tails the layers end in."""
    profiler = cProfile.Profile()
    profiler.runcall(_run, workload, _full_observer(tmp_path))
    called = {
        name
        for filename, _line, name in pstats.Stats(profiler).stats
        if filename.endswith(os.path.join("system", "simulator.py"))
    }
    assert {"_loop", "_count_requests"} <= called
    assert called.isdisjoint({"_compose", "_serve", "_offer_push", "_settle", "_settle_unserved"})


def test_full_observer_is_bit_identical_under_chaos(workload, caplog, tmp_path):
    baseline = _replayed(caplog, workload, observer=None, chaos=CHAOS)
    observer = _full_observer(tmp_path)
    assert _replayed(caplog, workload, observer=observer, chaos=CHAOS) == baseline
    assert baseline[1] == ["replay: wrappers (chaos)"]

    # Taxonomy coverage: everything a non-cooperative chaos run can
    # emit must actually show up (peer_fetch needs cooperation; see
    # test_cooperative_run_emits_peer_events).
    seen = {event["type"] for event in _traced(observer, tmp_path)}
    expected = {
        "run_start", "run_end", "publish", "match", "push_offer",
        "push_accept", "push_reject", "push_suppressed", "request",
        "hit", "stale", "miss", "fetch", "failover", "retry", "failed",
        "evict", "crash", "restart", "outage", "outage_end",
    }
    assert expected <= seen, f"missing event types: {sorted(expected - seen)}"


def test_metrics_agree_with_result(workload, tmp_path):
    observer = _full_observer(tmp_path)
    result = _run(workload, observer=observer)
    samples = _samples(observer.registry)
    assert samples["repro_requests_total"] == result.requests
    assert samples["repro_hits_total"] == result.hits
    assert samples["repro_stale_hits_total"] == result.stale_hits
    assert samples["repro_fetches_total"] == result.fetch_pages
    assert (
        samples["repro_misses_total"]
        == result.requests - result.hits - result.stale_hits
    )
    assert samples["repro_request_latency_seconds_count"] == result.requests
    assert samples["repro_request_latency_seconds_sum"] == pytest.approx(
        result.total_response_time
    )
    assert samples["repro_sim_time_seconds"] > 0


def test_eviction_metrics_match_stats(workload, tmp_path):
    observer = _full_observer(tmp_path)
    result = _run(workload, observer=observer)
    evictions = sum(stats.evictions for stats in result.per_proxy)
    assert _samples(observer.registry)["repro_evictions_total"] == evictions
    causes = [
        event.get("cause")
        for event in _traced(observer, tmp_path)
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


def test_cooperative_run_emits_peer_events(workload, tmp_path):
    observer = _full_observer(tmp_path)
    config = SimulationConfig(strategy="gdstar", capacity_fraction=0.02, seed=SEED)
    baseline = Simulation(workload, config, neighbor_count=3).run()
    observed = Simulation(workload, config, observer=observer, neighbor_count=3).run()
    assert _comparable(baseline) == _comparable(observed)
    assert observed.peer_fetch_pages > 0
    seen = {event["type"] for event in _traced(observer, tmp_path)}
    assert "peer_fetch" in seen
    assert (
        _samples(observer.registry)["repro_peer_fetches_total"]
        == observed.peer_fetch_pages
    )
