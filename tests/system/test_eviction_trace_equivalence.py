"""Eviction-cause trace equivalence across engines and heap layouts.

The bit-identity guard (test_replay_fastpath) compares final
:class:`SimulationResult` fields; this module guards a finer-grained
invariant: the *sequence of eviction events* the observability layer
records — (time, page, proxy, size, cause), in order — must be the one
the agenda oracle records, and must not depend on how aggressively the
:class:`~repro.cache.heap.AddressableHeap` compacts its backing list.
Compaction and the columnar record layout are pure representation
changes; if either ever reorders or renames an eviction, these tests
catch it even when the aggregate counters happen to agree.
"""

import os
import tempfile

import pytest

import repro.cache.heap as heap_module
import repro.core.gdstar as gdstar_module
import repro.core.single_cache as single_cache_module
from repro.obs.recorder import Observer
from repro.obs.tracer import EventTracer, read_jsonl
from repro.sim.rng import RandomStreams
from repro.system.config import SimulationConfig
from repro.system.simulator import Simulation
from repro.workload import generate_workload, news_config
from tests.system._reference import AgendaSimulation


@pytest.fixture(scope="module")
def workload():
    return generate_workload(news_config(scale=0.03), RandomStreams(5), label="news")


def evict_trace(workload, strategy, engine=Simulation):
    """The ordered eviction events of one run, as comparable tuples."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "trace.jsonl")
        observer = Observer(tracer=EventTracer(path))
        config = SimulationConfig(strategy=strategy, capacity_fraction=0.05)
        engine(workload, config, observer=observer).run()
        observer.close()
        events = read_jsonl(path)
    return [
        (e["t"], e["page"], e["proxy"], e["size"], e["cause"])
        for e in events
        if e["type"] == "evict"
    ]


@pytest.mark.parametrize("strategy", ["gdstar", "sg2", "sub"])
def test_engines_agree_on_eviction_events(workload, strategy):
    agenda = evict_trace(workload, strategy, AgendaSimulation)
    assert agenda, "capacity_fraction=0.05 should force evictions"
    assert evict_trace(workload, strategy) == agenda


@pytest.mark.parametrize("strategy", ["gdstar", "sg2"])
def test_compaction_cadence_never_changes_evictions(
    workload, strategy, monkeypatch
):
    """Forcing a compaction on (nearly) every push must leave the
    eviction event stream untouched: live records keep their
    (priority, sequence) keys, so heapify yields exactly the order
    lazy skimming would have."""
    baseline = evict_trace(workload, strategy)
    assert baseline

    # The floor is imported by value into the policy hot paths, so
    # patch every binding.
    for module in (heap_module, single_cache_module, gdstar_module):
        monkeypatch.setattr(module, "_COMPACT_FLOOR", 1)
    compacting = evict_trace(workload, strategy)
    assert compacting == baseline
