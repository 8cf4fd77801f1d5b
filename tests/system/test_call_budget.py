"""The composed calls pay once per record: one probe, and a call budget.

The first two tests replay the all-five-layers cell of the layer matrix
(the one ``test_layer_digest.py`` pins) and all three are deterministic
— they count, they do not time.  The first holds the request path to
*one* ``held_version`` probe of the requesting proxy per request; the
second holds ``repro.system`` to a number of Python calls per replayed
record, so a change that adds a hop per event is caught here, not three
PRs later on the benchmark (docs/architecture.md, "One loop").
The third holds a warm grid to no simulation at all.
"""

import cProfile
import os
import pstats
import sys

from repro.experiments import runner
from repro.experiments.spec import ExperimentGrid
from repro.system.cooperation import CooperativeSimulation
from repro.system.simulator import Simulation
from tests.system.test_layer_matrix import (
    LAYERS,
    churned,  # noqa: F401 - fixture
    config_for,
    workload,  # noqa: F401 - fixture
)

SYSTEM_DIR = os.path.join("repro", "system") + os.sep

#: ``repro/system`` function calls per replayed record on this cell.  An
#: upper bound, about 10 % above the 5.88 (122,878 / 20,901) measured on
#: CPython 3.11 when it was set — 7.37 while the layers ran as stage
#: tuples behind per-kind handlers (their fault gates, now in
#: ``repro/faults``, no longer count here), 11.92 before the request path
#: probed once; 3.12 inlines comprehensions and counts fewer.  Raise it
#: only with a benchmark run that shows the calls were worth it.
SYSTEM_CALLS_PER_RECORD = 6.5


def all_layers(trace):
    return CooperativeSimulation(trace, config_for(set(LAYERS)))


def test_each_request_probes_its_proxy_once(churned):
    simulation = all_layers(churned)
    requesting = [None]
    own_probes = [0]
    peer_probes = [0]
    pair_callers = set()

    def instrument(server_id, policy):
        probe = policy.held_version

        def held_version(page_id):
            if requesting[0] == server_id:
                own_probes[0] += 1
            else:
                peer_probes[0] += 1
            return probe(page_id)

        def pair_method(method):
            def called(page_id):
                pair_callers.add(sys._getframe(1).f_code.co_filename)
                return method(page_id)

            return called

        policy.held_version = held_version
        policy.contains = pair_method(policy.contains)
        policy.cached_version = pair_method(policy.cached_version)

    for proxy in simulation.proxies:
        instrument(proxy.server_id, proxy.policy)

    handled = [0]
    compose = simulation._compose

    def counted(server_id, on_request):
        def request(page_id, version, size, match_count, now):
            handled[0] += 1
            requesting[0] = server_id
            before = own_probes[0]
            outcome = on_request(page_id, version, size, match_count, now)
            assert own_probes[0] == before + 1, (server_id, page_id, now)
            requesting[0] = None
            return outcome

        return request

    def counted_compose(env):
        on_publish, on_request = compose(env)
        return on_publish, list(map(counted, range(len(on_request)), on_request))

    simulation._compose = counted_compose
    result = simulation.run()

    assert handled[0] == own_probes[0] == churned.request_count
    assert result.peer_fetch_pages > 0 and peer_probes[0] >= result.peer_fetch_pages
    assert [name for name in pair_callers if SYSTEM_DIR in name] == []


def test_system_calls_per_record_stay_in_budget(churned):
    simulation = all_layers(churned)
    profiler = cProfile.Profile()
    profiler.runcall(simulation.run)
    system_calls = sum(
        calls
        for (filename, _line, _name), (_, calls, *_rest) in pstats.Stats(
            profiler
        ).stats.items()
        if SYSTEM_DIR in filename
    )
    records = churned.publish_count + churned.request_count + len(churned.lifecycle)
    assert system_calls / records <= SYSTEM_CALLS_PER_RECORD, (system_calls, records)


def _count_constructions(monkeypatch) -> list:
    """One entry per ``Simulation`` built in this process from now on."""
    constructed = []
    init = Simulation.__init__

    def counted(self, *args, **kwargs):
        constructed.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Simulation, "__init__", counted)
    return constructed


def test_warm_grid_constructs_no_simulation(tmp_path, monkeypatch):
    """A cell the store holds is returned before its inputs are resolved
    or a ``Simulation`` is built (docs/architecture.md, "Artifact store").
    One usable CPU keeps the cold replays in this process, to count."""
    monkeypatch.setattr(runner, "usable_cpus", lambda: 1)
    constructed = _count_constructions(monkeypatch)
    grid = ExperimentGrid(traces=("news", "alternative"), strategies=("gdstar", "sg2"))
    store = str(tmp_path)
    try:
        runner.clear_caches()
        runner.run_grid(grid, scale=0.03, seed=7, artifact_dir=store)
        assert len(constructed) == 4  # cold: one per cell
        assert runner.trace_for.cache_info().currsize == 2
        runner.clear_caches()
        runner.run_grid(grid, scale=0.03, seed=7, artifact_dir=store)
        assert len(constructed) == 4  # warm: none added ...
        assert runner.trace_for.cache_info().currsize == 0  # ... and no trace loaded
    finally:
        runner.clear_caches()


def test_parallel_grid_builds_in_the_parent_only_its_share(tmp_path, monkeypatch):
    """Across two processes a cold grid builds in the parent the cells it
    replays itself (the first, and not the worker's first) and stores
    all of them; warm, it builds none and loads no trace."""
    monkeypatch.setattr(runner, "usable_cpus", lambda: 2)
    constructed = _count_constructions(monkeypatch)
    grid = ExperimentGrid(traces=("news", "alternative"), strategies=("gdstar", "sg2"))
    store = str(tmp_path)
    try:
        runner.clear_caches()
        runner.run_grid(grid, scale=0.03, seed=7, artifact_dir=store)
        assert 1 <= len(constructed) <= 3  # the worker replayed at least one
        assert runner.trace_for.cache_info().currsize == 2
        assert runner.cell_store(store).misses == 4  # stored by the parent
        constructed.clear()
        runner.clear_caches()
        runner.run_grid(grid, scale=0.03, seed=7, artifact_dir=store)
        assert len(constructed) == 0
        assert runner.trace_for.cache_info().currsize == 0
        assert runner.cell_store(store).hits == 4
    finally:
        runner.clear_caches()
