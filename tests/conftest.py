"""Fixtures shared by more than one test package."""

from functools import cache

import pytest

from repro.workload.presets import make_trace


@pytest.fixture(scope="session")
def trace_named():
    """``trace_named(name)``: the scale-0.03, seed-7 trace ``name``, built once a session."""
    return cache(lambda name: make_trace(name, scale=0.03, seed=7))


@pytest.fixture(scope="session")
def replay_one_proxy():
    """``replay_one_proxy(publishes, requests, sizes, strategy="gdstar")``:
    the counters of the one proxy of a plain replay of hand-built
    ``(time, page)`` publishes (version ``k`` is a page's ``k``-th) and
    ``(time, page)`` requests over pages of ``sizes``, every page fitting.
    Request counters are the simulator's, so this is where they are read."""
    from repro.system.config import SimulationConfig
    from repro.system.simulator import run_simulation
    from repro.workload.config import WorkloadConfig
    from repro.workload.trace import PageSpec, PublishRecord, RequestRecord, Workload

    def replay(publishes, requests, sizes, strategy="gdstar"):
        versions = {}
        published = []
        for at, page in publishes:
            versions[page] = versions.get(page, -1) + 1
            published.append(PublishRecord(at, page, versions[page]))
        pages = [
            PageSpec(page, size, page, 0, 1, 0.0, 0.0, versions.get(page, 0) + 1)
            for page, size in enumerate(sizes)
        ]
        config = WorkloadConfig(
            horizon=24 * 3600.0, distinct_pages=len(sizes), modified_pages=0,
            total_requests=len(requests), server_count=1,
        )
        workload = Workload(
            config=config, pages=pages, publishes=published,
            requests=[RequestRecord(at, 0, page) for at, page in requests],
        )
        result = run_simulation(workload, SimulationConfig(strategy, capacity_fraction=1.0))
        return result.per_proxy[0]

    return replay
