"""``repro.core`` held to ``paper_sim``, a simulator written from the paper:
per proxy on a grid of cells (hop costs offset by the proxy id, as in
``test_metamorphic.inputs``), and call by call on one proxy whose six pages'
values tie.  A disagreement is a bug in ``repro.core`` or a rule that
docs/algorithms.md must state; the reference is never narrowed to pass.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.registry import make_policy
from repro.system.config import PushingScheme, SimulationConfig
from repro.system.simulator import Simulation
from tests.oracle import paper_sim
from tests.oracle.test_metamorphic import SEED, costs_of, inputs


@pytest.fixture(scope="module", params=["news", "alternative"])
def cell(request, trace_named):
    """A trace, its match table and the reference's inputs, read once."""
    workload = trace_named(request.param)
    table, costs = inputs(workload, "gdstar")
    publishes, requests = workload.publishes.rows, workload.requests.rows
    plain = dict(
        events=paper_sim.replay_order(
            zip(*(publishes[field].tolist() for field in ("time", "page_id"))),
            zip(*(requests[field].tolist() for field in ("time", "server_id", "page_id"))),
        ),
        sizes={page.page_id: page.size for page in workload.pages},
        matches={page.page_id: dict(table.match_vector(page.page_id)) for page in workload.pages},
        costs=costs,
    )
    return workload, table, plain


@pytest.mark.parametrize("capacity", [0.01, 0.05, 0.10])
@pytest.mark.parametrize("strategy", paper_sim.STRATEGIES)
def test_simulation_equals_the_paper_reference(cell, strategy, capacity):
    """At 5 % the cell also replays across two processes, its proxies
    split between them (``Simulation(processes=2)``)."""
    workload, table, plain = cell
    sized = workload.capacities(capacity)
    expected, pushed = paper_sim.simulate(strategy, capacities=list(sized.values()), **plain)
    for scheme in PushingScheme:
        for processes in (1, 2) if capacity == 0.05 else (1,):
            config = SimulationConfig(
                strategy, capacity_fraction=capacity, seed=SEED, pushing=scheme
            )
            topology = costs_of(plain["costs"])
            result = Simulation(
                workload, config, match_table=table, topology=topology, processes=processes
            ).run()
            counted = [
                {f: getattr(stats, f) for f in paper_sim.COUNTERS} for stats in result.per_proxy
            ]
            assert counted == expected, (scheme, processes)
            assert [result.push_transfers, result.push_bytes] == pushed[scheme.value], (
                scheme, processes
            )
    assert sum(stats["hits"] for stats in expected) > 0


PAGES = 6


@settings(max_examples=100, deadline=None)
@given(
    strategy=st.sampled_from(paper_sim.STRATEGIES),
    # (size, s) per page: ratios tie; an unmatched page is requested, not pushed.
    pages=st.lists(
        st.tuples(st.sampled_from([1, 2, 4]), st.sampled_from([0, 1, 2, 4])),
        min_size=PAGES, max_size=PAGES,
    ),
    capacity=st.integers(1, 12),
    cost=st.sampled_from([1.0, 3.0]),
    # A byte a call (1/3 publishes): enough re-pricing hits to compact a heap.
    calls=st.binary(min_size=100, max_size=200),
)
def test_every_call_agrees_with_the_paper_reference(strategy, pages, capacity, cost, calls):
    policy = make_policy(strategy, capacity, cost)
    reference = paper_sim.make_proxy(strategy, capacity, cost)
    # The simulator's count of each outcome; the policy counts no request.
    tallied = dict.fromkeys(
        ("requests", "hits", "stale_hits", "bytes_served_local", "pages_fetched", "bytes_fetched"), 0
    )
    versions = {}
    for step, byte in enumerate(calls):
        page = byte // 3 % PAGES
        size, s = pages[page]
        if byte % 3 == 0:
            versions[page] = versions.get(page, -1) + 1
            if s:  # pushed only where a subscription matches
                got = policy.on_publish(page, versions[page], size, s, float(step))
                outcome = reference.publish(page, versions[page], size, s)
                assert (got.stored, got.refreshed) == outcome, step
        elif page in versions:
            got = policy.on_request(page, versions[page], size, s, float(step))
            assert (got.hit, got.stale) == reference.request(page, versions[page], size, s), step
            assert got.cached_after == (policy.held_version(page) is not None), step
            tallied["requests"] += 1
            if got.hit:
                tallied["hits"] += 1
                tallied["bytes_served_local"] += size
            else:
                tallied["stale_hits"] += got.stale
                tallied["pages_fetched"] += 1
                tallied["bytes_fetched"] += size
        for other in range(PAGES):
            cache = reference.home(other)  # a Cache is truthy
            assert policy.held_version(other) == (cache and cache.pages[other].version), step
        if strategy.startswith("dc-"):
            assert policy.push_fraction == reference.pc.capacity / capacity, step
    policy.check_invariants()
    assert {f: getattr(policy.stats, f) for f in tallied} == dict.fromkeys(tallied, 0)
    counted = {f: getattr(policy.stats, f) for f in paper_sim.COUNTERS if f not in tallied}
    assert counted | tallied == reference.stats
