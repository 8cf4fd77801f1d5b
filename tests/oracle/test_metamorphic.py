"""Metamorphic relations: two runs whose inputs differ in a known way.

Any correct implementation of §3 obeys these, whoever wrote it, so they
need no second simulator.  Each relation compares per-proxy requests,
hits, accepted and rejected pushes and fetches, not only the hit ratio:

* **pushing scheme** — Always-Pushing and Pushing-When-Necessary differ
  only in what the publisher counts as transferred, never in what a
  proxy stores or serves;
* **byte homogeneity** — every page size and every proxy's capacity
  times 4 (a power of two, so ``c/size``, ``L`` and ``L + v`` scale
  exactly and the decisions cannot flip).  The capacities are set
  directly: ``Workload.capacities`` floors, which does not commute with
  the scaling;
* **loss limit** — when (almost) every notification is lost and nothing
  repairs it, a push strategy is its access-time half alone: DM is GD*,
  DC-FP is GD* on a cache the size of its Access-Cache, and SUB, which
  has no access-time half, hits nothing;
* **proxy relabelling** — server ids permuted in the requests, the match
  table and the hop costs permute every per-proxy number, the response
  time included; only the server-order float total may move in its last
  bits;
* **cost homogeneity** — every hop cost times 4 at β = 1 (a power of two,
  so ``cost/size`` and ``L`` scale exactly, as with bytes) changes no
  decision;
* **vanilla limits** — a layer armed at its limit is the identity: leases
  that are always renewed, an origin gate and a service queue with room
  for everything leave every number of the plain run where it was,
  ``total_response_time`` bit for bit.

A relation that fails is a bug in the simulator or a gap in
docs/algorithms.md; it is never narrowed to pass.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from repro.faults.spec import ChaosSpec, OverloadSpec
from repro.pubsub.matching import TraceMatchCounts
from repro.sim.rng import RandomStreams
from repro.system.config import PushingScheme, SimulationConfig
from repro.system.simulator import Simulation, cell_inputs
from repro.workload.churn import ChurnSpec

SEED = 7
CAPACITY = 0.05
PUSH_STRATEGIES = ["sub", "sg1", "sg2", "sr", "dm", "dc-fp", "dc-ap", "dc-lap"]
TRACES = ["news", "alternative"]


def run(workload, strategy, **config):
    options = dict(capacity_fraction=CAPACITY, seed=SEED, **config)
    return Simulation(workload, SimulationConfig(strategy=strategy, **options)).run()


def per_proxy(result):
    """What each proxy stored and served."""
    return [
        (s.requests, s.hits, s.pages_pushed_stored, s.pages_pushed_rejected, s.pages_fetched)
        for s in result.per_proxy
    ]


def observed(result):
    """Per proxy, plus what the publisher sent and the users waited."""
    return (
        per_proxy(result),
        result.requests,
        result.hits,
        result.push_transfers,
        result.push_bytes,
        result.fetch_pages,
        result.fetch_bytes,
        result.total_response_time,
    )


@pytest.mark.parametrize("name", TRACES)
@pytest.mark.parametrize("strategy", PUSH_STRATEGIES)
def test_the_pushing_scheme_moves_no_proxy(trace_named, name, strategy):
    workload = trace_named(name)
    always = run(workload, strategy, pushing=PushingScheme.ALWAYS)
    necessary = run(workload, strategy, pushing=PushingScheme.WHEN_NECESSARY)
    assert per_proxy(always) == per_proxy(necessary)
    assert always.hits > 0


def scaled(workload, factor):
    """``workload`` with every page ``factor`` times larger, and every
    proxy's capacity ``factor`` times the unscaled one."""
    capacities = workload.capacities(CAPACITY)
    bigger = dataclasses.replace(
        workload,
        pages=[dataclasses.replace(page, size=page.size * factor) for page in workload.pages],
    )
    bigger.capacities = lambda fraction: {
        server: capacity * factor for server, capacity in capacities.items()
    }
    return bigger


@pytest.mark.parametrize("name", TRACES)
@pytest.mark.parametrize(
    "strategy, beta",
    [(s, 1.0) for s in ["gdstar", "sub", "sr", "sg2", "dm", "dc-lap"]]
    + [("gdstar", 2.0), ("sg2", 2.0)],
)
def test_byte_homogeneity(trace_named, name, strategy, beta):
    workload = trace_named(name)
    options = dict(strategy_options={"beta": beta})
    plain = run(workload, strategy, **options)
    bigger = run(scaled(workload, 4), strategy, **options)
    assert per_proxy(bigger) == per_proxy(plain)
    assert (bigger.push_bytes, bigger.fetch_bytes) == (4 * plain.push_bytes, 4 * plain.fetch_bytes)


ALL_STRATEGIES = ["gdstar", *PUSH_STRATEGIES]


def inputs(workload, strategy):
    """The match table a plain cell would build, and its per-proxy hop
    costs each raised by the proxy's id: at this scale every proxy is one
    hop away, and equal costs would make a cost relation vacuous."""
    config = SimulationConfig(strategy=strategy, capacity_fraction=CAPACITY, seed=SEED)
    table, topology = cell_inputs(
        workload, SEED, config.subscription_quality, config.notified_fraction
    )
    return table, [cost + server for server, cost in enumerate(topology.fetch_costs())]


def costs_of(costs):
    """A topology as ``Simulation`` reads it: per-proxy hop costs."""
    return SimpleNamespace(fetch_costs=lambda: list(costs))


@pytest.mark.parametrize("name", TRACES)
@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_proxy_relabelling_permutes_every_proxy(trace_named, name, strategy):
    workload = trace_named(name)
    table, costs = inputs(workload, strategy)
    servers = workload.config.server_count
    assert len(costs) == servers and len(set(costs)) > 1
    label = np.random.default_rng(SEED).permutation(servers)
    assert (label != np.arange(servers)).any()
    requests = workload.requests.rows.copy()
    requests["server_id"] = label[requests["server_id"]]
    moved_costs = [costs[server] for server in np.argsort(label)]  # proxy label[s] is s
    moved_table = TraceMatchCounts({
        page: {int(label[proxy]): count for proxy, count in per_proxy}
        for page, per_proxy in table._vectors.items()
    })
    config = dict(capacity_fraction=CAPACITY, seed=SEED)
    plain = Simulation(
        workload, SimulationConfig(strategy=strategy, **config),
        match_table=table, topology=costs_of(costs),
    ).run()
    moved = Simulation(
        dataclasses.replace(workload, requests=requests),
        SimulationConfig(strategy=strategy, **config),
        match_table=moved_table, topology=costs_of(moved_costs),
    ).run()
    timed = [(*row, s.response_time) for row, s in zip(per_proxy(plain), plain.per_proxy)]
    moved_timed = [(*row, s.response_time) for row, s in zip(per_proxy(moved), moved.per_proxy)]
    assert [moved_timed[label[server]] for server in range(servers)] == timed
    assert observed(moved)[1:-1] == observed(plain)[1:-1]
    assert moved.total_response_time == pytest.approx(plain.total_response_time, rel=1e-12)
    assert plain.hits > 0


@pytest.mark.parametrize("name", TRACES)
@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_cost_homogeneity(trace_named, name, strategy):
    workload = trace_named(name)
    table, costs = inputs(workload, strategy)
    config = SimulationConfig(
        strategy=strategy, capacity_fraction=CAPACITY, seed=SEED,
        strategy_options={"beta": 1.0},
    )
    plain = Simulation(workload, config, match_table=table, topology=costs_of(costs)).run()
    dearer = Simulation(
        workload, config, match_table=table, topology=costs_of([4 * c for c in costs])
    ).run()
    assert per_proxy(dearer) == per_proxy(plain)
    assert observed(dearer)[1:-1] == observed(plain)[1:-1]
    assert plain.hits > 0


#: Every send lost (``ChaosSpec`` refuses a probability of 1) and no
#: access-time repair of what the proxy missed.
LOSS_LIMIT = ChaosSpec(delivery_loss_probability=0.999999, delivery_repair=False)


@pytest.mark.parametrize("name", TRACES)
def test_with_every_push_lost_dm_is_gdstar_and_sub_hits_nothing(trace_named, name):
    workload = trace_named(name)
    dm = run(workload, "dm", chaos=LOSS_LIMIT)
    gdstar = run(workload, "gdstar", chaos=LOSS_LIMIT)
    assert dm.notifications_sent > 0 and dm.notifications_delivered == 0
    assert per_proxy(dm) == per_proxy(gdstar)
    assert dm.hits > 0
    sub = run(workload, "sub", chaos=LOSS_LIMIT)
    assert sub.hits == 0 and sub.requests == workload.request_count


@pytest.mark.parametrize("name", TRACES)
def test_with_every_push_lost_dc_fp_is_gdstar_on_its_access_cache(trace_named, name):
    """With no push delivered, DC-FP is GD* on ``capacity − int(capacity × 0.5)`` bytes."""
    workload = trace_named(name)
    capacities = workload.capacities(CAPACITY)
    smaller = dataclasses.replace(workload)
    smaller.capacities = lambda _: {s: c - int(c * 0.5) for s, c in capacities.items()}
    dc_fp = run(workload, "dc-fp", chaos=LOSS_LIMIT)
    gdstar = run(smaller, "gdstar", chaos=LOSS_LIMIT)
    assert dc_fp.notifications_sent > 0 and dc_fp.notifications_delivered == 0 < dc_fp.hits
    assert per_proxy(dc_fp) == per_proxy(gdstar)


#: name -> (trace transform, SimulationConfig fields): each layer at the
#: limit where it can change nothing.
VANILLA_LIMITS = {
    "leases-always-renewed": (
        lambda workload: workload.with_churn(
            ChurnSpec(renew_probability=1.0),
            RandomStreams(SEED).stream("workload.churn"),
        ),
        {},
    ),
    "origin-gate-unbounded": (
        lambda workload: workload,
        dict(overload=OverloadSpec(origin_capacity=1e308)),
    ),
    "service-queue-unbounded": (
        lambda workload: workload,
        dict(overload=OverloadSpec(service_rate=1e308, queue_capacity=10**9)),
    ),
}


@pytest.mark.parametrize("limit", sorted(VANILLA_LIMITS))
@pytest.mark.parametrize("strategy", ["gdstar", "sg2", "dc-lap", "sub"])
def test_a_layer_at_its_limit_is_the_plain_run(trace_named, limit, strategy):
    transform, config = VANILLA_LIMITS[limit]
    workload = trace_named("news")
    plain = run(workload, strategy)
    limited = run(transform(workload), strategy, **config)
    assert observed(limited) == observed(plain)
    assert plain.hits > 0
