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
  and SUB, which has no access-time half, hits nothing;
* **vanilla limits** — a layer armed at its limit is the identity: leases
  that are always renewed, an origin gate and a service queue with room
  for everything leave every number of the plain run where it was,
  ``total_response_time`` bit for bit.

A relation that fails is a bug in the simulator or a gap in
docs/algorithms.md; it is never narrowed to pass.
"""

import dataclasses

import pytest

from repro.faults.spec import ChaosSpec, OverloadSpec
from repro.sim.rng import RandomStreams
from repro.system.config import PushingScheme, SimulationConfig
from repro.system.simulator import Simulation
from repro.workload.churn import ChurnSpec
from repro.workload.presets import make_trace

SCALE = 0.03
SEED = 7
CAPACITY = 0.05
PUSH_STRATEGIES = ["sub", "sg1", "sg2", "sr", "dm", "dc-fp", "dc-ap", "dc-lap"]
TRACES = ["news", "alternative"]

@pytest.fixture(scope="module")
def trace_named():
    """One trace per name for the whole module, built on first use."""
    built = {}

    def named(name):
        if name not in built:
            built[name] = make_trace(name, scale=SCALE, seed=SEED)
        return built[name]

    return named


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
