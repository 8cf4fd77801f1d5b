"""Identities that hold for any correct implementation (ROADMAP 1 (b)).

Two oracles that share no code with the simulator, for the engine every
command runs:

* with room for every page a proxy ever serves, a strategy misses only
  what it must — counted here from the trace columns alone;
* an access-time strategy never looks at a subscription, so subscription
  quality and the pushing scheme cannot move any number it reports
  (claims 6 and 7, exact).
"""

import numpy as np
import pytest

from repro.system.config import PushingScheme, SimulationConfig
from repro.system.simulator import run_simulation

ACCESS_TIME = ["gdstar", "lru", "gds", "lfu-da"]
#: The dual caches (dc-fp, dc-ap, dc-lap) lose a few more to their
#: partition — 2 to 96 here — so they are left out.
SINGLE_CACHE_PUSH = ["sub", "sg1", "sg2", "sr", "dm"]
SCHEMES = list(PushingScheme)


@pytest.fixture(scope="module", params=["news", "alternative"])
def trace(request, trace_named):
    return trace_named(request.param)


def unavoidable_misses(workload):
    """Which requests no cache of any size can serve, as a mask over the
    request rows: the first of a (proxy, page) pair, and any that wants
    another version than the pair's previous request did (a publish
    precedes a request at equal times)."""
    publishes, requests = workload.publishes.rows, workload.requests.rows
    version = np.empty(len(requests), dtype=np.int64)
    for page_id in np.unique(requests["page_id"]):
        mine = requests["page_id"] == page_id
        published = publishes["time"][publishes["page_id"] == page_id]
        version[mine] = np.searchsorted(published, requests["time"][mine], side="right") - 1
    assert (version >= 0).all()
    pair = requests["page_id"].astype(np.int64) * workload.config.server_count
    pair += requests["server_id"]
    order = np.argsort(pair, kind="stable")  # rows are time-sorted; pairs stay so
    pair, version = pair[order], version[order]
    missed = np.empty(len(requests), dtype=bool)
    missed[order] = np.r_[True, (pair[1:] != pair[:-1]) | (version[1:] != version[:-1])]
    return missed


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda scheme: scheme.value)
def test_a_cache_with_room_for_everything_misses_only_what_it_must(trace, scheme):
    requests = trace.requests.rows
    missed = requests[unavoidable_misses(trace)]
    assert 0 < len(missed) < len(requests)
    sizes = np.array([page.size for page in trace.pages])
    per_proxy = np.bincount(missed["server_id"], minlength=trace.config.server_count)
    for strategy in ACCESS_TIME:
        result = run_simulation(
            trace, SimulationConfig(strategy=strategy, capacity_fraction=1.0, pushing=scheme)
        )
        assert result.fetch_pages == len(missed), strategy
        assert result.fetch_bytes == sizes[missed["page_id"]].sum(), strategy
        assert [s.requests - s.hits for s in result.per_proxy] == per_proxy.tolist(), strategy
        hourly = np.bincount((missed["time"] // 3600).astype(int), minlength=result.hour_count)
        assert result.hourly_fetch_pages == hourly.tolist(), strategy
    for strategy in SINGLE_CACHE_PUSH:  # every version is there before its first reader
        result = run_simulation(
            trace, SimulationConfig(strategy=strategy, capacity_fraction=1.0, pushing=scheme)
        )
        assert result.requests - result.hits == 0, strategy


def what_a_user_sees(result):
    return (
        result.hits,
        [stats.hits for stats in result.per_proxy],
        result.hourly_hits,
        result.fetch_pages,
        result.fetch_bytes,
        result.total_response_time,
    )


@pytest.mark.parametrize("strategy", ACCESS_TIME)
def test_access_time_strategies_ignore_subscriptions_and_pushing(trace, strategy):
    seen = []
    for quality in (0.25, 0.5, 1.0):
        for scheme in SCHEMES:
            result = run_simulation(
                trace,
                SimulationConfig(strategy=strategy, subscription_quality=quality, pushing=scheme),
            )
            assert result.push_transfers == 0
            seen.append(what_a_user_sees(result))
    assert all(other == seen[0] for other in seen[1:])
