"""Value first, entry last: a replay builds a CacheEntry only for a
page it actually stores.

Most placement attempts at the paper's scale are rejections (on the
``paper-cell`` benchmark workload sg2 makes 179,286 attempts and stores
36,247 pages); until PR 13 every one of them constructed — and
validated — a :class:`CacheEntry` before the value gate ran.  Policies
now price the page from scalars, secure room, and only then build the
entry, so over a whole replay the entries constructed are exactly the
entries that entered some storage.
"""

import pytest

from repro.cache.entry import CacheEntry
from repro.cache.storage import CacheStorage
from repro.system.config import SimulationConfig
from repro.system.simulator import run_simulation
from repro.workload.presets import make_trace

STRATEGIES = (
    "gdstar", "sub", "sg1", "sg2", "sr", "dm", "dc-fp", "dc-ap", "dc-lap",
)


@pytest.fixture(scope="module")
def workload():
    return make_trace("news", scale=0.05, seed=13)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_entries_are_built_only_for_stored_pages(workload, strategy, monkeypatch):
    built = []  # holds the entries, so ids cannot be recycled
    stored = set()
    build, add = CacheEntry.__init__, CacheStorage.add

    def counting_build(self, *args, **kwargs):
        build(self, *args, **kwargs)
        built.append(self)

    def counting_add(self, entry):
        add(self, entry)
        stored.add(id(entry))  # a set: DC promotions re-add the same entry

    monkeypatch.setattr(CacheEntry, "__init__", counting_build)
    monkeypatch.setattr(CacheStorage, "add", counting_add)
    result = run_simulation(
        workload, SimulationConfig(strategy=strategy, capacity_fraction=0.05, seed=13)
    )

    assert built, "capacity_fraction=0.05 should store pages"
    assert ({id(entry) for entry in built} == stored) is True, (
        f"{len(built)} entries built, {len(stored)} stored"
    )
    if strategy != "gdstar":  # no push-time module, nothing to reject
        rejected = sum(stats.pages_pushed_rejected for stats in result.per_proxy)
        assert rejected > 0, "the run should exercise rejected attempts"
