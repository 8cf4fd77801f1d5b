"""Tests for the strategy registry."""

import pytest

from repro.core.registry import (
    BETA_STRATEGIES,
    STRATEGIES,
    make_policy,
    make_policy_lenient,
    strategy_names,
)
from repro.core.dual_caches import DualCacheAdaptivePolicy
from repro.core.gdstar import GDStarPolicy


def test_all_paper_strategies_present():
    names = set(strategy_names())
    assert {"gdstar", "sub", "sg1", "sg2", "sr", "dm", "dc-fp", "dc-ap", "dc-lap"} <= names
    assert {"lru", "gds", "lfu-da"} <= names


def test_alias_gd_star():
    assert isinstance(make_policy("gd*", 1000), GDStarPolicy)
    assert "gd*" not in strategy_names()
    assert "gd*" in STRATEGIES


def test_case_insensitive_lookup():
    assert isinstance(make_policy("GDSTAR", 1000), GDStarPolicy)


def test_unknown_strategy_raises():
    with pytest.raises(KeyError):
        make_policy("nope", 1000)


def test_dc_lap_defaults_bounds():
    policy = make_policy("dc-lap", 1000)
    assert isinstance(policy, DualCacheAdaptivePolicy)
    assert policy.lower_fraction == 0.25
    assert policy.upper_fraction == 0.75
    assert policy.name == "dc-lap"


def test_dc_ap_is_unbounded():
    policy = make_policy("dc-ap", 1000)
    assert policy.lower_fraction == 0.0
    assert policy.upper_fraction == 1.0
    assert policy.name == "dc-ap"


def test_strategy_specific_kwargs_forwarded():
    policy = make_policy("gdstar", 1000, beta=0.5)
    assert policy.beta == 0.5
    dc = make_policy("dc-fp", 1000, push_fraction=0.3)
    assert dc.pc.capacity_bytes == 300


def test_lenient_drops_beta_for_non_beta_strategies():
    policy = make_policy_lenient("sub", 1000, beta=0.5)
    assert not hasattr(policy, "beta")
    gd = make_policy_lenient("gdstar", 1000, beta=0.5)
    assert gd.beta == 0.5


def test_beta_strategy_set_consistent_with_constructors():
    for name in strategy_names():
        policy = make_policy_lenient(name, 1000, beta=1.0)
        if name in BETA_STRATEGIES:
            assert getattr(policy, "beta", None) == 1.0


def test_every_registry_entry_constructs():
    for name in STRATEGIES:
        policy = STRATEGIES[name](1000, 2.0)
        assert policy.capacity_bytes == 1000
        assert policy.cost == 2.0
