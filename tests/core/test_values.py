"""Tests for the value functions (equations 1-5)."""

import pytest

from tests.oracle.paper_sim import (
    gdstar_value,
    sg1_frequency,
    sg2_frequency,
    sr_value,
    sub_value,
)


def test_gdstar_value_formula():
    # V = L + (f*c/s)^(1/beta); with beta=2 that's L + sqrt(f*c/s)
    assert gdstar_value(1.0, 4, 1.0, 1, 2.0) == pytest.approx(1.0 + 2.0)
    assert gdstar_value(0.0, 9, 4.0, 4, 2.0) == pytest.approx(3.0)


def test_gdstar_value_beta_one_is_linear():
    assert gdstar_value(0.5, 3, 2.0, 6, 1.0) == pytest.approx(0.5 + 1.0)


def test_gdstar_value_negative_frequency_clamps_to_inflation():
    assert gdstar_value(7.0, -5, 1.0, 10, 2.0) == 7.0
    assert gdstar_value(7.0, 0, 1.0, 10, 2.0) == 7.0


def test_gdstar_value_validation():
    with pytest.raises(ValueError):
        gdstar_value(0.0, 1, 1.0, 0, 2.0)
    with pytest.raises(ValueError):
        gdstar_value(0.0, 1, 1.0, 10, 0.0)


def test_gdstar_value_monotone_in_frequency():
    values = [gdstar_value(1.0, f, 2.0, 100, 2.0) for f in range(0, 10)]
    assert values == sorted(values)


def test_gdstar_value_decreasing_in_size():
    small = gdstar_value(0.0, 5, 1.0, 10, 2.0)
    big = gdstar_value(0.0, 5, 1.0, 1000, 2.0)
    assert small > big


def test_sub_value_formula():
    assert sub_value(10, 2.0, 4) == pytest.approx(5.0)
    assert sub_value(0, 2.0, 4) == 0.0


def test_sub_value_validation():
    with pytest.raises(ValueError):
        sub_value(1, 1.0, 0)


def test_sr_value_can_be_negative():
    assert sr_value(3, 5, 1.0, 1) == pytest.approx(-2.0)
    assert sr_value(5, 3, 2.0, 4) == pytest.approx(1.0)


def test_sr_value_validation():
    with pytest.raises(ValueError):
        sr_value(1, 0, 1.0, 0)


def test_frequency_helpers():
    assert sg1_frequency(3, 4) == 7
    assert sg2_frequency(3, 4) == -1
    assert sg2_frequency(4, 3) == 1


# -- the policies inline these equations: same arithmetic, bit for bit ------

COST, BETA, SIZE, SUBS = 3.7, 1.7, 37, 5


def test_gdstar_inlines_eq1_including_the_inflation_term():
    from repro.core.gdstar import GDStarPolicy

    policy = GDStarPolicy(100, cost=COST, beta=BETA)
    heap = policy._cache.heap
    policy.on_request(1, 0, 60, 0, now=1.0)
    assert heap.priority(1) == gdstar_value(0.0, 1, COST, 60, BETA)
    policy.on_request(1, 0, 60, 0, now=2.0)
    first = gdstar_value(0.0, 2, COST, 60, BETA)
    assert heap.priority(1) == first
    policy.on_request(2, 0, 70, 0, now=3.0)  # evicts page 1: L = its value
    assert policy.inflation == first
    assert heap.priority(2) == gdstar_value(first, 1, COST, 70, BETA)


@pytest.mark.parametrize("mode", ["sg1", "sg2", "sr"])
def test_single_cache_inlines_eqs_3_to_5(mode):
    from repro.core.single_cache import SingleCacheCombinedPolicy

    def expected(accesses):
        if mode == "sr":
            return sr_value(SUBS, accesses, COST, SIZE)
        frequency = (sg1_frequency if mode == "sg1" else sg2_frequency)(SUBS, accesses)
        return gdstar_value(0.0, frequency, COST, SIZE, BETA)

    policy = SingleCacheCombinedPolicy(10_000, cost=COST, mode=mode, beta=BETA)
    heap = policy._cache.heap
    policy.on_publish(1, 0, SIZE, SUBS, now=0.0)
    assert heap.priority(1) == expected(0)
    policy.on_request(1, 0, SIZE, SUBS, now=1.0)
    assert heap.priority(1) == expected(1)
    policy.on_request(2, 0, SIZE, SUBS, now=2.0)  # access-time placement
    assert heap.priority(2) == expected(1)


def test_sub_and_dual_methods_inline_eqs_2_and_1():
    from repro.core.dual_methods import DualMethodsPolicy
    from repro.core.sub import SubPolicy

    sub = SubPolicy(10_000, cost=COST)
    sub.on_publish(1, 0, SIZE, SUBS, now=0.0)
    assert sub._cache.heap.priority(1) == sub_value(SUBS, COST, SIZE)
    sub.on_publish(1, 1, SIZE, SUBS + 2, now=1.0)  # refresh reprices
    assert sub._cache.heap.priority(1) == sub_value(SUBS + 2, COST, SIZE)

    dm = DualMethodsPolicy(10_000, cost=COST, beta=BETA)
    dm.on_publish(1, 0, SIZE, SUBS, now=0.0)
    assert dm._push_heap.priority(1) == sub_value(SUBS, COST, SIZE)
    assert dm._access_heap.priority(1) == gdstar_value(0.0, 0, COST, SIZE, BETA)
    dm.on_request(1, 0, SIZE, SUBS, now=1.0)
    assert dm._access_heap.priority(1) == gdstar_value(0.0, 1, COST, SIZE, BETA)
    dm.on_request(2, 0, SIZE, SUBS, now=2.0)
    assert dm._push_heap.priority(2) == sub_value(SUBS, COST, SIZE)
    assert dm._access_heap.priority(2) == gdstar_value(0.0, 1, COST, SIZE, BETA)


@pytest.mark.parametrize("name", ["dc-fp", "dc-ap", "dc-lap"])
def test_dual_caches_inline_eqs_2_and_1(name):
    from repro.core.registry import make_policy

    policy = make_policy(name, 10_000, cost=COST, beta=BETA)
    policy.on_publish(1, 0, SIZE, SUBS, now=0.0)
    assert policy.pc.heap.priority(1) == sub_value(SUBS, COST, SIZE)
    policy.on_request(1, 0, SIZE, SUBS, now=1.0)  # promoted to AC
    assert policy.ac.heap.priority(1) == gdstar_value(0.0, 1, COST, SIZE, BETA)
    policy.on_request(1, 0, SIZE, SUBS, now=2.0)
    assert policy.ac.heap.priority(1) == gdstar_value(0.0, 2, COST, SIZE, BETA)
    policy.on_request(2, 0, SIZE, SUBS, now=3.0)  # miss, admitted to AC
    assert policy.ac.heap.priority(2) == gdstar_value(0.0, 1, COST, SIZE, BETA)
