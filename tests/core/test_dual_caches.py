"""Tests for DC-FP, DC-AP and DC-LAP."""

import pytest

from repro.core.dual_caches import DualCacheAdaptivePolicy, DualCacheFixedPolicy


def make_fp(capacity=1000, cost=1.0, push_fraction=0.5):
    return DualCacheFixedPolicy(capacity, cost=cost, push_fraction=push_fraction)


def make_ap(capacity=1000, cost=1.0, **kwargs):
    return DualCacheAdaptivePolicy(capacity, cost=cost, **kwargs)


def make_lap(capacity=1000, cost=1.0):
    return DualCacheAdaptivePolicy(
        capacity, cost=cost, lower_fraction=0.25, upper_fraction=0.75
    )


class TestDCFP:
    def test_partition_sizes(self):
        policy = make_fp(capacity=1000, push_fraction=0.5)
        assert policy.pc.capacity_bytes == 500
        assert policy.ac.capacity_bytes == 500

    def test_push_goes_to_pc(self):
        policy = make_fp()
        policy.on_publish(1, 0, 100, 5, now=0.0)
        assert 1 in policy.pc and 1 not in policy.ac

    def test_first_access_moves_pc_to_ac(self):
        policy = make_fp()
        policy.on_publish(1, 0, 100, 5, now=0.0)
        outcome = policy.on_request(1, 0, 100, 5, now=1.0)
        assert outcome.hit
        assert 1 not in policy.pc and 1 in policy.ac
        # partition sizes unchanged in DC-FP
        assert policy.pc.capacity_bytes == 500

    def test_move_can_trigger_ac_replacement(self):
        policy = make_fp(capacity=400)  # 200/200
        policy.on_request(2, 0, 150, 1, now=0.0)  # AC resident
        policy.on_publish(1, 0, 150, 5, now=1.0)
        policy.on_request(1, 0, 150, 5, now=2.0)  # move 1 into AC, evict 2
        assert 1 in policy.ac
        assert policy.held_version(2) is None

    def test_miss_cached_in_ac(self):
        policy = make_fp()
        outcome = policy.on_request(1, 0, 100, 5, now=0.0)
        assert outcome.cached_after
        assert 1 in policy.ac

    def test_stale_in_pc_promotes_with_fresh_content(self):
        policy = make_fp()
        policy.on_publish(1, 0, 100, 5, now=0.0)
        outcome = policy.on_request(1, 2, 100, 5, now=1.0)
        assert outcome.stale and outcome.cached_after
        assert 1 in policy.ac
        assert policy.cached_version(1) == 2

    def test_push_refresh_in_both_partitions(self):
        policy = make_fp()
        policy.on_publish(1, 0, 100, 5, now=0.0)  # into PC
        assert policy.on_publish(1, 1, 100, 5, now=1.0).refreshed
        policy.on_request(2, 0, 100, 5, now=2.0)  # into AC
        assert policy.on_publish(2, 1, 100, 5, now=3.0).refreshed

    def test_page_too_big_for_ac_dropped_on_move(self):
        policy = make_fp(capacity=300, push_fraction=0.66)  # PC 198, AC 102
        policy.on_publish(1, 0, 150, 5, now=0.0)
        outcome = policy.on_request(1, 0, 150, 5, now=1.0)
        assert outcome.hit and not outcome.cached_after
        assert policy.held_version(1) is None

    def test_invariants_under_pressure(self):
        policy = make_fp(capacity=600)
        for step in range(200):
            if step % 2:
                policy.on_publish(step, 0, 60 + step % 70, step % 13, now=float(step))
            else:
                policy.on_request(step % 30, 0, 60 + (step % 30) % 70, step % 13, now=float(step))
            policy.check_invariants()


class TestDCAP:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_ap(lower_fraction=0.8, upper_fraction=0.2)
        with pytest.raises(ValueError):
            make_ap(push_fraction=0.9, lower_fraction=0.0, upper_fraction=0.5)

    def test_name_depends_on_bounds(self):
        assert make_ap().name == "dc-ap"
        assert make_lap().name == "dc-lap"

    def test_access_relabels_storage_to_ac(self):
        policy = make_ap(capacity=1000)
        policy.on_publish(1, 0, 100, 5, now=0.0)
        pc_before = policy.pc.capacity_bytes
        outcome = policy.on_request(1, 0, 100, 5, now=1.0)
        assert outcome.hit
        assert 1 in policy.ac
        assert policy.pc.capacity_bytes == pc_before - 100
        assert policy.ac.capacity_bytes == 500 + 100

    def test_donation_grows_pc_from_idle_ac(self):
        policy = make_ap(capacity=600, push_fraction=1 / 3)  # PC 200 / AC 400
        # AC: pages 1 and 2 resident, then page 3 forces a replacement
        # round that evicts page 1 — surviving page 2 becomes idle.
        policy.on_request(1, 0, 150, 1, now=0.0)
        policy.on_request(2, 0, 150, 1, now=1.0)
        policy.on_request(3, 0, 150, 1, now=2.0)  # replacement in AC
        assert policy.held_version(1) is None
        # Fill PC with a high-SUB-value page the newcomer cannot beat.
        policy.on_publish(10, 0, 200, 20, now=3.0)  # value 0.1
        # Value 0.08 < 0.1: SUB fails; idle page 2 donates its storage.
        outcome = policy.on_publish(11, 0, 100, 8, now=4.0)
        assert outcome.stored
        assert 11 in policy.pc
        assert policy.held_version(2) is None
        assert policy.pc.capacity_bytes > 200

    def test_partition_never_leaks_bytes(self):
        policy = make_ap(capacity=900)
        for step in range(300):
            if step % 3 == 0:
                policy.on_publish(step, 0, 50 + step % 80, step % 15, now=float(step))
            else:
                policy.on_request(step % 40, 0, 50 + (step % 40) % 80, step % 15, now=float(step))
            policy.check_invariants()
            assert (
                policy.pc.capacity_bytes + policy.ac.capacity_bytes
                == policy.capacity_bytes
            )

    def test_push_fraction_property(self):
        policy = make_ap(capacity=1000)
        assert policy.push_fraction == pytest.approx(0.5)
        policy.on_publish(1, 0, 100, 5, now=0.0)
        policy.on_request(1, 0, 100, 5, now=1.0)  # relabel 100 bytes to AC
        assert policy.push_fraction == pytest.approx(0.4)


class TestDCLAP:
    def test_lower_bound_blocks_relabel_and_falls_back_to_move(self):
        policy = DualCacheAdaptivePolicy(
            1000, push_fraction=0.3, lower_fraction=0.25, upper_fraction=0.75
        )
        policy.on_publish(1, 0, 100, 5, now=0.0)
        # Relabeling 100 bytes would take PC to 0.2 < 0.25: must fall
        # back to the DC-FP physical move instead.
        outcome = policy.on_request(1, 0, 100, 5, now=1.0)
        assert outcome.hit
        assert 1 in policy.ac
        assert policy.push_fraction == pytest.approx(0.3)

    def test_upper_bound_blocks_donation(self):
        policy = DualCacheAdaptivePolicy(
            600,
            push_fraction=1 / 3,
            lower_fraction=0.25,
            upper_fraction=0.4,
        )
        # Same setup as the successful donation test...
        policy.on_request(1, 0, 150, 1, now=0.0)
        policy.on_request(2, 0, 150, 1, now=1.0)
        policy.on_request(3, 0, 150, 1, now=2.0)  # replacement: page 2 idle
        policy.on_publish(10, 0, 200, 20, now=3.0)  # PC full, value 0.1
        # ...but relabeling page 2's 150 bytes would take PC to
        # 350/600 = 0.58 > 0.4: the repartition is not performed.
        outcome = policy.on_publish(11, 0, 100, 8, now=4.0)
        assert not outcome.stored
        assert policy.held_version(2) is not None  # nothing was evicted
        assert policy.push_fraction == pytest.approx(1 / 3)

    def test_bounds_hold_under_pressure(self):
        policy = make_lap(capacity=1200)
        for step in range(400):
            if step % 3 == 0:
                policy.on_publish(step, 0, 40 + step % 90, step % 17, now=float(step))
            else:
                policy.on_request(step % 50, 0, 40 + (step % 50) % 90, step % 17, now=float(step))
            policy.check_invariants()
            fraction = policy.push_fraction
            # The physical-move fallback can only shrink PC usage, not
            # its capacity; capacity fraction must stay within bounds.
            assert 0.25 - 1e-9 <= fraction <= 0.75 + 1e-9
