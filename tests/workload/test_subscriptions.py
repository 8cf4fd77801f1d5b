"""Tests for eq. 7 subscription generation."""

import numpy as np
import pytest

from repro.workload.subscriptions import (
    MIN_QUALITY,
    build_match_counts,
    sample_quality,
)


def rng(seed=0):
    return np.random.default_rng(seed)


class TestSampleQuality:
    def test_sq_one_is_exact(self):
        qualities = sample_quality(1.0, 100, rng())
        assert np.all(qualities == 1.0)

    def test_high_sq_range(self):
        qualities = sample_quality(0.75, 10_000, rng())
        assert qualities.min() >= 0.5
        assert qualities.max() <= 1.0

    def test_low_sq_range(self):
        qualities = sample_quality(0.25, 10_000, rng())
        assert qualities.min() >= MIN_QUALITY
        assert qualities.max() <= 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_quality(0.0, 10, rng())
        with pytest.raises(ValueError):
            sample_quality(1.5, 10, rng())


class TestBuildMatchCounts:
    def test_sq_one_equals_request_counts(self):
        pairs = [(1, 0)] * 5 + [(1, 2)] * 3 + [(7, 0)] * 2
        table = build_match_counts(pairs, 1.0, rng())
        assert table == {1: {0: 5, 2: 3}, 7: {0: 2}}

    def test_lower_sq_means_more_subscriptions(self):
        pairs = [(1, 0)] * 100
        exact = build_match_counts(pairs, 1.0, rng(1))[1][0]
        inflated = build_match_counts(pairs, 0.5, rng(1))[1][0]
        assert inflated > exact

    def test_counts_at_least_one_for_requested_pairs(self):
        pairs = [(1, 0), (2, 1)]
        table = build_match_counts(pairs, 0.25, rng(2))
        assert table[1][0] >= 1
        assert table[2][1] >= 1

    def test_empty_pairs(self):
        assert build_match_counts([], 1.0, rng()) == {}

    def test_deterministic_given_stream(self):
        pairs = [(i % 10, i % 4) for i in range(500)]
        a = build_match_counts(pairs, 0.5, rng(9))
        b = build_match_counts(pairs, 0.5, rng(9))
        assert a == b

    def test_notified_fraction_shrinks_footprint(self):
        pairs = [(1, 0)] * 1000
        full = build_match_counts(pairs, 1.0, rng(3))
        partial = build_match_counts(pairs, 1.0, rng(3), notified_fraction=0.3)
        assert partial[1][0] < full[1][0]

    def test_notified_fraction_zero_empties_table(self):
        pairs = [(1, 0)] * 10
        assert build_match_counts(pairs, 1.0, rng(), notified_fraction=0.0) == {}

    def test_notified_fraction_validation(self):
        with pytest.raises(ValueError):
            build_match_counts([], 1.0, rng(), notified_fraction=1.5)

    def test_inverse_quality_scaling(self):
        """S ~ P/SQ on average (eq. 7)."""
        pairs = [(page, 0) for page in range(2000) for _ in range(10)]
        table = build_match_counts(pairs, 0.5, rng(4))
        counts = [table[page][0] for page in range(2000)]
        # mean of 10/U(0.05,1.0) ... wide, but must exceed 10/0.5 trivially
        assert 15 < np.mean(counts) < 90
