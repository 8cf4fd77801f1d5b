"""Tests for page sizes and the popularity model."""

import numpy as np
import pytest

from repro.workload.config import WorkloadConfig
from repro.workload.popularity import (
    assign_ranks,
    class_boundaries,
    class_of_ranks,
    popularity_model,
    request_counts,
    zipf_weights,
)
from repro.workload.sizes import generate_sizes


def lognormal_mean(mu, sigma):
    """The log-normal's analytic mean: the oracle for the generated sizes."""
    return float(np.exp(mu + sigma**2 / 2.0))


def lognormal_median(mu, sigma):
    """The log-normal's analytic median."""
    return float(np.exp(mu))


def rng(seed=0):
    return np.random.default_rng(seed)


class TestSizes:
    def test_count_and_bounds(self):
        config = WorkloadConfig().scaled(0.2)
        sizes = generate_sizes(config, rng())
        assert len(sizes) == config.distinct_pages
        assert sizes.min() >= config.min_page_size
        assert sizes.max() <= config.max_page_size

    def test_median_close_to_analytic(self):
        config = WorkloadConfig()  # 6000 pages
        sizes = generate_sizes(config, rng(1))
        expected = lognormal_median(config.size_mu, config.size_sigma)
        assert np.median(sizes) == pytest.approx(expected, rel=0.15)

    def test_mean_close_to_analytic(self):
        config = WorkloadConfig()
        sizes = generate_sizes(config, rng(2))
        expected = lognormal_mean(config.size_mu, config.size_sigma)
        assert sizes.mean() == pytest.approx(expected, rel=0.3)

    def test_analytic_helpers(self):
        assert lognormal_median(9.357, 1.318) == pytest.approx(11580, rel=0.01)
        assert lognormal_mean(9.357, 1.318) == pytest.approx(27580, rel=0.01)


class TestZipf:
    def test_weights_normalized_and_decreasing(self):
        weights = zipf_weights(100, 1.5)
        assert weights.sum() == pytest.approx(1.0)
        assert all(weights[:-1] >= weights[1:])

    def test_alpha_controls_skew(self):
        steep = zipf_weights(1000, 1.5)
        flat = zipf_weights(1000, 1.0)
        assert steep[0] > flat[0]

    def test_weights_validation(self):
        with pytest.raises(ValueError):
            zipf_weights(0, 1.5)

    def test_ranks_are_permutation(self):
        ranks = assign_ranks(50, rng())
        assert sorted(ranks) == list(range(1, 51))

    def test_request_counts_sum(self):
        weights = zipf_weights(200, 1.5)
        counts = request_counts(10_000, weights, rng())
        assert counts.sum() == 10_000

    def test_request_counts_follow_weights(self):
        weights = zipf_weights(50, 1.5)
        counts = request_counts(100_000, weights, rng())
        assert counts[0] == pytest.approx(100_000 * weights[0], rel=0.1)


class TestClasses:
    def test_boundaries_shape(self):
        weights = zipf_weights(1000, 1.5)
        boundaries = class_boundaries(weights, 4, 10.0)
        assert len(boundaries) == 4
        assert boundaries[0] == 0
        assert all(boundaries[:-1] < boundaries[1:])

    def test_class_aggregate_rates_decay(self):
        weights = zipf_weights(6000, 1.5)
        boundaries = class_boundaries(weights, 4, 10.0)
        classes = class_of_ranks(6000, boundaries)
        masses = [weights[classes == k].sum() for k in range(4)]
        for first, second in zip(masses, masses[1:]):
            ratio = first / second
            assert 3.0 < ratio < 30.0  # about one order of magnitude

    def test_every_class_nonempty(self):
        weights = zipf_weights(100, 1.0)
        boundaries = class_boundaries(weights, 4, 10.0)
        classes = class_of_ranks(100, boundaries)
        assert set(classes) == {0, 1, 2, 3}

    def test_validation(self):
        weights = zipf_weights(10, 1.5)
        with pytest.raises(ValueError):
            class_boundaries(weights, 0, 10.0)
        with pytest.raises(ValueError):
            class_boundaries(weights, 4, 1.0)
        with pytest.raises(ValueError):
            class_boundaries(weights, 20, 10.0)


class TestPopularityModel:
    def test_full_model_consistency(self):
        ranks, counts, classes = popularity_model(500, 1.5, 50_000, 4, 10.0, rng())
        assert counts.sum() == 50_000
        assert sorted(ranks) == list(range(1, 501))
        # rank 1 must be in class 0
        top_page = int(np.argmin(ranks))
        assert classes[top_page] == 0
        # counts decrease with rank on average: top rank beats median rank
        assert counts[top_page] > np.median(counts)
