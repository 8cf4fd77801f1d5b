"""Tests for request-time sampling and server assignment."""

import numpy as np
import pytest

from repro.sim.rng import RandomStreams
from repro.workload.config import DAY, HOUR, WorkloadConfig
from repro.workload.requests import request_times
from repro.workload.servers import assign_servers, daily_pools, pool_size
from repro.workload.trace import PageSpec, _request_columns


def rng(seed=0):
    return np.random.default_rng(seed)


def sample_ages(count, max_age, gamma, generator):
    """Ages of ``count`` requests to a page published ``max_age`` before the horizon."""
    return request_times([count], [1], [0.0], [gamma], max_age, generator)


def page_times(count, versions, horizon, gamma, generator, **options):
    """One page's request times: a block of one page."""
    return request_times(
        [count], [len(versions)], versions, [gamma], horizon, generator, **options
    )


def page_servers(
    times, first_publish, popularity, max_popularity, server_count, overlap, generator
):
    """One page's server ids: a block of one page."""
    size = pool_size(popularity, max_popularity, server_count)
    return assign_servers(
        times, [len(times)], [first_publish], [size], server_count, overlap, generator
    )


class TestSampleAges:
    def test_bounds(self):
        ages = sample_ages(1000, 10 * HOUR, 1.5, rng())
        assert ages.min() >= 0.0
        assert ages.max() <= 10 * HOUR

    def test_zero_count(self):
        assert len(sample_ages(0, HOUR, 1.0, rng())) == 0

    def test_zero_window(self):
        ages = sample_ages(10, 0.0, 1.0, rng())
        assert np.all(ages == 0.0)

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            sample_ages(10, -1.0, 1.0, rng())

    def test_gamma_zero_is_uniform(self):
        ages = sample_ages(20_000, 10 * HOUR, 0.0, rng(1))
        assert np.mean(ages) == pytest.approx(5 * HOUR, rel=0.05)

    def test_stronger_gamma_concentrates_early(self):
        gentle = sample_ages(20_000, 100 * HOUR, 0.5, rng(2))
        steep = sample_ages(20_000, 100 * HOUR, 2.0, rng(2))
        assert np.median(steep) < np.median(gentle)

    def test_gamma_one_logarithmic_case(self):
        ages = sample_ages(20_000, 100 * HOUR, 1.0, rng(3))
        # median of CDF ln(1+x)/ln(1+A): x_med = sqrt(1+A)-1 hours
        expected = (np.sqrt(101.0) - 1.0) * HOUR
        assert np.median(ages) == pytest.approx(expected, rel=0.1)


class TestRequestTimes:
    def test_times_after_first_publish(self):
        times = page_times(500, [2 * DAY], 7 * DAY, 1.5, rng())
        assert times.min() >= 2 * DAY
        assert times.max() <= 7 * DAY
        assert np.all(np.diff(times) >= 0)

    def test_page_published_at_horizon_gets_no_requests(self):
        page = PageSpec(0, 1024, 1, 0, 10, 7 * DAY, 0.0, 1)
        for from_latest_version in (True, False):
            config = WorkloadConfig(
                distinct_pages=1,
                modified_pages=0,
                age_from_latest_version=from_latest_version,
            )
            columns = _request_columns(config, RandomStreams(0), [page], [[7 * DAY]])
            assert len([row for times, _, _ in columns for row in times]) == 0

    def test_version_relative_times_cover_versions(self):
        versions = np.array([0.0, 1 * DAY, 2 * DAY, 3 * DAY])
        times = page_times(
            5000, versions, 7 * DAY, 1.0, rng(), story_decay=False
        )
        # with uniform version choice, later versions draw requests too
        assert (times > 2 * DAY).sum() > 500

    def test_story_decay_concentrates_on_early_versions(self):
        versions = np.arange(0.0, 6 * DAY, 6 * HOUR)
        uniform = page_times(
            20_000, versions, 7 * DAY, 1.0, rng(4), story_decay=False
        )
        decayed = page_times(
            20_000, versions, 7 * DAY, 1.0, rng(4),
            story_decay=True, story_decay_mode="exponential",
            story_halflife_hours=12.0,
        )
        assert np.median(decayed) < np.median(uniform)

    def test_power_mode_heavier_tail_than_exponential(self):
        versions = np.arange(0.0, 6 * DAY, 6 * HOUR)
        power = page_times(
            20_000, versions, 7 * DAY, 1.0, rng(5),
            story_decay_mode="power", story_decay_exponent=0.5,
        )
        exponential = page_times(
            20_000, versions, 7 * DAY, 1.0, rng(5),
            story_decay_mode="exponential", story_halflife_hours=12.0,
        )
        assert np.quantile(power, 0.9) > np.quantile(exponential, 0.9)

    @pytest.mark.parametrize(
        "options",
        [
            dict(story_halflife_hours=float("nan")),
            dict(story_decay_mode="power", story_decay_exponent=float("nan")),
        ],
    )
    def test_non_finite_story_weights_are_rejected(self, options):
        versions = np.array([0.0, HOUR, 2 * HOUR])
        with pytest.raises(ValueError, match="story weights"):
            page_times(10, versions, DAY, 1.0, rng(), **options)

    def test_single_version_equivalent_to_page_sampling(self):
        times = page_times(1000, [DAY], 7 * DAY, 1.5, rng(6))
        assert times.min() >= DAY
        assert len(times) == 1000


class TestServerSplit:
    def test_pool_size_eq6(self):
        assert pool_size(100.0, 100.0, 100) == 100
        assert pool_size(25.0, 100.0, 100) == 50  # sqrt(0.25)=0.5
        assert pool_size(1.0, 100.0, 100) == 10
        assert pool_size(0.0, 100.0, 100) == 1  # floor at one server
        assert pool_size(5.0, 0.0, 100) == 1

    def test_daily_pools_overlap(self):
        pool = np.arange(10)
        pools = daily_pools(pool, 7, 100, overlap=0.6, rng=rng())
        for today, tomorrow in zip(pools, pools[1:]):
            assert len(tomorrow) == 10
            kept = len(set(today.tolist()) & set(tomorrow.tolist()))
            assert kept == 6  # exactly 60 % overlap

    def test_daily_pools_full_coverage_cannot_rotate(self):
        pool = np.arange(5)
        pools = daily_pools(pool, 3, 5, overlap=0.6, rng=rng())
        for daily in pools:
            assert set(daily.tolist()) == set(range(5))

    def test_assign_servers_within_pool_budget(self):
        times = np.sort(rng(1).uniform(0, DAY, size=200))
        servers = page_servers(
            times, 0.0, popularity=25.0, max_popularity=100.0,
            server_count=100, overlap=0.6, generator=rng(2),
        )
        assert len(set(servers.tolist())) <= 50  # S_i = 50 for one day

    def test_assign_servers_rotation_expands_coverage(self):
        times = np.sort(rng(3).uniform(0, 7 * DAY, size=2000))
        servers = page_servers(
            times, 0.0, popularity=1.0, max_popularity=100.0,
            server_count=100, overlap=0.6, generator=rng(4),
        )
        used = len(set(servers.tolist()))
        day_pool = pool_size(1.0, 100.0, 100)
        assert used > day_pool  # rotation brought new servers in

    def test_assign_servers_empty(self):
        servers = page_servers(np.zeros(0), 0.0, 1.0, 1.0, 10, 0.6, rng())
        assert len(servers) == 0
