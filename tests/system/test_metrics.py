"""Tests for SimulationResult, HourlySeries and the conservation laws."""

import copy
import dataclasses

import pytest

from repro.system.metrics import HourlySeries, SimulationResult, check_result
from tests.system.test_layer_matrix import (
    CRASHES,
    DELIVERY,
    LAYERS,
    churned,  # noqa: F401 - fixture
    config_for,
    workload,  # noqa: F401 - fixture
)


def make_result(**overrides):
    fields = dict(
        strategy="sg2",
        trace_label="news",
        capacity_fraction=0.05,
        subscription_quality=1.0,
        pushing_scheme="when-necessary",
        requests=100,
        hits=60,
        stale_hits=5,
        push_transfers=30,
        push_bytes=3000,
        fetch_pages=40,
        fetch_bytes=4000,
        hour_count=3,
        hourly_requests=[50, 30, 20],
        hourly_hits=[40, 15, 5],
        hourly_push_pages=[10, 10, 10],
        hourly_fetch_pages=[10, 20, 10],
        hourly_push_bytes=[1000, 1000, 1000],
        hourly_fetch_bytes=[1000, 2000, 1000],
    )
    fields.update(overrides)
    return SimulationResult(**fields)


def test_hit_ratio():
    assert make_result().hit_ratio == pytest.approx(0.6)
    assert make_result(requests=0, hits=0).hit_ratio == 0.0


def test_traffic_totals():
    result = make_result()
    assert result.traffic_pages == 70
    assert result.traffic_bytes == 7000


def test_hourly_hit_ratio():
    result = make_result()
    assert result.hourly_hit_ratio() == [
        pytest.approx(0.8),
        pytest.approx(0.5),
        pytest.approx(0.25),
    ]


def test_hourly_hit_ratio_empty_hour():
    result = make_result(hourly_requests=[0, 30, 20], hourly_hits=[0, 15, 5])
    assert result.hourly_hit_ratio()[0] == 0.0


def test_hourly_traffic():
    result = make_result()
    assert result.hourly_traffic_pages() == [20, 30, 20]
    assert result.hourly_traffic_bytes() == [2000, 3000, 2000]


def test_summary_mentions_key_fields():
    text = make_result().summary()
    assert "sg2" in text
    assert "news" in text
    assert "60.00%" in text


def test_hourly_series():
    series = HourlySeries()
    series.add(0, 1.0)
    series.add(0, 2.0)
    series.add(4, 5.0)
    assert series.dense(6) == [3.0, 0.0, 0.0, 0.0, 5.0, 0.0]


def test_mean_response_time():
    result = make_result(total_response_time=2.0)
    assert result.mean_response_time == pytest.approx(0.02)
    assert make_result(requests=0, hits=0).mean_response_time == 0.0


def test_summary_includes_response_time():
    assert "rt=" in make_result(total_response_time=2.0).summary()


def test_hourly_series_clamps_horizon_boundary():
    # An event landing at exactly hour_count (e.g. a backed-off retry
    # resolving right at the end of the run) must not be dropped: it
    # folds into the final bucket so all hourly lists share one length.
    series = HourlySeries()
    series.add(0, 1.0)
    series.add(3, 7.0)  # == hour_count
    series.add(5, 2.0)  # beyond the horizon
    assert series.dense(3) == [1.0, 0.0, 9.0]


def test_hourly_series_clamps_negative_hours():
    series = HourlySeries()
    series.add(-2, 4.0)
    series.add(1, 1.0)
    assert series.dense(2) == [4.0, 1.0]


def test_hourly_series_empty_horizon():
    series = HourlySeries()
    series.add(0, 1.0)
    assert series.dense(0) == []
    assert series.dense(-1) == []


def test_dense_clamped_matches_series():
    from repro.system.metrics import dense_clamped

    assert dense_clamped({0: 1.0, 9: 2.0}, 4) == [1.0, 0.0, 0.0, 2.0]
    assert dense_clamped({}, 2) == [0.0, 0.0]


# ---------------------------------------------------------------------------
# check_result: the conservation laws
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def layered(workload, churned):
    """``(result, request count)`` of one run with all five layers armed
    and no injected duplicate copies, so the notification law is exact."""
    from repro.faults.spec import ChaosSpec
    from repro.system.cooperation import CooperativeSimulation

    config = dataclasses.replace(
        config_for(set(LAYERS)),
        chaos=ChaosSpec(**CRASHES, **{**DELIVERY, "delivery_duplicate_probability": 0.0}),
    )
    return CooperativeSimulation(churned, config).run(), workload.request_count


def test_a_real_layered_run_balances(layered):
    result, requests = layered
    assert check_result(result, requests) == []
    # Every layer's books are non-trivial, so the laws above bit.
    assert result.failed_requests and result.degraded_requests
    assert result.lifecycle_events and result.overload_pushes_shed
    # With no duplicate copies injected every notification has one fate.
    assert result.notifications_sent == (
        result.notifications_delivered
        + result.notifications_lost
        + result.duplicate_notifications
        + result.overload_pushes_shed
    )


@pytest.mark.parametrize(
    "field, law",
    [
        ("requests", "requests == the trace's request count"),
        ("hits", "sum(hourly_hits) == hits"),
        ("hits", "sum(per_proxy.hits) == hits"),
        ("hits", "sum(per_proxy.requests) == hits + sum(per_proxy.pages_fetched)"),
        ("push_transfers", "sum(hourly_push_pages) == push_transfers"),
        ("push_transfers", "push_transfers == sum(per_proxy.pages_pushed_stored)"),
        ("fetch_pages", "sum(hourly_fetch_pages) == fetch_pages"),
        ("failed_requests", "sum(hourly_failed) == failed_requests"),
        ("degraded_requests", "sum(hourly_degraded) == degraded_requests"),
        ("leases_renewed", "lifecycle_events == leases granted + renewed + unsubscribed"),
        (
            "notifications_sent",
            "notifications_sent <= delivered + lost + duplicates + pushes shed "
            "<= 2 * notifications_sent",
        ),
    ],
)
def test_a_counter_off_by_one_breaks_a_named_law(layered, field, law):
    result, requests = layered
    bent = copy.copy(result)
    setattr(bent, field, getattr(result, field) + 1)
    assert law in check_result(bent, requests)


def test_unserved_requests_are_failed_or_degraded(layered):
    result, requests = layered
    law = (
        "failed_requests <= requests - sum(per_proxy.requests) "
        "<= failed_requests + degraded_requests"
    )
    unserved = requests - sum(stats.requests for stats in result.per_proxy)
    too_many_failed = copy.copy(result)
    too_many_failed.failed_requests = unserved + 1
    too_many_failed.hourly_failed = [unserved + 1]
    assert check_result(too_many_failed, requests) == [law]
    # A vanilla result has no failed or degraded books: every request
    # must have reached a policy.
    vanilla = copy.copy(result)
    vanilla.failed_requests = vanilla.degraded_requests = 0
    vanilla.hourly_failed = vanilla.hourly_degraded = []
    assert check_result(vanilla, requests) == [law]


def test_shed_and_rejected_jobs_were_arrivals(layered):
    result, requests = layered
    bent = copy.copy(result)
    bent.overload_arrivals = result.overload_pushes_shed + result.overload_pulls_rejected - 1
    assert check_result(bent, requests) == [
        "overload_arrivals >= pushes shed + pulls rejected"
    ]
