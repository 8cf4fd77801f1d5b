"""Tests for workload assembly and the Workload container."""

import dataclasses
import json

import numpy as np
import pytest

from repro.sim.rng import RandomStreams
from repro.workload.churn import ChurnSpec
from repro.workload.config import DAY, HOUR, WorkloadConfig
from repro.workload.presets import alternative_config, make_trace, news_config
from repro.workload.trace import Workload, generate_workload


@pytest.fixture(scope="module")
def small_trace():
    return generate_workload(
        news_config(scale=0.05), RandomStreams(3), label="news"
    )


def test_counts_match_config(small_trace):
    config = small_trace.config
    assert len(small_trace.pages) == config.distinct_pages
    assert small_trace.request_count == config.total_requests
    assert small_trace.publish_count >= config.distinct_pages


def test_streams_are_time_sorted(small_trace):
    publish_times = [event.time for event in small_trace.publishes]
    request_times = [record.time for record in small_trace.requests]
    assert publish_times == sorted(publish_times)
    assert request_times == sorted(request_times)


def test_requests_never_precede_first_publication(small_trace):
    first_publish = {page.page_id: page.first_publish for page in small_trace.pages}
    for record in small_trace.requests:
        assert record.time >= first_publish[record.page_id] - 1e-9


def test_versions_ordered_per_page(small_trace):
    last_version = {}
    for event in small_trace.publishes:
        expected = last_version.get(event.page_id, -1) + 1
        assert event.version == expected
        last_version[event.page_id] = event.version


def test_request_pairs_cached(small_trace):
    pairs = small_trace.request_pairs()
    assert len(pairs) == small_trace.request_count
    assert small_trace.request_pairs() is pairs


def test_request_pairs_memo_not_shared_by_replace_copies(small_trace):
    """A ``dataclasses.replace`` copy with different requests must not
    inherit the original's memoized pairs (regression: the memo used to
    be an init field, so copies carried a stale list)."""
    small_trace.request_pairs()  # populate the memo
    copy = dataclasses.replace(
        small_trace, requests=small_trace.requests[: 10]
    )
    pairs = copy.request_pairs()
    assert len(pairs) == 10
    assert pairs == [
        (record.page_id, record.server_id) for record in copy.requests
    ]


def test_server_ids_in_range(small_trace):
    for record in small_trace.requests:
        assert 0 <= record.server_id < small_trace.config.server_count


def test_version_at(small_trace):
    page = next(p for p in small_trace.pages if p.modification_interval > 0)
    assert small_trace.version_at(page.page_id, page.first_publish) == 0
    late = page.first_publish + 1.5 * page.modification_interval
    assert small_trace.version_at(page.page_id, late) == 1
    assert (
        small_trace.version_at(page.page_id, small_trace.config.horizon * 2)
        == page.version_count - 1
    )
    unmodified = next(p for p in small_trace.pages if p.modification_interval == 0)
    assert small_trace.version_at(unmodified.page_id, 1e12) == 0


def test_unique_bytes_and_capacities(small_trace):
    unique = small_trace.unique_bytes_per_server()
    capacities = small_trace.capacities(0.05)
    assert len(capacities) == small_trace.config.server_count
    for server, total in unique.items():
        assert capacities[server] == max(1, int(total * 0.05))
    with pytest.raises(ValueError):
        small_trace.capacities(0.0)


def test_unique_bytes_match_per_request_loop(small_trace):
    """The one pass over distinct pairs against the per-request loop it replaced."""
    sizes = {page.page_id: page.size for page in small_trace.pages}
    seen = {}
    for record in small_trace.requests:
        seen.setdefault(record.server_id, set()).add(record.page_id)
    reference = {
        server: sum(sizes[page_id] for page_id in pages)
        for server, pages in seen.items()
    }
    assert small_trace.unique_bytes_per_server() == reference
    for fraction in (0.01, 0.05, 1.0):
        mean_bytes = sum(reference.values()) / len(reference)
        expected = {
            server: max(1, int(reference.get(server, mean_bytes) * fraction))
            for server in range(small_trace.config.server_count)
        }
        assert small_trace.capacities(fraction) == expected


def test_capacity_for_silent_server():
    config = dataclasses.replace(
        news_config(scale=0.02), server_count=50
    )
    trace = generate_workload(config, RandomStreams(1))
    capacities = trace.capacities(0.05)
    assert len(capacities) == 50
    assert all(value >= 1 for value in capacities.values())


def test_to_json_equals_asdict_form(small_trace):
    """Field-by-field event dicts serialize byte for byte like ``asdict``."""
    churned = small_trace.with_churn(
        ChurnSpec(churn_rate=2.0, lease_duration=2 * HOUR, renew_probability=0.6),
        RandomStreams(3).stream("workload.churn"),
    )
    assert churned.lifecycle
    for workload in (small_trace, churned):
        payload = {
            "label": workload.label,
            "config": dataclasses.asdict(workload.config),
            "pages": [dataclasses.asdict(page) for page in workload.pages],
            "publishes": [dataclasses.asdict(event) for event in workload.publishes],
            "requests": [dataclasses.asdict(record) for record in workload.requests],
        }
        if workload.lifecycle:
            payload["lifecycle"] = [
                dataclasses.asdict(event) for event in workload.lifecycle
            ]
        if workload.churn is not None:
            payload["churn"] = dataclasses.asdict(workload.churn)
        assert workload.to_json() == json.dumps(payload)


def test_json_roundtrip(small_trace):
    text = small_trace.to_json()
    restored = Workload.from_json(text)
    assert restored.config == small_trace.config
    assert restored.pages == small_trace.pages
    assert restored.publishes == small_trace.publishes
    assert restored.requests == small_trace.requests
    assert restored.label == small_trace.label


def test_generation_is_deterministic():
    a = generate_workload(news_config(scale=0.02), RandomStreams(5))
    b = generate_workload(news_config(scale=0.02), RandomStreams(5))
    assert a.pages == b.pages
    assert a.requests == b.requests
    assert a.publishes == b.publishes


def test_different_seeds_differ():
    a = generate_workload(news_config(scale=0.02), RandomStreams(5))
    b = generate_workload(news_config(scale=0.02), RandomStreams(6))
    assert a.requests != b.requests


def test_presets():
    assert news_config().zipf_alpha == 1.5
    assert alternative_config().zipf_alpha == 1.0
    assert news_config(0.1).distinct_pages == 600
    with pytest.raises(KeyError):
        make_trace("bogus")


def test_make_trace_labels():
    trace = make_trace("alternative", scale=0.02, seed=1)
    assert trace.label == "alternative"
    assert trace.config.zipf_alpha == 1.0


def test_age_from_first_publication_mode():
    config = dataclasses.replace(
        news_config(scale=0.02), age_from_latest_version=False
    )
    trace = generate_workload(config, RandomStreams(2))
    assert trace.request_count == config.total_requests
