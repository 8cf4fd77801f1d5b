"""The block generator against the per-page loop reference.

``tests/workload/_reference.py`` holds the per-request / per-version
loops the package used to run, one page at a time.  The block code must
return the same arrays *and* leave the generators in the same state, or
every later page of a trace would shift.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rng import RandomStreams
from repro.workload import requests, servers, trace
from repro.workload.config import DAY, HOUR, WorkloadConfig
from repro.workload.trace import PageSpec
from tests.workload import _reference

HORIZON = 7 * DAY
seeds = st.integers(0, 2**31 - 1)
server_counts = st.integers(1, 120)
overlaps = st.sampled_from([0.0, 0.4, 0.6, 1.0])
gammas = st.sampled_from([0.0, 1.0, 0.5, 1.5, 2.0])


def twin_rngs(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def assert_same_state(new_rng, reference_rng):
    assert new_rng.bit_generator.state == reference_rng.bit_generator.state
    assert new_rng.random() == reference_rng.random()


def pool_sizes(server_count):
    """Pool of one server, of every server, or anything in between."""
    return st.one_of(
        st.just(1), st.just(server_count), st.integers(1, server_count)
    )


@given(st.data(), server_counts, overlaps, st.integers(1, 9), seeds)
@settings(max_examples=150, deadline=None)
def test_daily_pools_match_reference(data, server_count, overlap, day_count, seed):
    size = data.draw(pool_sizes(server_count))
    new_rng, reference_rng = twin_rngs(seed)
    pool = np.random.default_rng(seed + 1).choice(
        server_count, size=size, replace=False
    )
    new = servers.daily_pools(pool, day_count, server_count, overlap, new_rng)
    reference = _reference.daily_pools(
        pool, day_count, server_count, overlap, reference_rng
    )
    assert new.shape == (day_count, size)
    assert np.array_equal(new, np.stack(reference))
    assert_same_state(new_rng, reference_rng)


@given(
    st.data(),
    server_counts,
    overlaps,
    st.sampled_from([0.5 * DAY, 8 * DAY]),
    st.integers(0, 300),
    seeds,
)
@settings(max_examples=150, deadline=None)
def test_assign_servers_match_reference(
    data, server_count, overlap, span, count, seed
):
    # popularity 0 gives a one-server pool, popularity == max every server.
    max_popularity = 1000.0
    popularity = data.draw(
        st.one_of(
            st.just(0.0), st.just(max_popularity), st.floats(0.0, max_popularity)
        )
    )
    first_publish = data.draw(st.floats(0.0, HORIZON))
    times = first_publish + np.sort(
        np.random.default_rng(seed + 1).uniform(0.0, span, size=count)
    )
    new_rng, reference_rng = twin_rngs(seed)
    size = servers.pool_size(popularity, max_popularity, server_count)
    new = servers.assign_servers(
        times, [count], [first_publish], [size], server_count, overlap, new_rng
    )
    reference = _reference.assign_servers(
        times, first_publish, popularity, max_popularity, server_count, overlap,
        rng=reference_rng,
    )
    assert new.dtype == reference.dtype
    assert np.array_equal(new, reference)
    assert_same_state(new_rng, reference_rng)


@st.composite
def version_schedules(draw):
    """1–40 publication times; some schedules run up to or past the horizon."""
    first = draw(st.floats(0.0, HORIZON))
    extra = draw(st.integers(0, 39))
    interval = draw(st.sampled_from([10 * 60.0, HOUR, 7 * HOUR, DAY, 3.5 * DAY]))
    times = first + interval * np.arange(extra + 1)
    if draw(st.booleans()):
        times = np.append(times, [HORIZON, HORIZON + HOUR])
    return times


@given(
    st.integers(0, 400),
    version_schedules(),
    gammas,
    st.booleans(),
    st.sampled_from(["exponential", "power"]),
    seeds,
)
@settings(max_examples=250, deadline=None)
def test_request_times_for_versions_match_reference(
    count, version_times, gamma, story_decay, mode, seed
):
    new_rng, reference_rng = twin_rngs(seed)
    options = dict(
        story_decay=story_decay,
        story_decay_mode=mode,
        story_decay_exponent=0.7,
        story_halflife_hours=12.0,
    )
    # A page with no request or no live version is never in a block.
    live = version_times[version_times < HORIZON]
    new = np.zeros(0)
    if count and len(live):
        new = requests.request_times(
            [count], [len(live)], live, [gamma], HORIZON, new_rng, **options
        )
    reference = _reference.request_times_for_versions(
        count, version_times, HORIZON, gamma, reference_rng, **options
    )
    # bit for bit: tobytes also tells -0.0 from 0.0 and compares NaNs
    assert new.tobytes() == reference.tobytes()
    assert_same_state(new_rng, reference_rng)


@given(st.integers(0, 400), st.floats(0.0, 8 * DAY), gammas, seeds)
@settings(max_examples=150, deadline=None)
def test_request_times_for_page_match_reference(count, first_publish, gamma, seed):
    new_rng, reference_rng = twin_rngs(seed)
    new = np.zeros(0)
    if count and first_publish < HORIZON:
        new = requests.request_times(
            [count], [1], [first_publish], [gamma], HORIZON, new_rng
        )
    reference = _reference.request_times_for_page(
        count, first_publish, HORIZON, gamma, reference_rng
    )
    assert new.tobytes() == reference.tobytes()
    assert_same_state(new_rng, reference_rng)


@st.composite
def page_lists(draw):
    """1–10 pages in id order, mixing zero-count pages, pages with no
    version before the horizon, and single- and multi-version pages."""
    pages, version_times = [], []
    for page_id in range(draw(st.integers(1, 10))):
        count = draw(st.one_of(st.just(0), st.integers(1, 150)))
        first = draw(st.one_of(st.floats(0.0, HORIZON), st.just(HORIZON)))
        extra = draw(st.sampled_from([0, 0, 1, 4, 30]))
        interval = draw(st.sampled_from([10 * 60.0, HOUR, DAY, 3.5 * DAY]))
        times = [first + interval * k for k in range(extra + 1)]
        pages.append(
            PageSpec(page_id, 1024, page_id + 1, draw(st.integers(0, 3)), count,
                     first, interval if extra else 0.0, len(times))
        )
        version_times.append(times)
    return pages, version_times


def reference_columns(config, streams, pages, version_times):
    """The per-page loop the trace ran before blocks, on the loop reference."""
    request_rng = streams.stream("workload.requests")
    server_rng = streams.stream("workload.servers")
    max_count = max(1, max(page.request_count for page in pages))
    columns = []
    for page in pages:
        count = page.request_count
        if count == 0:
            continue
        gamma = config.age_exponents[page.popularity_class]
        if config.age_from_latest_version:
            times = _reference.request_times_for_versions(
                count, version_times[page.page_id], config.horizon, gamma, request_rng,
                story_decay=config.story_decay,
                story_decay_mode=config.story_decay_mode,
                story_decay_exponent=config.story_decay_exponent,
                story_halflife_hours=config.story_halflife_hours,
            )
        else:
            times = _reference.request_times_for_page(
                count, page.first_publish, config.horizon, gamma, request_rng
            )
        if len(times) == 0:
            continue
        servers = _reference.assign_servers(
            times, page.first_publish, count, max_count, config.server_count,
            config.pool_overlap, server_rng, exponent=config.pool_exponent,
        )
        columns.append((times, servers.astype(np.int32), np.full(count, page.page_id, np.int32)))
    return columns


def joined(columns, field):
    return b"".join(column[field].tobytes() for column in columns)


@pytest.mark.parametrize("chunk_rows", [trace.CHUNK_ROWS, 1, 10**9])
@given(
    page_lists(),
    st.tuples(*[st.sampled_from([0.0, 1.0, 0.5, 2.0, 1.5])] * 4),
    st.booleans(),
    st.booleans(),
    st.sampled_from(["exponential", "power"]),
    st.integers(1, 40),
    overlaps,
    seeds,
)
@settings(max_examples=40, deadline=None)
def test_block_generator_matches_reference_page_by_page(
    chunk_rows, page_list, gammas, from_latest_version, story_decay, mode,
    server_count, overlap, seed,
):
    pages, version_times = page_list
    config = WorkloadConfig(
        horizon=HORIZON,
        distinct_pages=len(pages),
        modified_pages=0,
        server_count=server_count,
        age_exponents=gammas,
        age_from_latest_version=from_latest_version,
        story_decay=story_decay,
        story_decay_mode=mode,
        story_decay_exponent=0.7,
        story_halflife_hours=12.0,
        pool_overlap=overlap,
    )
    new_streams, reference_streams = RandomStreams(seed), RandomStreams(seed)
    with mock.patch.object(trace, "CHUNK_ROWS", chunk_rows):
        new = list(trace._request_columns(config, new_streams, pages, version_times))
    reference = reference_columns(config, reference_streams, pages, version_times)
    for field in range(3):  # times, servers, page ids
        assert joined(new, field) == joined(reference, field)
    for name in ("workload.requests", "workload.servers"):
        assert_same_state(new_streams.stream(name), reference_streams.stream(name))
