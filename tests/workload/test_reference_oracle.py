"""The columnar per-page interior against the loop reference.

``tests/workload/_reference.py`` holds the per-request / per-version
loops the package used to run.  The vectorised code must return the
same arrays *and* leave the generator in the same state, or every later
page of a trace would shift.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload import requests, servers
from repro.workload.config import DAY, HOUR
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
    arguments = (times, first_publish, popularity, max_popularity, server_count, overlap)
    new = servers.assign_servers(*arguments, rng=new_rng)
    reference = _reference.assign_servers(*arguments, rng=reference_rng)
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
    new = requests.request_times_for_versions(
        count, version_times, HORIZON, gamma, new_rng, **options
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
    new = requests.request_times_for_page(
        count, first_publish, HORIZON, gamma, new_rng
    )
    reference = _reference.request_times_for_page(
        count, first_publish, HORIZON, gamma, reference_rng
    )
    assert new.tobytes() == reference.tobytes()
    assert_same_state(new_rng, reference_rng)
