"""The columnar churn generator against the record-based reference.

``tests/workload/_reference.py::generate_churn`` is the generator as it
was while the lifecycle stream was a list of ``LifecycleRecord`` objects
sorted through a Python key function.  The package's generator appends
scalars to columns and sorts once with ``lexsort``; it must return the
same events in the same order *and* leave the generator in the same
state (the draws interleave data-dependently, so one extra or missing
draw shifts every later subscriber).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload.churn import (
    MAX_EVENTS_PER_SUBSCRIBER,
    ChurnSpec,
    LifecycleRecord,
    generate_churn,
)
from repro.workload.config import DAY, HOUR
from tests.workload import _reference

seeds = st.integers(0, 2**31 - 1)
#: Unsorted, duplicated and possibly empty ``(page_id, server_id)`` cells.
pair_lists = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 4)), min_size=0, max_size=8
)
#: Down to shorter than the shortest lease floor below.
horizons = st.sampled_from([30.0, 10 * 60.0, HOUR, 6 * HOUR, DAY])
specs = st.builds(
    ChurnSpec,
    churn_rate=st.sampled_from([0.0, 0.5, 2.0, 24.0]),
    lease_duration=st.sampled_from([10 * 60.0, HOUR, 3 * HOUR]),
    # Below, at and above every lease_duration: above, each lease is the floor.
    lease_min=st.sampled_from([60.0, 10 * 60.0, 2 * HOUR, 4 * HOUR]),
    renew_probability=st.sampled_from([0.0, 0.5, 1.0]),
    resubscribe_delay=st.sampled_from([60.0, HOUR]),
)


def assert_same_stream(pairs, horizon, spec, seed):
    new_rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    new = generate_churn(pairs, horizon, spec, new_rng)
    reference = _reference.generate_churn(pairs, horizon, spec, reference_rng)
    assert len(new) == len(reference)
    assert list(new) == reference  # record for record, kinds as strings
    assert all(type(event) is LifecycleRecord for event in new[:3])
    assert new_rng.bit_generator.state == reference_rng.bit_generator.state
    return new


@given(pair_lists, horizons, specs, seeds)
@settings(max_examples=120, deadline=None)
def test_generator_equals_record_reference(pairs, horizon, spec, seed):
    assert_same_stream(pairs, horizon, spec, seed)


def test_capped_chain_equals_record_reference():
    # The cap case of test_churn.py::test_event_chains_are_bounded, beside
    # an ordinary subscriber so the cut chain is interleaved by the sort.
    pathological = ChurnSpec(lease_duration=1.0, lease_min=1.0, renew_probability=1.0)
    events = assert_same_stream([(1, 0), (2, 3)], 30 * DAY, pathological, 0)
    assert len(events) == 2 * MAX_EVENTS_PER_SUBSCRIBER
