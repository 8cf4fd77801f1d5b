"""Tests for spilled traces.

The contract under test: the :class:`Workload` that
``generate_streaming_workload`` returns holds the same events, in the
same order, with the same derived tables, as the in-memory one built
from the same seed — while its rows live on disk and replay through
bounded chunks.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from repro.sim.rng import RandomStreams
from repro.system.config import SimulationConfig
from repro.system.simulator import Simulation
from repro.workload.churn import ChurnSpec
from repro.workload.config import DAY, WorkloadConfig
from repro.workload.presets import make_trace, news_config
from repro.workload.streaming import (
    _map_rows,
    generate_streaming_workload,
    make_streaming_trace,
)
from repro.workload.trace import ROW_DTYPES, RequestRecord, Workload, generate_workload


def _assert_same_trace(streaming: Workload, materialized: Workload) -> None:
    assert streaming.publish_count == materialized.publish_count
    assert streaming.request_count == materialized.request_count
    assert list(streaming.publishes) == list(materialized.publishes)
    assert list(streaming.requests) == list(materialized.requests)
    assert [
        dataclasses.astuple(p) for p in streaming.pages
    ] == [dataclasses.astuple(p) for p in materialized.pages]


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("chunk_events", [64, 100_000])
def test_streaming_equals_materialized(seed, chunk_events):
    config = news_config(scale=0.03)
    materialized = generate_workload(config, RandomStreams(seed), label="news")
    streaming = generate_streaming_workload(
        config, RandomStreams(seed), label="news", chunk_events=chunk_events
    )
    try:
        _assert_same_trace(streaming, materialized)
        # Derived tables agree: the aggregated pair counts reproduce
        # the per-request pair list, and the capacity formula sees the
        # same unique-bytes books.
        pairs = streaming.pair_counts()
        counted = {}
        for page_id, server_id in materialized.request_pairs():
            counted[(page_id, server_id)] = (
                counted.get((page_id, server_id), 0) + 1
            )
        assert pairs == counted == materialized.pair_counts()
        assert (
            streaming.unique_bytes_per_server()
            == materialized.unique_bytes_per_server()
        )
        assert streaming.capacities(0.05) == materialized.capacities(0.05)
    finally:
        streaming.close()


def test_short_spool_file_is_an_oserror_before_any_row_is_read(tmp_path):
    dtype = ROW_DTYPES[RequestRecord]
    path = tmp_path / "requests.bin"
    np.zeros(3, dtype=dtype).tofile(path)
    assert len(_map_rows(str(path), dtype, 3)) == 3
    with pytest.raises(OSError, match=r"truncated spool .*wanted 4 rows \(64 bytes\), got 48"):
        _map_rows(str(path), dtype, 4)
    with pytest.raises(OSError, match="truncated spool"):
        _map_rows(str(path), dtype, 0)
    path.write_bytes(b"")
    assert len(_map_rows(str(path), dtype, 0)) == 0


def test_streams_are_reiterable():
    streaming = make_streaming_trace("news", scale=0.03, seed=3)
    try:
        first = list(streaming.requests)
        second = list(streaming.requests)
        assert first == second
        assert list(streaming.publishes) == list(streaming.publishes)
    finally:
        streaming.close()


def test_spilled_workload_equals_in_memory_workload():
    """A spilled ``Workload`` *is* a ``Workload``: ``==`` sees no difference."""
    streaming = make_streaming_trace("news", scale=0.03, seed=3)
    try:
        assert streaming.spool is not None
        assert streaming == make_trace("news", scale=0.03, seed=3)
        assert streaming != make_trace("news", scale=0.03, seed=4)
    finally:
        streaming.close()


def test_with_churn_matches_materialized():
    spec = ChurnSpec(churn_rate=0.5)
    materialized = make_trace("news", scale=0.03, seed=3).with_churn(
        spec, RandomStreams(3).stream("workload.churn")
    )
    streaming = make_streaming_trace("news", scale=0.03, seed=3)
    try:
        churned = streaming.with_churn(
            spec, RandomStreams(3).stream("workload.churn")
        )
        assert churned.lifecycle == materialized.lifecycle
        assert churned.churn == spec
        # The churned copy shares the parent's spool.
        assert list(churned.requests) == list(streaming.requests)
    finally:
        streaming.close()


def test_simulation_streaming_bit_identity():
    config = SimulationConfig(seed=3)
    materialized = make_trace("news", scale=0.03, seed=3)
    streaming = make_streaming_trace("news", scale=0.03, seed=3)
    try:
        want = dataclasses.asdict(Simulation(materialized, config).run())
        got = dataclasses.asdict(Simulation(streaming, config).run())
        for skip in ("wall_seconds", "profile"):
            want.pop(skip)
            got.pop(skip)
        assert want == got
    finally:
        streaming.close()


def _replay_peak(total_requests: int) -> int:
    """Peak traced bytes of the replay phase at the given trace size."""
    config = WorkloadConfig(
        horizon=2 * DAY,
        distinct_pages=120,
        modified_pages=48,
        total_requests=total_requests,
        server_count=10,
    )
    workload = generate_streaming_workload(
        config, RandomStreams(5), chunk_events=4096, read_chunk=4096
    )
    try:
        simulation = Simulation(workload, SimulationConfig(seed=5))
        tracemalloc.start()
        try:
            simulation.run()
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak
    finally:
        workload.close()


def test_replay_memory_stays_flat_as_events_grow():
    """10x the requests must not come close to 10x the replay memory.

    Pages and servers are held fixed, so every run-phase structure —
    read chunks, match table, proxy caches — is bounded; only the
    on-disk event stream grows.
    """
    small = _replay_peak(20_000)
    large = _replay_peak(200_000)
    assert large < 3 * small, (
        f"replay peak grew {large / small:.1f}x for 10x the events "
        f"({small} -> {large} bytes); streaming replay should be "
        "chunk-bounded"
    )
