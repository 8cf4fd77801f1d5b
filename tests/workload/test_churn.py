"""The churn generator: determinism, validation, sorting, round trips."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from repro.sim.rng import RandomStreams
from repro.workload import generate_workload, news_config
from repro.workload.churn import (
    LEASE_MIN,
    LIFECYCLE_KINDS,
    MAX_EVENTS_PER_SUBSCRIBER,
    ChurnSpec,
    generate_churn,
)
from repro.workload.trace import Workload

HOUR = 3600.0
DAY = 24 * HOUR

PAIRS = [(3, 0), (1, 1), (1, 0), (3, 0)]  # duplicates + unsorted on purpose


def spec(**kwargs):
    defaults = dict(
        churn_rate=2.0,
        lease_duration=2 * HOUR,
        renew_probability=0.6,
        confirmation_loss_probability=0.1,
    )
    defaults.update(kwargs)
    return ChurnSpec(**defaults)


class TestGeneration:
    def test_deterministic_for_fixed_stream(self):
        first = generate_churn(
            PAIRS, 2 * DAY, spec(), np.random.default_rng(42)
        )
        second = generate_churn(
            PAIRS, 2 * DAY, spec(), np.random.default_rng(42)
        )
        assert first == second
        assert len(first) > 3

    def test_input_order_does_not_matter(self):
        forward = generate_churn(
            PAIRS, 2 * DAY, spec(), np.random.default_rng(7)
        )
        backward = generate_churn(
            list(reversed(PAIRS)), 2 * DAY, spec(), np.random.default_rng(7)
        )
        assert forward == backward

    def test_sorted_by_time_then_cell_then_kind(self):
        events = generate_churn(PAIRS, 5 * DAY, spec(), np.random.default_rng(3))
        order = {kind: index for index, kind in enumerate(LIFECYCLE_KINDS)}
        keys = [
            (e.time, e.server_id, e.page_id, order[e.kind]) for e in events
        ]
        assert keys == sorted(keys)

    def test_every_cell_subscribed_at_time_zero(self):
        events = generate_churn(PAIRS, DAY, spec(), np.random.default_rng(1))
        initial = {
            (e.page_id, e.server_id)
            for e in events
            if e.time == 0.0 and e.kind == "subscribe"
        }
        assert initial == set(PAIRS)

    def test_leases_respect_floor_and_horizon(self):
        events = generate_churn(PAIRS, DAY, spec(), np.random.default_rng(5))
        for event in events:
            assert 0.0 <= event.time < DAY
            if event.kind in ("subscribe", "renew"):
                assert event.lease >= LEASE_MIN
            else:
                assert event.lease == 0.0

    def test_zero_churn_rate_emits_no_unsubscribes(self):
        events = generate_churn(
            PAIRS, 5 * DAY, spec(churn_rate=0.0), np.random.default_rng(9)
        )
        assert all(e.kind != "unsubscribe" for e in events)

    def test_event_chains_are_bounded(self):
        # Micro-leases over a long horizon hit the per-subscriber cap
        # instead of generating unbounded chains.
        pathological = spec(
            lease_duration=1.0,
            renew_probability=1.0,
            confirmation_loss_probability=0.0,
        )
        events = generate_churn(
            [(1, 0)], 30 * DAY, pathological, np.random.default_rng(0)
        )
        assert len(events) == MAX_EVENTS_PER_SUBSCRIBER

    def test_non_positive_horizon_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            generate_churn(PAIRS, 0.0, spec(), np.random.default_rng(0))

    def test_statistics(self):
        events = generate_churn(PAIRS, 3 * DAY, spec(), np.random.default_rng(2))
        kinds = [event.kind for event in events]
        assert len({(event.server_id, event.page_id) for event in events}) == 3
        assert kinds.count("subscribe") >= 3
        assert sum(map(kinds.count, LIFECYCLE_KINDS)) == len(events)

    def test_generation_costs_at_most_3_5_tables(self):
        """The transient is C arrays, one unsorted and one sorted table and
        the sort order (2.4 tables measured); three lists of boxed floats
        made it 5.4 tables."""
        generate_churn(PAIRS, DAY, spec(), np.random.default_rng(0))  # lazy imports
        pairs = [(page, server) for page in range(50) for server in range(8)]
        tracemalloc.start()
        try:
            rows = generate_churn(
                pairs, 7 * DAY, spec(lease_duration=3 * HOUR), np.random.default_rng(5)
            ).rows
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) > 20_000
        assert peak <= 3.5 * rows.nbytes


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(churn_rate=-0.5), "churn_rate"),
            (dict(lease_duration=0.0), "lease_duration"),
            (dict(lease_duration=-60.0), "lease_duration"),
            (dict(lease_duration=float("nan")), "lease_duration"),
            (dict(renew_probability=1.5), "renew_probability"),
            (dict(renew_probability=-0.1), "renew_probability"),
            (dict(renew_probability=float("nan")), "renew_probability"),
            (dict(confirmation_loss_probability=2.0), "confirmation_loss"),
            (dict(confirmation_loss_probability=-1.0), "confirmation_loss"),
        ],
    )
    def test_degenerate_knobs_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ChurnSpec(**kwargs)

    def test_defaults_are_valid(self):
        ChurnSpec()  # must not raise


class TestWorkloadIntegration:
    @pytest.fixture(scope="class")
    def workload(self):
        return generate_workload(
            news_config(scale=0.01), RandomStreams(2), label="news"
        )

    def test_with_churn_returns_new_workload(self, workload):
        churned = workload.with_churn(
            spec(), RandomStreams(2).stream("workload.churn")
        )
        assert churned is not workload
        assert workload.lifecycle == [] and workload.churn is None
        assert churned.churn == spec()
        assert churned.lifecycle
        assert churned.publishes is workload.publishes

    def test_with_churn_is_seed_deterministic(self, workload):
        first = workload.with_churn(
            spec(), RandomStreams(2).stream("workload.churn")
        )
        second = workload.with_churn(
            spec(), RandomStreams(2).stream("workload.churn")
        )
        assert first.lifecycle == second.lifecycle

    def test_json_round_trip_preserves_lifecycle(self, workload):
        """The ``to_json`` export carries the lifecycle rows and the spec."""
        churned = workload.with_churn(
            spec(), RandomStreams(2).stream("workload.churn")
        )
        payload = json.loads(churned.to_json())
        assert payload["churn"] == dataclasses.asdict(churned.churn)
        for name in churned.lifecycle.rows.dtype.names:
            assert payload["lifecycle"][name] == churned.lifecycle.rows[name].tolist()

    def test_json_round_trip_without_churn_stays_clean(self, workload):
        payload = json.loads(workload.to_json())
        assert "lifecycle" not in payload and "churn" not in payload
        restored = Workload.from_bytes(workload.to_bytes())
        assert restored.churn is None
        assert restored.lifecycle == []
