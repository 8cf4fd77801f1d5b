"""Tests for eq. 7's match-count table."""

import pytest

from repro.pubsub.matching import TraceMatchCounts


class TestTraceMatchCounts:
    def test_lookup_by_page_and_id(self):
        table = TraceMatchCounts({1: {0: 3, 2: 1}, 5: {0: 2}})
        assert table.match_vector(1) == ((0, 3), (2, 1))
        assert table.match_counts_by_id(5) == {0: 2}
        assert table.count_for(1, 0) == 3
        assert table.count_for(1, 9) == 0
        assert table.match_counts_by_id(404) == {}

    def test_zero_entries_dropped(self):
        table = TraceMatchCounts({1: {0: 0, 1: 2}})
        assert table.match_counts_by_id(1) == {1: 2}

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            TraceMatchCounts({1: {0: -1}})

    def test_total_subscriptions(self):
        table = TraceMatchCounts({1: {0: 3, 2: 1}, 5: {0: 2}})
        assert table.total_subscriptions() == 6

    def test_page_ids(self):
        table = TraceMatchCounts({1: {0: 1}, 5: {0: 1}})
        assert sorted(table.page_ids) == [1, 5]
