"""Tests for eq. 7's match-count table."""

import pytest

from repro.pubsub.matching import TraceMatchCounts


class TestTraceMatchCounts:
    def test_lookup_by_page_and_id(self):
        table = TraceMatchCounts({1: {0: 3, 2: 1}, 5: {0: 2}})
        assert table.match_vector(1) == ((0, 3), (2, 1))
        assert table.match_vector(5) == ((0, 2),)
        assert table.match_vector(404) == ()
        assert table.match_vector(1) is table.match_vector(1)  # the table's own

    def test_zero_entries_dropped(self):
        table = TraceMatchCounts({1: {0: 0, 1: 2}})
        assert table.match_vector(1) == ((1, 2),)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            TraceMatchCounts({1: {0: -1}})
