"""Eq. 7's match-count table.

:class:`TraceMatchCounts` is the paper's §4.3 construction: a static
table of "number of subscriptions at proxy j matching page i", derived
from request counts and the subscription quality SQ by
:mod:`repro.workload.subscriptions`.  The content distribution engine
consumes nothing else of the subscriptions — *per-proxy match counts*
are the only subscription information §4.3 needs.
"""

from __future__ import annotations

import json
from typing import Dict, Mapping, Sequence, Tuple


class TraceMatchCounts:
    """Static match-count table (the paper's eq. 7 construction).

    The subscription information of interest is only "the number of
    subscriptions matching every page at every server" (§4.3); this
    class stores exactly that, keyed by page_id.
    """

    #: Shared empty vector — `match_vector` returns this for unknown
    #: pages so steady-state lookups never allocate.
    _EMPTY_VECTOR: Tuple[Tuple[int, int], ...] = ()

    def __init__(self, table: Mapping[int, Mapping[int, int]]) -> None:
        self._table: Dict[int, Dict[int, int]] = {}
        for page_id, per_proxy in table.items():
            cleaned = {
                int(proxy): int(count)
                for proxy, count in per_proxy.items()
                if count > 0
            }
            if any(count < 0 for count in per_proxy.values()):
                raise ValueError(f"negative match count for page {page_id}")
            if cleaned:
                self._table[int(page_id)] = cleaned
        # Columnar view: one immutable (proxy_id, count) vector per
        # page, ordered by proxy_id.  Precomputed once here so the
        # replay loop's per-publish work is a single dict probe —
        # no dict copy, no sort, no allocation.
        self._vectors: Dict[int, Tuple[Tuple[int, int], ...]] = {
            page_id: tuple(sorted(per_proxy.items()))
            for page_id, per_proxy in self._table.items()
        }

    def match_counts_by_id(self, page_id: int) -> Dict[int, int]:
        """A mutable snapshot of the proxy->count mapping for ``page_id``."""
        return dict(self._table.get(page_id, {}))

    def match_vector(self, page_id: int) -> Tuple[Tuple[int, int], ...]:
        """Precomputed ((proxy_id, count), ...) for ``page_id``.

        Sorted by proxy_id, zero counts omitted, empty for unknown
        pages.  The returned tuple is the table's own immutable record:
        the replay hot path iterates it directly.
        """
        return self._vectors.get(page_id, self._EMPTY_VECTOR)

    def row(self, page_id: int) -> Mapping[int, int]:
        """The live proxy->count mapping for ``page_id`` (no copy).

        Read-only by contract; use :meth:`match_counts_by_id` when a
        mutable snapshot is needed.
        """
        return self._table.get(page_id, {})

    def count_for(self, page_id: int, proxy_id: int) -> int:
        """Convenience scalar lookup."""
        row = self._table.get(page_id)
        if row is None:
            return 0
        return row.get(proxy_id, 0)

    # -- serialization ---------------------------------------------------

    def to_json(self) -> str:
        """Serialize the table (page_id -> {proxy: count}) to JSON."""
        return json.dumps(
            {
                str(page_id): {str(proxy): count for proxy, count in per_proxy.items()}
                for page_id, per_proxy in self._table.items()
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "TraceMatchCounts":
        """Rebuild a table serialized with :meth:`to_json`."""
        payload = json.loads(text)
        return cls(
            {
                int(page_id): {
                    int(proxy): int(count) for proxy, count in per_proxy.items()
                }
                for page_id, per_proxy in payload.items()
            }
        )

    @property
    def page_ids(self) -> Sequence[int]:
        return list(self._table)

    def total_subscriptions(self) -> int:
        """Sum of all match counts (an upper bound on future requests)."""
        return sum(
            count
            for per_proxy in self._table.values()
            for count in per_proxy.values()
        )
