"""Eq. 7's match-count table.

:class:`TraceMatchCounts` is the paper's §4.3 construction: a static
table of "number of subscriptions at proxy j matching page i", derived
from request counts and the subscription quality SQ by
:mod:`repro.workload.subscriptions`.  The content distribution engine
consumes nothing else of the subscriptions — *per-proxy match counts*
are the only subscription information §4.3 needs.
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple


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
        # One immutable (proxy_id, count) vector per page, ordered by
        # proxy_id, zero counts omitted.  Precomputed once here so every
        # publish of a page replays the same tuple — no dict copy, no
        # sort, no allocation.
        self._vectors: Dict[int, Tuple[Tuple[int, int], ...]] = {}
        for page_id, per_proxy in table.items():
            cleaned = {
                int(proxy): int(count)
                for proxy, count in per_proxy.items()
                if count > 0
            }
            if any(count < 0 for count in per_proxy.values()):
                raise ValueError(f"negative match count for page {page_id}")
            if cleaned:
                self._vectors[int(page_id)] = tuple(sorted(cleaned.items()))

    def match_vector(self, page_id: int) -> Tuple[Tuple[int, int], ...]:
        """Precomputed ((proxy_id, count), ...) for ``page_id``.

        Sorted by proxy_id, zero counts omitted, empty for unknown
        pages.  The returned tuple is the table's own immutable record:
        the replay hot path iterates it directly.
        """
        return self._vectors.get(page_id, self._EMPTY_VECTOR)
