"""Matching engines.

Two implementations of a single protocol:

* :class:`MatchingEngine` — a real counting-based matcher over explicit
  :class:`~repro.pubsub.subscriptions.Subscription` objects, in the
  style of Fabret et al. (SIGMOD 2001).  Index-friendly predicates
  (topic/equality/membership) resolve through inverted indexes; the
  remaining predicates are evaluated only for subscriptions whose
  indexed part already matched (or that have no indexed part).
* :class:`TraceMatchCounts` — the paper's §4.3 construction: a static
  table of "number of subscriptions at proxy j matching page i",
  derived from request counts and the subscription quality SQ by
  :mod:`repro.workload.subscriptions`.

The content distribution engine only consumes *per-proxy match counts*,
so either implementation can drive a simulation.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import TYPE_CHECKING
from typing import Dict, Iterable, List, Mapping, Optional, Protocol, Sequence, Set, Tuple

if TYPE_CHECKING:  # annotations only: the trace-driven path never builds either
    from repro.pubsub.pages import Page
    from repro.pubsub.subscriptions import Subscription


class MatchCountProvider(Protocol):
    """Per-proxy subscription match counts for a page."""

    def match_counts(self, page: Page) -> Dict[int, int]:
        """Map proxy_id -> number of matching subscriptions (omit zeros)."""
        ...  # pragma: no cover - protocol


class MatchingEngine:
    """Counting-based content matcher over explicit subscriptions.

    Each subscription is split into an *indexed part* (terms served by
    inverted indexes) and a *residual part* (keyword and range
    predicates, evaluated lazily).  For an incoming page the engine:

    1. looks up every (attribute, value) pair of the page in the
       indexes, counting hits per subscription;
    2. selects subscriptions whose required indexed-term count is met;
    3. evaluates residual predicates for those (plus purely residual
       subscriptions registered in a scan list);
    4. aggregates matches per proxy.
    """

    def __init__(self) -> None:
        self._subscriptions: Dict[int, Subscription] = {}
        # (attribute, value) -> subscription ids having that term.
        self._index: Dict[Tuple[str, object], Set[int]] = defaultdict(set)
        # subscription id -> number of indexed predicates that must hit.
        self._required_hits: Dict[int, int] = {}
        # Subscriptions with no indexable predicate: always evaluated.
        self._scan_list: Set[int] = set()
        # subscription id -> its indexed terms, so unsubscribe touches
        # only the owning buckets instead of scanning the whole index.
        self._terms_by_sid: Dict[int, List[Tuple[str, object]]] = {}
        # subscription id -> lease expiry time; absent means unleased
        # (permanent).  Expiry is *lazy*: expired entries are retired
        # when a match or an explicit expire_leases() sweep meets them.
        self._lease_until: Dict[int, float] = {}

    # -- registration ---------------------------------------------------

    def subscribe(
        self, subscription: Subscription, lease_until: Optional[float] = None
    ) -> None:
        """Register a subscription (idempotent per subscription_id).

        ``lease_until`` bounds the registration in simulated time;
        re-subscribing an existing id updates (or clears) its lease
        without touching the index.
        """
        sid = subscription.subscription_id
        if sid in self._subscriptions:
            if lease_until is None:
                self._lease_until.pop(sid, None)
            else:
                self._lease_until[sid] = lease_until
            return
        if lease_until is not None:
            self._lease_until[sid] = lease_until
        self._subscriptions[sid] = subscription
        indexed_predicates = 0
        own_terms: List[Tuple[str, object]] = []
        for predicate in subscription.predicates:
            terms = predicate.indexable_terms
            if terms is None:
                continue
            indexed_predicates += 1
            for term in terms:
                self._index[term].add(sid)
                own_terms.append(term)
        if own_terms:
            self._terms_by_sid[sid] = own_terms
        if indexed_predicates:
            self._required_hits[sid] = indexed_predicates
        else:
            self._scan_list.add(sid)

    def unsubscribe(self, subscription: Subscription) -> None:
        """Remove a subscription; unknown ids are ignored.

        O(own terms), not O(index size): the reverse map recorded at
        subscribe time names the buckets holding this id, and buckets
        emptied by the removal are dropped so churn cannot grow the
        index without bound.
        """
        sid = subscription.subscription_id
        if sid not in self._subscriptions:
            return
        del self._subscriptions[sid]
        self._required_hits.pop(sid, None)
        self._scan_list.discard(sid)
        self._lease_until.pop(sid, None)
        for term in self._terms_by_sid.pop(sid, ()):
            bucket = self._index.get(term)
            if bucket is None:
                continue
            bucket.discard(sid)
            if not bucket:
                del self._index[term]

    def subscribe_all(self, subscriptions: Iterable[Subscription]) -> None:
        for subscription in subscriptions:
            self.subscribe(subscription)

    @property
    def subscription_count(self) -> int:
        return len(self._subscriptions)

    # -- leases ----------------------------------------------------------

    def renew_lease(self, subscription_id: int, lease_until: float) -> bool:
        """Extend a registered subscription's lease; False if unknown."""
        if subscription_id not in self._subscriptions:
            return False
        self._lease_until[subscription_id] = lease_until
        return True

    def lease_expiry(self, subscription_id: int) -> Optional[float]:
        """The lease deadline for ``subscription_id`` (None = unleased)."""
        return self._lease_until.get(subscription_id)

    def expire_leases(self, now: float) -> int:
        """Retire every subscription whose lease deadline has passed.

        Returns the number retired.  This is the eager sweep; matching
        also retires lapsed candidates lazily, so calling this is an
        optimization (bounding index size under churn), not a
        correctness requirement.
        """
        lapsed = [
            sid for sid, until in self._lease_until.items() if until <= now
        ]
        for sid in lapsed:
            self.unsubscribe(self._subscriptions[sid])
        return len(lapsed)

    # -- matching ---------------------------------------------------------

    def matching_subscriptions(
        self, page: Page, now: Optional[float] = None
    ) -> List[Subscription]:
        """All registered subscriptions matching ``page``.

        When ``now`` is given, candidates whose lease deadline has
        passed (``lease_until <= now``) are retired on the spot (lazy
        expiry) and never reported as matches.
        """
        hits: Dict[int, int] = defaultdict(int)
        page_terms = list(page.attribute_dict.items())
        for term in page_terms:
            for sid in self._index.get(term, ()):
                hits[sid] += 1

        candidates: Set[int] = set(self._scan_list)
        for sid, hit_count in hits.items():
            required = self._required_hits.get(sid, 0)
            # A membership predicate can hit several of its terms on one
            # page only if the page had several values — pages carry one
            # value per attribute, so >= is correct and also tolerant.
            if hit_count >= required:
                candidates.add(sid)

        matched = []
        stale: List[int] = []
        for sid in candidates:
            if now is not None:
                until = self._lease_until.get(sid)
                if until is not None and until <= now:
                    stale.append(sid)
                    continue
            subscription = self._subscriptions[sid]
            if subscription.matches(page):
                matched.append(subscription)
        for sid in stale:
            self.unsubscribe(self._subscriptions[sid])
        matched.sort(key=lambda sub: sub.subscription_id)
        return matched

    def match_counts(
        self, page: Page, now: Optional[float] = None
    ) -> Dict[int, int]:
        """Per-proxy count of subscriptions matching ``page``."""
        counts: Dict[int, int] = defaultdict(int)
        for subscription in self.matching_subscriptions(page, now=now):
            counts[subscription.proxy_id] += 1
        return dict(counts)

    def match_count_vector(
        self, page: Page, now: Optional[float] = None
    ) -> Dict[int, int]:
        """Per-proxy match counts in one pass over the subscription index.

        Equal (as a mapping) to :meth:`match_counts`, but each match is
        added straight into the per-proxy accumulator — the matched
        :class:`Subscription` objects are never collected into a list
        or sorted, so a publish costs one index sweep regardless of how
        many subscriptions match.  Lazy lease expiry behaves exactly as
        in :meth:`matching_subscriptions`: lapsed candidates are
        retired on the spot and never counted.
        """
        hits: Dict[int, int] = defaultdict(int)
        index_get = self._index.get
        for term in page.attribute_dict.items():
            bucket = index_get(term)
            if bucket is not None:
                for sid in bucket:
                    hits[sid] += 1

        required = self._required_hits
        candidates: Set[int] = set(self._scan_list)
        add_candidate = candidates.add
        for sid, hit_count in hits.items():
            # Same >= tolerance as matching_subscriptions: pages carry
            # one value per attribute, so a membership predicate cannot
            # over-hit in practice.
            if hit_count >= required.get(sid, 0):
                add_candidate(sid)

        subscriptions = self._subscriptions
        lease_until = self._lease_until if now is not None else None
        counts: Dict[int, int] = {}
        stale: List[int] = []
        for sid in candidates:
            if lease_until is not None:
                until = lease_until.get(sid)
                if until is not None and until <= now:
                    stale.append(sid)
                    continue
            subscription = subscriptions[sid]
            if subscription.matches(page):
                proxy_id = subscription.proxy_id
                counts[proxy_id] = counts.get(proxy_id, 0) + 1
        for sid in stale:
            self.unsubscribe(subscriptions[sid])
        return counts


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

    def match_counts(self, page: Page) -> Dict[int, int]:
        """Counts for ``page`` (modified versions match like originals)."""
        return dict(self._table.get(page.page_id, {}))

    def match_counts_by_id(self, page_id: int) -> Dict[int, int]:
        """Counts looked up by page_id (the trace-driven simulator's path)."""
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
