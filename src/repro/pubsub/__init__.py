"""Publish/subscribe brokering substrate.

Implements the three communication streams of the paper's Figure 1:

1. subscribers announce interests (:mod:`repro.pubsub.subscriptions`),
2. producers publish pages (:mod:`repro.pubsub.pages`),
3. the broker matches and notifies (:mod:`repro.pubsub.matching`,
   :mod:`repro.pubsub.routing`, :mod:`repro.pubsub.broker`).

The matching engine supports both topic subscriptions and content-based
attribute predicates, with a counting-based evaluation in the style of
Fabret et al. (SIGMOD 2001): equality predicates resolve through
inverted indexes and a per-event counter array determines which
subscriptions are fully satisfied.

Both :class:`~repro.pubsub.matching.MatchingEngine` and the
:class:`~repro.pubsub.overlay.BrokerTree` leaf engines accept an
optional ``lease_until`` per subscription: leased registrations are
retired lazily during matching (or eagerly by ``expire_leases``),
supporting the subscription-lifecycle layer of the simulator.

The trace-driven simulator only needs *match counts per proxy*
(eq. 7 of the paper constructs these from request counts and the
subscription quality SQ); :class:`~repro.pubsub.matching.MatchingEngine`
and :class:`~repro.pubsub.matching.TraceMatchCounts` both implement the
:class:`~repro.pubsub.matching.MatchCountProvider` protocol so either a
real subscription population or the paper's synthetic construction can
drive the content distribution engine.
"""

from typing import TYPE_CHECKING

from repro import lazy_exports

if TYPE_CHECKING:
    from repro.pubsub.pages import Page, PageVersion, Notification
    from repro.pubsub.subscriptions import (
        Subscription, Predicate, attribute_equals, attribute_in, attribute_range, keyword_any,
        keyword_all, topic_is,
    )
    from repro.pubsub.matching import MatchCountProvider, MatchingEngine, TraceMatchCounts
    from repro.pubsub.routing import RoutingEngine, RoutingTable
    from repro.pubsub.broker import Broker
    from repro.pubsub.overlay import BrokerTree, BrokerNode
    from repro.pubsub.population import EngineMatchCounts, build_population, engine_from_table

__all__ = [
    "Page",
    "PageVersion",
    "Notification",
    "Subscription",
    "Predicate",
    "attribute_equals",
    "attribute_in",
    "attribute_range",
    "keyword_any",
    "keyword_all",
    "topic_is",
    "MatchCountProvider",
    "MatchingEngine",
    "TraceMatchCounts",
    "RoutingEngine",
    "RoutingTable",
    "Broker",
    "BrokerTree",
    "BrokerNode",
    "EngineMatchCounts",
    "build_population",
    "engine_from_table",
]

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "pages": ("Page", "PageVersion", "Notification"),
    "subscriptions": (
        "Subscription", "Predicate", "attribute_equals", "attribute_in", "attribute_range",
        "keyword_any", "keyword_all", "topic_is",
    ),
    "matching": ("MatchCountProvider", "MatchingEngine", "TraceMatchCounts"),
    "routing": ("RoutingEngine", "RoutingTable"),
    "broker": ("Broker",),
    "overlay": ("BrokerTree", "BrokerNode"),
    "population": ("EngineMatchCounts", "build_population", "engine_from_table"),
})
