"""Causal explanation of one page's lifecycle from a trace.

``repro-pubsub inspect`` summarises a trace; this module *explains*
it: given the event stream of a run, reconstruct the chain a single
page went through at each proxy —

    subscribed → notified seq N → delivered / lost → cached →
    evicted(cause) → miss / repair

— and answer the question an operator actually asks when a hit-ratio
curve dips: *why was this request a miss?*  Each request outcome in
the chain is annotated with the most recent causally-relevant event:
the eviction that emptied the slot, the lost notification that left
the proxy stale, the declined push, the lapsed lease that suppressed
the push, or simply a cold cache.

Works on any trace produced by :class:`repro.obs.tracer.EventTracer`
(file or in-memory events); the CLI front-end is
``repro-pubsub explain page <id> <trace.jsonl> [--proxy P]``.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.obs.recorder import EVENTS, event_types
from repro.obs.tracer import read_jsonl

#: Event types that concern a page at one proxy and belong in the chain:
#: every row of the event table that names both, except the overload
#: section — a shed push does explain a later miss, but the chain has
#: never read those four (docs/architecture.md, "Event taxonomy").
_CHAIN_TYPES = frozenset(
    row.type for row in EVENTS if row.type and {"page", "proxy"} <= set(row.fields)
) - event_types("overload")

_OUTCOME_TYPES = event_types("outcome")


@dataclass
class ChainStep:
    """One event in a page's reconstructed lifecycle chain."""

    t: float
    type: str
    proxy: Optional[int]
    description: str
    event: Dict[str, object]

    def as_dict(self) -> Dict[str, object]:
        return {
            "t": self.t,
            "type": self.type,
            "proxy": self.proxy,
            "description": self.description,
        }


@dataclass
class Verdict:
    """Why one request outcome happened."""

    t: float
    proxy: Optional[int]
    outcome: str
    cause: str
    evidence: Optional[Dict[str, object]] = None

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "t": self.t,
            "proxy": self.proxy,
            "outcome": self.outcome,
            "cause": self.cause,
        }
        if self.evidence is not None:
            out["evidence"] = {
                "t": self.evidence.get("t"),
                "type": self.evidence.get("type"),
            }
        return out


@dataclass
class PageExplanation:
    """The full causal story of one page (optionally at one proxy)."""

    page_id: int
    proxy: Optional[int]
    steps: List[ChainStep] = field(default_factory=list)
    verdicts: List[Verdict] = field(default_factory=list)

    def as_dict(self) -> Dict[str, object]:
        return {
            "page": self.page_id,
            "proxy": self.proxy,
            "steps": [step.as_dict() for step in self.steps],
            "verdicts": [verdict.as_dict() for verdict in self.verdicts],
        }

    def render(self) -> str:
        scope = f" at proxy {self.proxy}" if self.proxy is not None else ""
        lines = [f"page {self.page_id}{scope}: {len(self.steps)} events"]
        verdicts_at = {
            (verdict.t, verdict.proxy, verdict.outcome): verdict
            for verdict in self.verdicts
        }
        for step in self.steps:
            proxy = f" proxy {step.proxy}" if step.proxy is not None else ""
            line = f"  t={step.t:>12.3f}  {step.type:<18}{proxy:<10} {step.description}"
            lines.append(line.rstrip())
            verdict = verdicts_at.get((step.t, step.proxy, step.type))
            if verdict is not None:
                lines.append(f"{'':>16}└─ because {verdict.cause}")
        if not self.steps:
            lines.append("  (no matching events in the trace)")
        return "\n".join(lines)


class _ProxyState:
    """Per-proxy causal bookkeeping while walking the event stream."""

    __slots__ = (
        "cached",
        "ever_stored",
        "ever_matched",
        "last_evict",
        "last_reject",
        "last_lost",
        "last_suppressed",
        "last_expired",
        "last_store",
        "last_repair",
    )

    def __init__(self) -> None:
        self.cached = False
        self.ever_stored = False
        self.ever_matched = False
        self.last_evict: Optional[Dict[str, object]] = None
        self.last_reject: Optional[Dict[str, object]] = None
        self.last_lost: Optional[Dict[str, object]] = None
        self.last_suppressed: Optional[Dict[str, object]] = None
        self.last_expired: Optional[Dict[str, object]] = None
        self.last_store: Optional[Dict[str, object]] = None
        self.last_repair: Optional[Dict[str, object]] = None


def _describe(event: Dict[str, object]) -> str:
    kind = event.get("type")
    if kind == "publish":
        return f"version {event.get('version')} published ({event.get('size')} bytes)"
    if kind == "subscribe":
        return f"subscribed (lease {event.get('lease')}s)"
    if kind == "lease_renewed":
        return f"lease renewed (+{event.get('lease')}s)"
    if kind == "unsubscribe":
        return "unsubscribed"
    if kind == "lease_confirmed":
        return f"handshake confirmed after {event.get('latency')}s"
    if kind == "lease_expired":
        return f"lease noticed lapsed at {event.get('where')}"
    if kind == "handshake_lost":
        return f"handshake abandoned after {event.get('attempts')} attempts"
    if kind == "repoll":
        return f"access re-polled a fresh lease ({event.get('reason')})"
    if kind == "match":
        return f"matched {event.get('matches')} local subscriptions"
    if kind == "push_offer":
        return "push offered to the cache"
    if kind == "push_accept":
        refreshed = event.get("refreshed")
        return "push stored (refreshed copy)" if refreshed else "push stored"
    if kind == "push_reject":
        return "push declined by the cache policy"
    if kind == "push_suppressed":
        return f"push suppressed ({event.get('reason')})"
    if kind == "delivery_drop":
        return f"notification send lost ({event.get('reason')})"
    if kind == "delivery_retransmit":
        return f"delivered after {event.get('attempts')} attempts"
    if kind == "delivery_lost":
        return f"notification permanently lost ({event.get('reason')})"
    if kind == "delivery_dup":
        return "duplicate delivery suppressed"
    if kind == "delivery_gap":
        return f"sequence gap detected at version {event.get('sequence')}"
    if kind == "request":
        return "user request arrives"
    if kind in ("hit", "stale", "miss"):
        return f"served as {kind} (latency {event.get('latency')}s)"
    if kind == "fetch":
        return "demand fetch from origin"
    if kind == "peer_fetch":
        return "demand fetch served by a peer proxy"
    if kind == "repair":
        return f"staleness repaired at access (copy {event.get('age')}s behind)"
    if kind == "stale_served":
        return f"silently stale copy served ({event.get('age')}s behind)"
    if kind == "failed":
        return "request failed (origin unreachable)"
    if kind == "failover":
        return f"failover to {event.get('target')} ({event.get('reason')})"
    if kind == "retry":
        return f"retry attempt {event.get('attempt')} (backoff {event.get('backoff')}s)"
    if kind == "evict":
        return f"evicted ({event.get('cause')}, {event.get('size')} bytes)"
    return str(kind)


def _fmt_t(event: Dict[str, object]) -> str:
    """An event's timestamp, rounded for prose (t=97282.52, not 14 digits)."""
    return f"{float(event['t']):.2f}"


def _after(state_event: Optional[Dict[str, object]], reference: Optional[Dict[str, object]]) -> bool:
    """Is ``state_event`` more recent than the last store ``reference``?"""
    if state_event is None:
        return False
    if reference is None:
        return True
    return float(state_event["t"]) >= float(reference["t"])


def _verdict_for(
    event: Dict[str, object], state: _ProxyState
) -> Verdict:
    t = float(event["t"])
    proxy = event.get("proxy")
    kind = str(event["type"])
    evidence: Optional[Dict[str, object]] = None
    if kind == "hit":
        if state.last_repair is not None and _after(state.last_repair, state.last_store):
            cause = (
                f"the access-time repair at t={_fmt_t(state.last_repair)} "
                "refreshed the copy"
            )
            evidence = state.last_repair
        elif state.last_store is not None:
            store_kind = state.last_store["type"]
            how = "pushed" if store_kind == "push_accept" else "fetched on a miss"
            cause = f"a fresh copy was {how} at t={_fmt_t(state.last_store)}"
            evidence = state.last_store
        else:
            cause = "a fresh copy was already cached"
    elif kind == "stale":
        if _after(state.last_lost, state.last_store):
            cause = (
                f"the update notification at t={_fmt_t(state.last_lost)} was "
                f"permanently lost ({state.last_lost.get('reason')}), so the "
                "cached copy fell behind"
            )
            evidence = state.last_lost
        elif _after(state.last_suppressed, state.last_store):
            cause = (
                f"the update push at t={_fmt_t(state.last_suppressed)} was "
                f"suppressed ({state.last_suppressed.get('reason')}), so the "
                "cached copy fell behind"
            )
            evidence = state.last_suppressed
        elif _after(state.last_reject, state.last_store):
            cause = (
                f"the update push at t={_fmt_t(state.last_reject)} was declined "
                "by the cache policy, so the cached copy fell behind"
            )
            evidence = state.last_reject
        else:
            cause = "a newer version was published and no update reached the cache"
    elif kind == "failed":
        cause = "the origin was unreachable and every retry was exhausted"
    else:  # miss
        if state.cached:
            # Chain bookkeeping says a copy is present: only possible
            # when the trace is partial (e.g. filtered); stay honest.
            cause = "unknown (the trace shows a live cached copy; is it filtered?)"
        elif _after(state.last_evict, state.last_store) and state.ever_stored:
            cause = (
                f"the cached copy was evicted "
                f"({state.last_evict.get('cause')}) at t={_fmt_t(state.last_evict)}"
            )
            evidence = state.last_evict
        elif _after(state.last_lost, state.last_store):
            cause = (
                f"the notification at t={_fmt_t(state.last_lost)} never arrived "
                f"({state.last_lost.get('reason')})"
            )
            evidence = state.last_lost
        elif _after(state.last_suppressed, state.last_store):
            cause = (
                f"the push at t={_fmt_t(state.last_suppressed)} was suppressed "
                f"({state.last_suppressed.get('reason')})"
            )
            evidence = state.last_suppressed
        elif _after(state.last_reject, state.last_store):
            cause = (
                f"the push at t={_fmt_t(state.last_reject)} was declined by the "
                "cache policy"
            )
            evidence = state.last_reject
        elif not state.ever_matched:
            cause = (
                "the page never matched this proxy's subscriptions, so it was "
                "never pushed (pull-only path)"
            )
        else:
            cause = "cold cache: the request arrived before any push"
    return Verdict(t=t, proxy=proxy, outcome=kind, cause=cause, evidence=evidence)


def explain_page(
    events: Iterable[Dict[str, object]],
    page_id: int,
    proxy: Optional[int] = None,
) -> PageExplanation:
    """Reconstruct the causal chain of ``page_id`` from trace events.

    ``events`` is any iterable of tracer event dicts in emission order
    (e.g. from :func:`repro.obs.tracer.read_jsonl`).  With ``proxy``
    given, the chain is restricted to that proxy (plus proxy-less
    events like the publishes of the page itself).
    """
    explanation = PageExplanation(page_id=page_id, proxy=proxy)
    states: Dict[int, _ProxyState] = {}
    # An outcome is judged on the state its request *found*: between
    # ``request`` and the outcome the trace carries the fetch that
    # answered it and the evictions that made room (docs/architecture.md,
    # "Event taxonomy"), none of which explain why it missed.
    found: Dict[int, _ProxyState] = {}
    for event in events:
        kind = event.get("type")
        if event.get("page") != page_id:
            continue
        if kind != "publish" and kind not in _CHAIN_TYPES:
            continue
        event_proxy = event.get("proxy")
        if proxy is not None and event_proxy is not None and event_proxy != proxy:
            continue
        t = float(event.get("t", 0.0))
        explanation.steps.append(
            ChainStep(
                t=t,
                type=str(kind),
                proxy=event_proxy,
                description=_describe(event),
                event=event,
            )
        )
        if event_proxy is None:
            continue
        state = states.get(event_proxy)
        if state is None:
            state = states[event_proxy] = _ProxyState()
        if kind == "request":
            found[event_proxy] = copy(state)
        elif kind == "match":
            state.ever_matched = True
        elif kind == "push_accept":
            state.cached = True
            state.ever_stored = True
            state.last_store = event
        elif kind == "push_reject":
            state.last_reject = event
        elif kind == "push_suppressed":
            state.last_suppressed = event
        elif kind == "delivery_lost":
            state.last_lost = event
        elif kind == "lease_expired":
            state.last_expired = event
        elif kind == "evict":
            state.cached = False
            state.last_evict = event
        elif kind == "repair":
            state.last_repair = event
        elif kind in ("fetch", "peer_fetch"):
            # A demand fetch usually re-populates the cache (policy
            # permitting); treat it as the latest plausible store so a
            # later eviction correctly explains the next miss.
            state.cached = True
            state.ever_stored = True
            state.last_store = event
        elif kind in _OUTCOME_TYPES:
            # A filtered trace may lack the request: judge on what is known.
            explanation.verdicts.append(
                _verdict_for(event, found.pop(event_proxy, state))
            )
    return explanation


def explain_page_from_file(
    path: str, page_id: int, proxy: Optional[int] = None
) -> PageExplanation:
    """Load ``path`` (tracer JSONL) and explain ``page_id``."""
    return explain_page(read_jsonl(path), page_id, proxy=proxy)
