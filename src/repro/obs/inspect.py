"""Summarise a JSONL trace file (the ``repro-pubsub inspect`` backend).

Given a trace written with ``--trace-out``, this module answers the
questions a failed or surprising run raises first: what happened, to
which pages, why did entries leave the caches, and how did the fault
timeline unfold.  It can also replay one page's entire life.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs.recorder import event_types
from repro.obs.tracer import EVENT_TYPES, read_jsonl

#: Event types rendered on the fault/failover timeline, in trace order.
_TIMELINE_TYPES = event_types("timeline")

#: Overload/backpressure event types aggregated per proxy.  The
#: high-volume shed/reject events stay out of the timeline and are
#: summarised here instead.
_OVERLOAD_TYPES = event_types("overload")

#: Per-page churn weighting: every one of these counts as one unit of
#: "something happened to this page".
_CHURN_TYPES = event_types("churn")

#: Subscription-lifecycle event types aggregated per proxy.
_LIFECYCLE_TYPES = event_types("lifecycle")

#: Timeline events shown (text) or listed (``--json``), oldest first.
TIMELINE_LIMIT = 20


@dataclass
class TraceSummary:
    """Aggregates computed from one trace file."""

    path: str
    event_count: int = 0
    time_range: Optional[tuple] = None
    strategies: List[str] = field(default_factory=list)
    counts_by_type: Counter = field(default_factory=Counter)
    unknown_types: Counter = field(default_factory=Counter)
    churn_by_page: Counter = field(default_factory=Counter)
    churn_detail: Dict[int, Counter] = field(default_factory=dict)
    eviction_causes: Counter = field(default_factory=Counter)
    timeline: List[dict] = field(default_factory=list)
    #: proxy -> Counter of lifecycle event types at that proxy.
    lifecycle_by_proxy: Dict[int, Counter] = field(default_factory=dict)
    #: (proxy, page) -> lifecycle event count (the churning subscribers).
    churning_subscribers: Counter = field(default_factory=Counter)
    #: proxy -> Counter of overload event types at that proxy.
    overload_by_proxy: Dict[int, Counter] = field(default_factory=dict)

    def as_dict(self, top: int = 10) -> Dict[str, object]:
        """A JSON-serialisable view of the summary (``inspect --json``).

        Compound keys become lists of objects so the structure survives
        ``json.dumps`` without stringified-tuple keys.
        """
        return {
            "path": self.path,
            "event_count": self.event_count,
            "time_range": list(self.time_range) if self.time_range else None,
            "strategies": list(self.strategies),
            "counts_by_type": dict(self.counts_by_type),
            "unknown_types": dict(self.unknown_types),
            "top_pages_by_churn": [
                {
                    "page": page,
                    "churn": churn,
                    "detail": dict(self.churn_detail.get(page, Counter())),
                }
                for page, churn in self.churn_by_page.most_common(top)
            ],
            "eviction_causes": dict(self.eviction_causes),
            "lifecycle_by_proxy": [
                {"proxy": proxy, "events": dict(detail)}
                for proxy, detail in sorted(self.lifecycle_by_proxy.items())
            ],
            "churning_subscribers": [
                {"proxy": proxy, "page": page, "events": count}
                for (proxy, page), count in self.churning_subscribers.most_common(top)
            ],
            "overload_by_proxy": [
                {"proxy": proxy, "events": dict(detail)}
                for proxy, detail in sorted(self.overload_by_proxy.items())
            ],
            "timeline": self.timeline[:TIMELINE_LIMIT],
            "timeline_total": len(self.timeline),
        }

    def render(self, top: int = 10) -> str:
        lines = [f"trace    : {self.path}"]
        lines.append(f"events   : {self.event_count}")
        if self.time_range is not None:
            lines.append(
                f"sim time : {self.time_range[0]:.1f} .. {self.time_range[1]:.1f} s"
            )
        if self.strategies:
            lines.append(f"strategy : {', '.join(self.strategies)}")
        lines.append("")
        lines.append("events by type:")
        for etype, count in self.counts_by_type.most_common():
            lines.append(f"  {etype:<16s} {count}")
        for etype, count in self.unknown_types.most_common():
            lines.append(f"  {etype:<16s} {count}  (not in taxonomy)")
        if self.churn_by_page:
            lines.append("")
            lines.append(f"top {top} pages by churn (publish+push+evict+fetch+miss):")
            for page, churn in self.churn_by_page.most_common(top):
                detail = self.churn_detail.get(page, Counter())
                parts = " ".join(
                    f"{etype}={count}" for etype, count in sorted(detail.items())
                )
                lines.append(f"  page {page:<8d} churn={churn:<6d} {parts}")
        if self.eviction_causes:
            lines.append("")
            lines.append("eviction causes:")
            for cause, count in self.eviction_causes.most_common():
                lines.append(f"  {cause:<16s} {count}")
        if self.lifecycle_by_proxy:
            lines.append("")
            lines.append("subscription lifecycle by proxy (top by events):")
            ranked = sorted(
                self.lifecycle_by_proxy.items(),
                key=lambda item: (-sum(item[1].values()), item[0]),
            )
            for proxy, detail in ranked[:top]:
                lines.append(
                    f"  proxy {proxy:<6d} granted={detail.get('subscribe', 0):<5d} "
                    f"renewed={detail.get('lease_renewed', 0):<5d} "
                    f"expired={detail.get('lease_expired', 0):<5d} "
                    f"unsub={detail.get('unsubscribe', 0):<5d} "
                    f"repolls={detail.get('repoll', 0)}"
                )
            lines.append("")
            lines.append(f"top {top} churning subscribers (proxy, page):")
            for (proxy, page), count in self.churning_subscribers.most_common(top):
                lines.append(
                    f"  proxy {proxy:<6d} page {page:<8d} lifecycle events={count}"
                )
        if self.overload_by_proxy:
            lines.append("")
            lines.append("overload & backpressure by proxy (top by events):")
            ranked = sorted(
                self.overload_by_proxy.items(),
                key=lambda item: (-sum(item[1].values()), item[0]),
            )
            for proxy, detail in ranked[:top]:
                lines.append(
                    f"  proxy {proxy:<6d} sheds={detail.get('overload_shed', 0):<5d} "
                    f"rejects={detail.get('overload_reject', 0):<5d} "
                    f"stale_served={detail.get('overload_stale', 0):<5d} "
                    f"retries_denied={detail.get('retry_denied', 0)}"
                )
        if self.timeline:
            lines.append("")
            shown = self.timeline[:TIMELINE_LIMIT]
            lines.append(
                f"fault/failover timeline (first {len(shown)} of "
                f"{len(self.timeline)}):"
            )
            for event in shown:
                detail = " ".join(
                    f"{key}={event[key]}"
                    for key in (
                        "proxy",
                        "page",
                        "target",
                        "reason",
                        "attempt",
                        "attempts",
                        "age",
                    )
                    if key in event
                )
                lines.append(f"  t={event['t']:>12.1f}  {event['type']:<12s} {detail}")
        return "\n".join(lines)


def summarize_trace(path: str) -> TraceSummary:
    """Read ``path`` and compute the summary aggregates."""
    events = read_jsonl(path)
    summary = TraceSummary(path=path, event_count=len(events))
    t_min = t_max = None
    strategies: List[str] = []
    for event in events:
        etype = event.get("type")
        t = event.get("t")
        if isinstance(t, (int, float)):
            t_min = t if t_min is None else min(t_min, t)
            t_max = t if t_max is None else max(t_max, t)
        if etype in EVENT_TYPES:
            summary.counts_by_type[etype] += 1
        else:
            summary.unknown_types[str(etype)] += 1
            continue
        strategy = event.get("strategy")
        if strategy and strategy not in strategies:
            strategies.append(strategy)
        page = event.get("page")
        if etype in _CHURN_TYPES and page is not None:
            summary.churn_by_page[page] += 1
            summary.churn_detail.setdefault(page, Counter())[etype] += 1
        if etype == "evict":
            summary.eviction_causes[event.get("cause", "unknown")] += 1
        if etype in _LIFECYCLE_TYPES:
            proxy = event.get("proxy")
            if proxy is not None:
                summary.lifecycle_by_proxy.setdefault(proxy, Counter())[etype] += 1
                if page is not None:
                    summary.churning_subscribers[(proxy, page)] += 1
        if etype in _OVERLOAD_TYPES:
            proxy = event.get("proxy")
            if proxy is not None:
                summary.overload_by_proxy.setdefault(proxy, Counter())[etype] += 1
        if etype in _TIMELINE_TYPES:
            summary.timeline.append(event)
    if t_min is not None:
        summary.time_range = (t_min, t_max)
    summary.strategies = strategies
    return summary


def page_history(path: str, page_id: int) -> List[dict]:
    """Every event touching ``page_id``, in trace (time) order."""
    return [e for e in read_jsonl(path) if e.get("page") == page_id]


def render_page_history(path: str, page_id: int) -> str:
    """The life of one page as a readable timeline."""
    events = page_history(path, page_id)
    if not events:
        return f"page {page_id}: no events in {path}"
    lines = [f"page {page_id}: {len(events)} events"]
    skip = {"t", "type", "page"}
    for event in events:
        detail = " ".join(
            f"{key}={value}" for key, value in event.items() if key not in skip
        )
        lines.append(f"  t={event['t']:>12.1f}  {event['type']:<14s} {detail}")
    return "\n".join(lines)
