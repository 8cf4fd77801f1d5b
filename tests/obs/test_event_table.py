"""``recorder.EVENTS`` against everything that is read off it.

The observer's hooks, ``tracer.EVENT_TYPES``, the type sets of
``inspect.py`` and ``explain.py`` and the docs table all come from one
table.  The literal sets below are the hand-written ones that table
replaced, recorded at commit 66e0c28 (the parent of PR 19); together
with ``test_tracer.py::test_taxonomy_is_complete`` they are the
independent pin on its membership.
"""

import os
import re

import pytest

from repro.obs import explain, inspect
from repro.obs.recorder import EVENTS, Observer

DOCS = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "docs", "architecture.md")

TIMELINE = {
    "crash", "restart", "outage", "outage_end", "failover", "retry", "failed",
    "delivery_lost", "delivery_retransmit", "repair", "overload_stale", "retry_denied",
}
OVERLOAD = {"overload_shed", "overload_reject", "overload_stale", "retry_denied"}
CHURN = {
    "publish", "push_accept", "evict", "fetch", "peer_fetch", "miss", "stale", "repair",
    "stale_served",
}
LIFECYCLE = {
    "subscribe", "unsubscribe", "lease_confirmed", "lease_renewed", "lease_expired",
    "handshake_lost", "repoll",
}
CHAIN = LIFECYCLE | {
    "match", "push_offer", "push_accept", "push_reject", "push_suppressed",
    "delivery_drop", "delivery_retransmit", "delivery_lost", "delivery_dup", "delivery_gap",
    "request", "hit", "stale", "miss", "fetch", "peer_fetch", "repair", "stale_served",
    "failed", "failover", "retry", "evict",
}
OUTCOME = {"hit", "stale", "miss", "failed"}


def trace_order(row):
    """``row.fields`` as a trace line lists them: page and proxy lead."""
    lead = [name for name in ("page", "proxy") if name in row.fields]
    return lead + [name for name in row.fields if name not in lead]


def test_derived_sets_keep_their_membership():
    assert inspect._TIMELINE_TYPES == TIMELINE
    assert inspect._OVERLOAD_TYPES == OVERLOAD
    assert inspect._CHURN_TYPES == CHURN
    assert inspect._LIFECYCLE_TYPES == LIFECYCLE
    assert explain._CHAIN_TYPES == CHAIN and len(CHAIN) == 29
    assert explain._OUTCOME_TYPES == OUTCOME


def test_each_name_is_declared_once_and_no_method_shadows_a_row():
    for column in ("hook", "type", "counter", "series"):
        names = [getattr(row, column) for row in EVENTS if getattr(row, column)]
        assert len(names) == len(set(names)), column
    # A hook written by hand beside its row would be hidden by the
    # generated instance attribute: there is one or the other.
    assert [row.hook for row in EVENTS if row.hook and hasattr(Observer, row.hook)] == []


def test_a_generated_hook_has_the_signature_its_row_declares():
    """Positional, keyword or mixed — and a wrong arity is a TypeError,
    as it was when the hooks were written by hand."""
    from repro.obs import EventTracer

    tracer = EventTracer()
    observer = Observer(tracer=tracer)
    observer.failover(1.0, 3, 7, target="origin", reason="proxy-down")
    observer.crash(t=2.0, proxy=3)
    assert [list(event) for event in tracer.events()] == [
        ["t", "type", "page", "proxy", "target", "reason"],
        ["t", "type", "proxy"],
    ]
    assert tracer.events()[0]["page"] == 7
    with pytest.raises(TypeError):
        observer.failover(1.0, 3, 7)
    with pytest.raises(TypeError):
        observer.publish(1.0, 2, 3, 4, 5)


def docs_rows():
    """``{type: (fields, sections)}`` from § "Event taxonomy"."""
    with open(DOCS, encoding="utf-8") as handle:
        section = handle.read().split("### Event taxonomy")[1].split("\n\n", 2)[1]
    rows = {}
    for line in section.splitlines()[2:]:
        types, _when, fields, sections = (cell.strip() for cell in line.strip("|").split("|"))
        for etype in re.findall(r"`(\w+)`", types):
            assert etype not in rows, etype
            rows[etype] = (
                re.findall(r"`(\w+)`", fields),
                set(re.findall(r"[a-z]+", sections)),
            )
    return rows


def test_docs_table_follows_the_rows():
    documented = docs_rows()
    declared = {
        row.type: (trace_order(row), set(row.sections)) for row in EVENTS if row.type
    }
    assert sorted(documented) == sorted(declared)
    for etype, row in declared.items():
        assert documented[etype] == row, etype
