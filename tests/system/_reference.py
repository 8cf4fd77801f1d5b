"""Test oracles for the replay driver: the agenda engine and the
record-based stream builder (:func:`record_stream`, at the end).

Every trace record becomes one heap-scheduled callback and the DES loop
pops them all: lifecycle records first, then publishes, then requests,
so at equal ``(time, priority)`` their sequence numbers reproduce the
driver's tie rule.  Nothing here shares code with ``Simulation._replay``
or ``Simulation._stream``; the handlers and everything below them are
the production ones, which is the point — the oracle checks the driver,
not the layers.
"""

import heapq
from operator import itemgetter

from repro.sim.engine import NORMAL, URGENT
from repro.system.cooperation import CooperativeSimulation
from repro.system.simulator import Simulation
from repro.workload.churn import LIFECYCLE_KINDS


def _lifecycle_row(record):
    """What the driver hands the lifecycle manager for one lifecycle record."""
    return (
        record.server_id,
        record.page_id,
        LIFECYCLE_KINDS.index(record.kind),
        record.lease,
    )


class _AgendaReplay:
    def _replay(self, env):
        for record in self.workload.lifecycle:
            env.schedule(
                record.time,
                lambda _env, r=_lifecycle_row(record): (
                    self._lifecycle.on_event(*r, _env.now)
                ),
                priority=URGENT,
            )
        for event in self.workload.publishes:
            env.schedule(
                event.time,
                lambda _env, p=event.page_id, v=event.version: (
                    self._handle_publish(p, v, _env.now)
                ),
                priority=URGENT,
            )
        for record in self.workload.requests:
            env.schedule(
                record.time,
                lambda _env, s=record.server_id, p=record.page_id: (
                    self._handle_request(s, p, _env.now)
                ),
                priority=NORMAL,
            )
        env.run()


class AgendaSimulation(_AgendaReplay, Simulation):
    """A :class:`Simulation` replayed through the heap agenda."""


class AgendaCooperativeSimulation(_AgendaReplay, CooperativeSimulation):
    """A :class:`CooperativeSimulation` replayed through the heap agenda."""


def record_stream(simulation, enriched, lazy):
    """``Simulation._stream`` as it was while traces were record lists.

    Copied from the commit before the columnar trace: every tuple is
    built from record attribute reads, the lazy form through
    ``heapq.merge`` by time, the retained form through a stable sort by
    ``(time, kind)``.  The production builder reads the event columns
    and must yield the same tuples in the same order.
    """
    workload = simulation.workload
    if enriched:
        sizes = simulation.publisher._sizes
        matches = simulation._matches_by_page
        rows = {page_id: dict(pairs) for page_id, pairs in matches.items()}
        publishes = (
            (p.time, 0, p.page_id, p.version, sizes[p.page_id],
             matches.get(p.page_id, ()))
            for p in workload.publishes
        )
        requests = (
            (r.time, 1, r.server_id, r.page_id, sizes[r.page_id],
             rows.get(r.page_id, {}).get(r.server_id, 0))
            for r in workload.requests
        )
    else:
        publishes = ((p.time, 0, p.page_id, p.version) for p in workload.publishes)
        requests = ((r.time, 1, r.server_id, r.page_id) for r in workload.requests)
    if lazy:
        lifecycle = ((e.time, 2, _lifecycle_row(e), None) for e in workload.lifecycle)
        return heapq.merge(lifecycle, publishes, requests, key=itemgetter(0))
    merged = [*publishes, *requests]
    merged.sort(key=itemgetter(0, 1))
    return merged
