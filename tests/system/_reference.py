"""Test oracles for the replay driver: the agenda engine and the
record-based stream builder (:func:`record_stream`, at the end).

Every trace record becomes one heap-scheduled callback and the DES loop
pops them all: lifecycle records first, then publishes, then requests,
so at equal ``(time, priority)`` their sequence numbers reproduce the
driver's tie rule.  A popped lifecycle record goes to the manager; a
popped publish or request is yielded to the one replay loop.  Nothing
here shares code with ``Simulation._records`` (the agenda stream) or
``Workload.replay_stream``; the loop, the wrappers and everything below
them are the production ones, which is the point — the oracle checks
the driver's merge, not the layers.
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
    def _records(self, env):
        sizes = {page.page_id: page.size for page in self.workload.pages}
        vector = self.match_table.match_vector
        popped = []
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
                lambda _env, p=event.page_id, v=event.version: popped.append(
                    (_env.now, 0, p, v, sizes[p], vector(p))
                ),
                priority=URGENT,
            )
        for record in self.workload.requests:
            env.schedule(
                record.time,
                lambda _env, s=record.server_id, p=record.page_id: popped.append(
                    (_env.now, 1, s, p, sizes[p], dict(vector(p)).get(s, 0))
                ),
                priority=NORMAL,
            )
        while env._agenda:
            env.step()
            if popped:
                yield popped.pop()


class AgendaSimulation(_AgendaReplay, Simulation):
    """A :class:`Simulation` replayed through the heap agenda."""


class AgendaCooperativeSimulation(_AgendaReplay, CooperativeSimulation):
    """A :class:`CooperativeSimulation` replayed through the heap agenda."""


def record_stream(simulation, lazy):
    """``Workload.replay_stream`` built from record attribute reads.

    Descended from the builder of the commit before the columnar trace:
    sizes come from ``workload.pages``, matches from ``match_vector``,
    the lazy form merges through ``heapq.merge`` by time, the retained
    form through a stable sort by ``(time, kind)``.  The production
    builder reads the event columns and must yield the same tuples in
    the same order.
    """
    workload = simulation.workload
    sizes = {page.page_id: page.size for page in workload.pages}
    vector = simulation.match_table.match_vector
    publishes = (
        (p.time, 0, p.page_id, p.version, sizes[p.page_id], vector(p.page_id))
        for p in workload.publishes
    )
    requests = (
        (r.time, 1, r.server_id, r.page_id, sizes[r.page_id],
         dict(vector(r.page_id)).get(r.server_id, 0))
        for r in workload.requests
    )
    if lazy:
        lifecycle = ((e.time, 2, *_lifecycle_row(e)) for e in workload.lifecycle)
        return heapq.merge(lifecycle, publishes, requests, key=itemgetter(0))
    merged = [*publishes, *requests]
    merged.sort(key=itemgetter(0, 1))
    return merged
