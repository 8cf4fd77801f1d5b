"""The agenda engine, kept as the replay driver's test oracle.

Every trace record becomes one heap-scheduled callback and the DES loop
pops them all: lifecycle records first, then publishes, then requests,
so at equal ``(time, priority)`` their sequence numbers reproduce the
driver's tie rule.  Nothing here shares code with ``Simulation._replay``
or ``Simulation._stream``; the handlers and everything below them are
the production ones, which is the point — the oracle checks the driver,
not the layers.
"""

from repro.sim.engine import NORMAL, URGENT
from repro.system.cooperation import CooperativeSimulation
from repro.system.simulator import Simulation


class _AgendaReplay:
    def _replay(self, env):
        for record in self.workload.lifecycle:
            env.schedule(
                record.time,
                lambda _env, r=record: self._handle_lifecycle(r, None, _env.now),
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
