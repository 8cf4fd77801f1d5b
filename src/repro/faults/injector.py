"""Injecting a fault schedule into a running simulation.

:class:`FaultInjector` puts every edge of the materialised windows of a
:class:`~repro.faults.schedule.FaultSchedule` on the
:class:`~repro.sim.engine.Environment` agenda as a callback, so crash,
recover and outage transitions interleave with publish/request replay
in virtual time order.

The injector is deliberately ignorant of caching: it only calls the
narrow crash/recover/outage hooks its target exposes (the simulator),
which keeps the fault layer reusable for other drivers.
"""

from __future__ import annotations

from typing import Dict, List, Protocol

from repro.faults.schedule import FaultSchedule, Window
from repro.sim.engine import Callback, Environment


class FaultTarget(Protocol):
    """What the injector needs from the system under test."""

    def on_proxy_crash(self, server_id: int, now: float) -> None: ...

    def on_proxy_recover(self, server_id: int, now: float) -> None: ...

    def on_publisher_outage(self, now: float) -> None: ...

    def on_publisher_recover(self, now: float) -> None: ...


class FaultInjector:
    """Drives a :class:`FaultTarget` through one fault schedule."""

    def __init__(self, schedule: FaultSchedule) -> None:
        self.schedule = schedule

    def install(self, env: Environment, target: FaultTarget) -> None:
        """Schedule every transition of every faulty component.

        Transitions are ``NORMAL`` priority: a delayed notification
        (``URGENT``) and every static record at the same instant go
        first.  Sequence numbers are taken here, in install order
        (proxies by id, then the publisher; windows by time), so
        transitions of *different* components sharing one exact float
        instant fire in that order — a tie no generated schedule
        (exponential draws) has.

        An instant is the previous one plus a difference, not the
        window edge itself (``start + (end - start)`` is not always
        ``end`` in floating point): the downtime totals sum these
        instants and the pinned digests hold them.
        """
        by_server: Dict[int, List[Window]] = {}
        for server_id, window in self.schedule.crash_windows():
            by_server.setdefault(server_id, []).append(window)
        for server_id, windows in by_server.items():
            _schedule_edges(
                env,
                windows,
                lambda e, s=server_id: target.on_proxy_crash(s, e.now),
                lambda e, s=server_id: target.on_proxy_recover(s, e.now),
            )
        _schedule_edges(
            env,
            self.schedule.outage_windows(),
            lambda e: target.on_publisher_outage(e.now),
            lambda e: target.on_publisher_recover(e.now),
        )


def _schedule_edges(
    env: Environment, windows: List[Window], down: Callback, up: Callback
) -> None:
    """``down`` at the start of each of one component's windows, ``up``
    at its end, each instant folded from the one before."""
    at = env.now
    for window in windows:
        at = at + (window.start - at)
        env.schedule(at, down)
        at = at + (window.end - at)
        env.schedule(at, up)
