"""The event loop: a virtual clock and an agenda of callbacks.

The engine is deliberately small: a binary-heap agenda of ``(time,
priority, sequence, callback)`` tuples and an :class:`Environment` that
pops them in order and calls ``callback(env)``.  Determinism matters
more than raw speed here — two runs with the same seed must interleave
identically — so ties on time are broken first by an explicit priority
and then by insertion order.
"""

from __future__ import annotations

import heapq
from time import perf_counter
from typing import Callable, List, Optional, Tuple

#: Scheduling priorities.  URGENT beats NORMAL at the same timestamp.
#: Used e.g. so publish events at time t are processed before request
#: events at the same t (a page must exist to be read).
URGENT = 0
NORMAL = 1

#: What the agenda holds: called with the environment at its instant.
Callback = Callable[["Environment"], None]


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel."""


class Environment:
    """The simulation environment: virtual clock plus callback agenda.

    :meth:`schedule` puts ``callback(env)`` on the agenda at an absolute
    time (the content distribution simulator schedules delayed
    notification arrivals and fault transitions this way);
    :meth:`run_before` interleaves a pre-sorted static stream with the
    agenda and :meth:`run` drains it.

    Setting :attr:`profiler` (any object with ``record(name, dt)``,
    e.g. :class:`repro.obs.profile.Profiler`) makes :meth:`run` and
    :meth:`run_before` time each agenda step under the
    ``"engine.step"`` phase.  It defaults to ``None`` and the
    unprofiled loop is untouched, so observability is free when off.

    Setting :attr:`monitor` (any object with ``tick(now)``, e.g.
    :class:`repro.obs.monitor.RunMonitor`) makes the loops call
    ``tick`` once per dispatched event, enabling live heartbeats.  Like
    the profiler it defaults to ``None`` and the branch is hoisted out
    of the unmonitored loop.
    """

    #: Optional span profiler for the event loop (see class docstring).
    profiler = None
    #: Optional live run monitor, ticked once per dispatched event.
    monitor = None

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._agenda: List[Tuple[float, int, int, Callback]] = []
        self._sequence = 0

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if the agenda is empty."""
        if not self._agenda:
            return float("inf")
        return self._agenda[0][0]

    def step(self) -> None:
        """Process exactly one event (advance the clock to it)."""
        if not self._agenda:
            raise SimulationError("agenda is empty")
        at, _priority, _seq, callback = heapq.heappop(self._agenda)
        self._now = at
        callback(self)

    def schedule(self, at: float, callback: Callback, priority: int = NORMAL) -> None:
        """Run ``callback(env)`` at absolute time ``at``."""
        if at < self._now:
            raise SimulationError(
                f"cannot schedule into the past: {at} < now={self._now}"
            )
        self._sequence += 1
        heapq.heappush(self._agenda, (at, priority, self._sequence, callback))

    def run_before(self, at: float, priority: int) -> None:
        """Run every agenda event sorting strictly before ``(at, priority)``,
        then set the clock to ``at``.

        The replay driver calls this ahead of each record of its
        pre-sorted static stream and then dispatches the record itself,
        so the agenda only ever holds *dynamic* events (fault
        transitions, anything scheduled while running).  Had the static
        records been scheduled up front they would hold lower sequence
        numbers than every dynamic event, so on a full ``(time,
        priority)`` tie the static record must win — hence *strictly*
        before.  Relative order among dynamic events is the heap's.
        """
        agenda = self._agenda
        profiler = self.profiler
        monitor = self.monitor
        while agenda:
            head = agenda[0]
            if head[0] > at or (head[0] == at and head[1] >= priority):
                break
            if profiler is None:
                self.step()
            else:
                started = perf_counter()
                self.step()
                profiler.record("engine.step", perf_counter() - started)
            if monitor is not None:
                monitor.tick(self._now)
        if at < self._now:
            raise SimulationError(
                f"static stream goes back in time: {at} < now={self._now}"
            )
        self._now = at

    def run(self, until: Optional[float] = None) -> None:
        """Run until the agenda empties or the clock passes ``until``.

        When ``until`` is given, the clock is left exactly at ``until``
        even if no event fires there.
        """
        if until is not None and until < self._now:
            raise SimulationError(f"until={until} lies in the past (now={self._now})")
        profiler = self.profiler
        monitor = self.monitor
        if profiler is None and monitor is None:
            while self._agenda:
                if until is not None and self._agenda[0][0] > until:
                    break
                self.step()
        elif monitor is None:
            record = profiler.record
            while self._agenda:
                if until is not None and self._agenda[0][0] > until:
                    break
                started = perf_counter()
                self.step()
                record("engine.step", perf_counter() - started)
        else:
            if profiler is not None:
                record = profiler.record
            tick = monitor.tick
            while self._agenda:
                if until is not None and self._agenda[0][0] > until:
                    break
                if profiler is None:
                    self.step()
                else:
                    started = perf_counter()
                    self.step()
                    record("engine.step", perf_counter() - started)
                tick(self._now)
        if until is not None:
            self._now = max(self._now, until)
