"""Event loop and core waitable primitives.

The engine is deliberately small: a binary-heap agenda of ``(time,
priority, sequence, event)`` tuples and an :class:`Environment` that pops
them in order.  Determinism matters more than raw speed here — two runs
with the same seed must interleave identically — so ties on time are
broken first by an explicit priority and then by insertion order.
"""

from __future__ import annotations

import heapq
from time import perf_counter
from typing import Any, Callable, List, Optional, Tuple

#: Scheduling priorities.  URGENT beats NORMAL at the same timestamp;
#: NORMAL beats LOW.  Used e.g. so publish events at time t are processed
#: before request events at the same t (a page must exist to be read).
URGENT = 0
NORMAL = 1
LOW = 2


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel."""


class Event:
    """A one-shot occurrence that callbacks and processes can wait on.

    An event moves through three states: *pending* (created, not yet
    triggered), *triggered* (scheduled on the agenda with a value) and
    *processed* (callbacks have run).  Events may succeed with a value
    or fail with an exception; waiting processes see the exception
    re-raised at their ``yield``.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered", "_processed")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: List[Callable[["Event"], None]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        self._triggered = False
        self._processed = False

    @property
    def triggered(self) -> bool:
        """``True`` once :meth:`succeed` or :meth:`fail` has been called."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """``True`` once the engine has run this event's callbacks."""
        return self._processed

    @property
    def ok(self) -> bool:
        """``True`` if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError("event has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The success value or failure exception of the event."""
        if not self._triggered:
            raise SimulationError("event has not been triggered yet")
        return self._value

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully with ``value`` after ``delay``."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        self.env._enqueue(self.env.now + delay, NORMAL, self)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event as failed with ``exception`` after ``delay``."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exception
        self.env._enqueue(self.env.now + delay, NORMAL, self)
        return self


class Timeout(Event):
    """An event that fires automatically after a fixed delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        super().__init__(env)
        self.delay = delay
        self._triggered = True
        self._ok = True
        self._value = value
        env._enqueue(env.now + delay, NORMAL, self)


class Environment:
    """The simulation environment: virtual clock plus event agenda.

    Use :meth:`schedule` for plain callback scheduling (the content
    distribution simulator schedules delayed notification arrivals this
    way), :meth:`process` to launch a generator-based process (see
    :mod:`repro.sim.process`), or :meth:`run_before` to interleave a
    pre-sorted static stream with the agenda.

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
        self._agenda: List[Tuple[float, int, int, Event]] = []
        self._sequence = 0

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    # -- low-level agenda ------------------------------------------------

    def _enqueue(self, at: float, priority: int, event: Event) -> None:
        if at < self._now:
            raise SimulationError(
                f"cannot schedule into the past: {at} < now={self._now}"
            )
        self._sequence += 1
        heapq.heappush(self._agenda, (at, priority, self._sequence, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if the agenda is empty."""
        if not self._agenda:
            return float("inf")
        return self._agenda[0][0]

    def step(self) -> None:
        """Process exactly one event (advance the clock to it)."""
        if not self._agenda:
            raise SimulationError("agenda is empty")
        at, _priority, _seq, event = heapq.heappop(self._agenda)
        self._now = at
        callbacks, event.callbacks = event.callbacks, []
        event._processed = True
        for callback in callbacks:
            callback(event)

    # -- public scheduling API -------------------------------------------

    def event(self) -> Event:
        """Create a new untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def schedule(
        self,
        at: float,
        callback: Callable[["Environment"], None],
        priority: int = NORMAL,
    ) -> Event:
        """Run ``callback(env)`` at absolute time ``at``.

        Returns the underlying event (mainly useful for tests).
        """
        event = Event(self)
        event._triggered = True
        event._ok = True
        event.callbacks.append(lambda _evt: callback(self))
        self._enqueue(at, priority, event)
        return event

    def process(self, generator) -> "Process":
        """Launch ``generator`` as a simulation process."""
        from repro.sim.process import Process

        return Process(self, generator)

    def run_before(self, at: float, priority: int) -> None:
        """Run every agenda event sorting strictly before ``(at, priority)``,
        then set the clock to ``at``.

        The replay driver calls this ahead of each record of its
        pre-sorted static stream and then dispatches the record itself,
        so the agenda only ever holds *dynamic* events (timeouts,
        processes, anything scheduled while running).  Had the static
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
        even if no event fires there, mirroring SimPy semantics.
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
