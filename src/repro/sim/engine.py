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
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

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
    :func:`agenda_stream` interleaves a pre-sorted static stream with
    the agenda and :meth:`run` drains it.  Neither times nor counts what
    it runs: ``run --profile`` is cProfile around the whole run, and
    the live monitor is ticked by the replay loop, once per record.
    """

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

    def run(self, until: Optional[float] = None) -> None:
        """Run until the agenda empties or the clock passes ``until``.

        When ``until`` is given, the clock is left exactly at ``until``
        even if no event fires there.
        """
        if until is not None and until < self._now:
            raise SimulationError(f"until={until} lies in the past (now={self._now})")
        while self._agenda:
            if until is not None and self._agenda[0][0] > until:
                break
            self.step()
        if until is not None:
            self._now = max(self._now, until)


def agenda_stream(
    env: Environment, records: Iterable[tuple], on_row: Optional[Callable] = None
) -> Iterator[tuple]:
    """The publishes and requests of the time-sorted ``(time, kind, a,
    b, c, d)`` ``records``, each yielded after every agenda event sorting
    strictly before ``(time, priority)`` ran (a request, kind 1, sorts
    ``NORMAL``, other kinds ``URGENT``) and the clock moved to it; a
    lifecycle row (kind 2) goes to ``on_row(a, b, c, d, time)`` instead.
    *Strictly*: rows scheduled up front would hold lower sequence numbers
    than every dynamic event, so a row wins a full tie.  The agenda is
    drained when the records end."""
    agenda = env._agenda
    step = env.step
    for record in records:
        at, kind = record[0], record[1]
        priority = NORMAL if kind == 1 else URGENT
        while agenda:
            head = agenda[0]
            if head[0] > at or (head[0] == at and head[1] >= priority):
                break
            step()
        if at < env._now:
            raise SimulationError(
                f"static stream goes back in time: {at} < now={env._now}"
            )
        env._now = at
        if kind == 2:
            on_row(record[2], record[3], record[4], record[5], at)
        else:
            yield record
    env.run()
