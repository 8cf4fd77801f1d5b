"""Fault schedules: when which component is down or degraded.

A :class:`FaultSchedule` is a fully materialised, immutable plan of
fault windows for one run — proxy crash/recover intervals, publisher
outage intervals and degraded-link episodes.  Materialising the whole
schedule up front (instead of drawing failures during the replay) has
two payoffs:

* determinism — the schedule depends only on the fault RNG streams, so
  the same seed produces the same crashes regardless of the workload
  replay interleaving, and
* foresight for the retry model — resolving "does a backed-off retry
  land after the publisher recovers?" is a pure window lookup.

All lookups use half-open windows ``[start, end)``: a component is down
at its crash instant and back up at its recovery instant.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Window:
    """One half-open fault interval ``[start, end)``."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"window start must be >= 0, got {self.start}")
        if self.end <= self.start:
            raise ValueError(f"empty window: [{self.start}, {self.end})")

    @property
    def duration(self) -> float:
        return self.end - self.start

    def covers(self, at: float) -> bool:
        return self.start <= at < self.end


@dataclass(frozen=True)
class DegradedWindow(Window):
    """A degraded-link episode: slow and/or lossy, but not down."""

    latency_multiplier: float = 1.0
    loss_probability: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.latency_multiplier < 1.0:
            raise ValueError(
                f"latency_multiplier must be >= 1, got {self.latency_multiplier}"
            )
        if not 0.0 <= self.loss_probability < 1.0:
            raise ValueError(
                f"loss_probability must be in [0, 1), got {self.loss_probability}"
            )


def _normalise(windows: Iterable[Window]) -> List[Window]:
    """Sort windows by start and reject overlaps (one component cannot
    be down twice at once)."""
    ordered = sorted(windows, key=lambda w: w.start)
    for earlier, later in zip(ordered, ordered[1:]):
        if later.start < earlier.end:
            raise ValueError(
                f"overlapping fault windows: [{earlier.start}, {earlier.end}) "
                f"and [{later.start}, {later.end})"
            )
    return ordered


class _Timeline:
    """Sorted non-overlapping windows with O(log n) point lookups."""

    __slots__ = ("windows", "_starts")

    def __init__(self, windows: Iterable[Window]) -> None:
        self.windows: List[Window] = _normalise(windows)
        self._starts = [window.start for window in self.windows]

    def at(self, time: float) -> Optional[Window]:
        """The window covering ``time``, or None."""
        index = bisect_right(self._starts, time) - 1
        if index >= 0 and self.windows[index].covers(time):
            return self.windows[index]
        return None

    @property
    def total_duration(self) -> float:
        return sum(window.duration for window in self.windows)

    def __len__(self) -> int:
        return len(self.windows)


class FaultSchedule:
    """The complete fault plan of one simulation run."""

    def __init__(
        self,
        proxy_crashes: Optional[Mapping[int, Sequence[Window]]] = None,
        publisher_outages: Sequence[Window] = (),
        degraded_links: Optional[Mapping[int, Sequence[DegradedWindow]]] = None,
        broker_crashes: Optional[Mapping[int, Sequence[Window]]] = None,
    ) -> None:
        self._proxy: Dict[int, _Timeline] = {
            int(server): _Timeline(windows)
            for server, windows in (proxy_crashes or {}).items()
            if windows
        }
        self._publisher = _Timeline(publisher_outages)
        self._links: Dict[int, _Timeline] = {
            int(server): _Timeline(windows)
            for server, windows in (degraded_links or {}).items()
            if windows
        }
        self._brokers: Dict[int, _Timeline] = {
            int(broker): _Timeline(windows)
            for broker, windows in (broker_crashes or {}).items()
            if windows
        }

    # -- queries -----------------------------------------------------------

    @property
    def empty(self) -> bool:
        """True when the schedule injects no fault at all."""
        return (
            not self._proxy
            and not len(self._publisher)
            and not self._links
            and not self._brokers
        )

    @property
    def has_broker_faults(self) -> bool:
        """Whether any broker node on the push path ever crashes."""
        return bool(self._brokers)

    def proxy_down(self, server_id: int, at: float) -> bool:
        timeline = self._proxy.get(server_id)
        return timeline is not None and timeline.at(at) is not None

    def publisher_down(self, at: float) -> bool:
        return self._publisher.at(at) is not None

    def broker_down(self, broker_id: int, at: float) -> bool:
        """Whether push-path broker ``broker_id`` is down at ``at``."""
        timeline = self._brokers.get(broker_id)
        return timeline is not None and timeline.at(at) is not None

    def degradation(self, server_id: int, at: float) -> Optional[DegradedWindow]:
        """The degraded-link episode covering proxy ``server_id`` now."""
        timeline = self._links.get(server_id)
        if timeline is None:
            return None
        window = timeline.at(at)
        return window if isinstance(window, DegradedWindow) else None

    # -- iteration (the injector walks these) ------------------------------

    def crash_windows(self) -> List[Tuple[int, Window]]:
        """All (server_id, window) crash pairs, by server then time."""
        return [
            (server, window)
            for server in sorted(self._proxy)
            for window in self._proxy[server].windows
        ]

    def outage_windows(self) -> List[Window]:
        return list(self._publisher.windows)

    # -- summary stats -----------------------------------------------------

    @property
    def crash_count(self) -> int:
        return sum(len(timeline) for timeline in self._proxy.values())

    @property
    def publisher_outage_seconds(self) -> float:
        return self._publisher.total_duration

    @property
    def proxy_downtime_seconds(self) -> float:
        return sum(t.total_duration for t in self._proxy.values())

    @property
    def broker_crash_count(self) -> int:
        return sum(len(timeline) for timeline in self._brokers.values())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FaultSchedule(crashes={self.crash_count}, "
            f"outages={len(self._publisher)}, "
            f"degraded_links={sum(len(t) for t in self._links.values())}, "
            f"broker_crashes={self.broker_crash_count})"
        )


#: A schedule with no faults — handy for tests and the bit-identity check.
EMPTY_SCHEDULE = FaultSchedule()
