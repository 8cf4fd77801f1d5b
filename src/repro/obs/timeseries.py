"""Per-window time series over simulated time, with bounded memory.

The paper's headline results are *trajectories* — hourly hit-ratio and
traffic curves (Figures 4-7) — but the metrics registry only holds
end-of-run totals.  :class:`TimeSeriesCollector` adds the time
dimension: counters, gauges and summary statistics folded into
fixed-width windows of simulated time.

Memory stays bounded no matter how long the run is: at most
:data:`MAX_WINDOWS` windows are retained in a ring; when a window falls
off the front it is *spilled* to the JSONL sink, and :meth:`close`
writes the retained rest, so the full series ends up on disk.
Recording a sample is a dict lookup plus an addition — cheap enough to
sit behind the observer hooks on the simulation hot paths.

Three instrument kinds per window:

* **counter** (:meth:`~TimeSeriesCollector.inc`) — per-window sums
  (requests, hits, fetches, lease churn, ...);
* **gauge** (:meth:`~TimeSeriesCollector.set_gauge`) — the last sampled
  value in each window (queue depth, cache occupancy);
* **stat** (:meth:`~TimeSeriesCollector.observe`) — per-window
  count/sum/min/max of a sampled quantity (request latency).

Windows are identified by ``int(t // window_seconds)``; samples almost
always arrive in nondecreasing simulation time (the engine guarantees
it), but a late sample for an already-spilled window is clamped into
the oldest retained window rather than lost (the same no-drop
convention as :func:`repro.system.metrics.dense_clamped`).
"""

from __future__ import annotations

import json
from typing import Dict, IO, List, Optional

#: Windows kept in memory before the oldest is spilled to the sink.
MAX_WINDOWS = 256


class Window:
    """One fixed-width window of folded samples."""

    __slots__ = ("index", "counters", "gauges", "stats")

    def __init__(self, index: int) -> None:
        self.index = index
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        #: name -> [count, sum, min, max]
        self.stats: Dict[str, List[float]] = {}

    def as_dict(self, window_seconds: float) -> Dict[str, object]:
        """A JSON-serialisable record of this window."""
        out: Dict[str, object] = {
            "window": self.index,
            "start": self.index * window_seconds,
            "end": (self.index + 1) * window_seconds,
        }
        if self.counters:
            out["counters"] = dict(self.counters)
        if self.gauges:
            out["gauges"] = dict(self.gauges)
        if self.stats:
            out["stats"] = {
                name: {"count": c, "sum": s, "min": lo, "max": hi}
                for name, (c, s, lo, hi) in self.stats.items()
            }
        return out


class TimeSeriesCollector:
    """Folds observer samples into fixed-width simulated-time windows."""

    def __init__(self, window_seconds: float, spill: str) -> None:
        if not window_seconds > 0:  # NaN included
            raise ValueError(f"window_seconds must be > 0, got {window_seconds}")
        self.window_seconds = float(window_seconds)
        self._windows: List[Window] = []
        self._by_index: Dict[int, Window] = {}
        self._file: Optional[IO[str]] = open(spill, "w", encoding="utf-8")

    # -- window management ---------------------------------------------------

    def _window_for(self, t: float) -> Window:
        index = int(t // self.window_seconds)
        window = self._by_index.get(index)
        if window is not None:
            return window
        if self._windows and index < self._windows[0].index:
            # The sample's window already left the ring: clamp into the
            # oldest retained one so no sample is silently dropped.
            return self._windows[0]
        window = Window(index)
        self._windows.append(window)
        self._by_index[index] = window
        while len(self._windows) > MAX_WINDOWS:
            old = self._windows.pop(0)
            del self._by_index[old.index]
            self._write(old)
        return window

    def _write(self, window: Window) -> None:
        self._file.write(
            json.dumps(window.as_dict(self.window_seconds), separators=(",", ":"))
            + "\n"
        )

    # -- recording -------------------------------------------------------------

    def inc(self, t: float, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to counter ``name`` in ``t``'s window."""
        counters = self._window_for(t).counters
        counters[name] = counters.get(name, 0.0) + amount

    def set_gauge(self, t: float, name: str, value: float) -> None:
        """Record the latest value of gauge ``name`` in ``t``'s window."""
        self._window_for(t).gauges[name] = float(value)

    def observe(self, t: float, name: str, value: float) -> None:
        """Fold one sample into the window's count/sum/min/max stat."""
        stats = self._window_for(t).stats
        entry = stats.get(name)
        if entry is None:
            stats[name] = [1, float(value), float(value), float(value)]
            return
        entry[0] += 1
        entry[1] += value
        if value < entry[2]:
            entry[2] = value
        if value > entry[3]:
            entry[3] = value

    # -- output -----------------------------------------------------------------

    def close(self) -> None:
        """Write the retained windows to the sink and close it (idempotent)."""
        if self._file is not None:
            for window in self._windows:
                self._write(window)
            self._file.close()
            self._file = None
