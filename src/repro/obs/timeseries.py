"""Per-window time series over simulated time, with bounded memory.

The paper's headline results are *trajectories* — hourly hit-ratio and
traffic curves (Figures 4-7) — but the metrics registry only holds
end-of-run totals.  :class:`TimeSeriesCollector` adds the time
dimension: counters, gauges and summary statistics folded into
fixed-width windows of simulated time.

Memory stays bounded no matter how long the run is: at most
``max_windows`` windows are retained in a ring; when a window falls off
the front it is either *spilled* to a JSONL sink (so the full series
survives on disk) or dropped (plain ring semantics, newest windows
win).  Recording a sample is a dict lookup plus an addition — cheap
enough to sit behind the observer hooks on the simulation hot paths.

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
from typing import Dict, IO, List, Optional, Tuple, Union


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

    def __init__(
        self,
        window_seconds: float = 3600.0,
        max_windows: int = 256,
        spill: Optional[Union[str, IO[str]]] = None,
    ) -> None:
        if not window_seconds > 0:  # NaN included
            raise ValueError(f"window_seconds must be > 0, got {window_seconds}")
        if max_windows < 1:
            raise ValueError(f"max_windows must be >= 1, got {max_windows}")
        self.window_seconds = float(window_seconds)
        self.max_windows = int(max_windows)
        self._windows: List[Window] = []
        self._by_index: Dict[int, Window] = {}
        #: Windows that fell off the ring (spilled to the sink or dropped).
        self.spilled = 0
        #: Samples clamped into the oldest retained window because their
        #: own window had already been spilled.
        self.clamped = 0
        self._file: Optional[IO[str]] = None
        self._owns_file = False
        if isinstance(spill, str):
            self._file = open(spill, "w", encoding="utf-8")
            self._owns_file = True
        elif spill is not None:
            self._file = spill

    def __len__(self) -> int:
        return len(self._windows)

    # -- window management ---------------------------------------------------

    def _window_for(self, t: float) -> Window:
        index = int(t // self.window_seconds)
        window = self._by_index.get(index)
        if window is not None:
            return window
        if self._windows and index < self._windows[0].index:
            # The sample's window already left the ring: clamp into the
            # oldest retained one so no sample is silently dropped.
            self.clamped += 1
            return self._windows[0]
        window = Window(index)
        self._windows.append(window)
        self._by_index[index] = window
        while len(self._windows) > self.max_windows:
            old = self._windows.pop(0)
            del self._by_index[old.index]
            self.spilled += 1
            if self._file is not None:
                self._file.write(
                    json.dumps(old.as_dict(self.window_seconds),
                               separators=(",", ":"))
                    + "\n"
                )
        return window

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

    # -- access ------------------------------------------------------------------

    def windows(self) -> List[Dict[str, object]]:
        """The retained windows, oldest first, as plain dicts."""
        return [w.as_dict(self.window_seconds) for w in self._windows]

    def counter_series(self, name: str) -> List[Tuple[int, float]]:
        """``(window_index, value)`` pairs of one counter, oldest first."""
        return [
            (w.index, w.counters[name])
            for w in self._windows
            if name in w.counters
        ]

    def gauge_series(self, name: str) -> List[Tuple[int, float]]:
        """``(window_index, last value)`` pairs of one gauge."""
        return [
            (w.index, w.gauges[name]) for w in self._windows if name in w.gauges
        ]

    def dense_counter(self, name: str, window_count: int) -> List[float]:
        """Counter values for windows ``0..window_count-1``, zero-filled.

        Out-of-range windows clamp into the boundary buckets — the same
        no-drop convention as the result layer's hourly series, so a
        window series with ``window_seconds=3600`` is directly
        comparable to ``SimulationResult.hourly_*``.
        """
        if window_count <= 0:
            return []
        out = [0.0] * window_count
        last = window_count - 1
        for index, value in self.counter_series(name):
            out[min(max(index, 0), last)] += value
        return out

    def ratio_series(self, numerator: str, denominator: str) -> List[Tuple[int, float]]:
        """Per-window ``numerator/denominator`` (e.g. hit ratio).

        Windows where the denominator is absent or zero yield 0.0, so a
        quiet window reads as a flat spot, not a gap.
        """
        out = []
        for window in self._windows:
            denom = window.counters.get(denominator, 0.0)
            num = window.counters.get(numerator, 0.0)
            out.append((window.index, num / denom if denom else 0.0))
        return out

    def as_dict(self) -> Dict[str, object]:
        """The whole collector, JSON-serialisable."""
        return {
            "window_seconds": self.window_seconds,
            "max_windows": self.max_windows,
            "spilled": self.spilled,
            "clamped": self.clamped,
            "windows": self.windows(),
        }

    # -- output -----------------------------------------------------------------

    def write_jsonl(self, sink: Union[str, IO[str]]) -> int:
        """Write the retained windows to ``sink`` as one JSONL line each.

        Returns the number of lines written.  With a spill sink
        configured, older windows were already streamed there; this
        writes the live remainder (typically to a different file, or
        the same handle right before :meth:`close`).
        """
        owns = isinstance(sink, str)
        handle = open(sink, "w", encoding="utf-8") if owns else sink
        try:
            for window in self._windows:
                handle.write(
                    json.dumps(window.as_dict(self.window_seconds),
                               separators=(",", ":"))
                    + "\n"
                )
        finally:
            if owns:
                handle.close()
        return len(self._windows)

    def close(self) -> None:
        """Flush retained windows into the spill sink and close it."""
        if self._file is not None:
            self.write_jsonl(self._file)
            self._file.flush()
            if self._owns_file:
                self._file.close()
            self._file = None

    def __enter__(self) -> "TimeSeriesCollector":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def read_series_jsonl(path: str) -> List[Dict[str, object]]:
    """Load a per-window JSONL series file back into window dicts."""
    windows = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                windows.append(json.loads(line))
            except json.JSONDecodeError as error:
                raise ValueError(f"{path}:{line_number}: bad series line: {error}")
    return windows
