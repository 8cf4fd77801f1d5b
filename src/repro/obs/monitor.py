"""Live run monitor: periodic heartbeats while a simulation runs.

Long runs (the ROADMAP's million-subscriber north star replays tens of
millions of events) are a black box today: the process goes quiet for
minutes and the only signal is the final summary line.  `RunMonitor`
emits a heartbeat every ``interval`` wall-clock seconds with the four
things an operator actually wants to know:

* **throughput** — records replayed and records/sec since start;
* **progress** — simulated time against the workload horizon, plus an
  ETA extrapolated from the wall-clock rate so far;
* **memory** — resident set size (``/proc/self/statm`` when available,
  ``resource.getrusage`` otherwise);
* **cache occupancy** — total bytes held across proxy caches, via a
  probe callable installed by the simulator.

Heartbeats go to stderr as single human-readable lines by default, or
to a JSONL sink (path or file object) for machine consumption.

The replay loop calls :meth:`tick` once per static record, so the hot
path must stay trivial: a counter decrement and compare; only every
``check_every`` events does the monitor look at the wall clock, and
only when ``interval`` has elapsed does it format anything.  The
monitor reads simulation state and never touches RNG streams, so runs
are bit-identical with or without it.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Callable, Dict, IO, Optional, Union


def rss_bytes() -> Optional[int]:
    """Current resident set size in bytes, or None if unmeasurable."""
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as handle:
            pages = int(handle.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        # ru_maxrss is kilobytes on Linux (peak, not current — still a
        # useful upper bound where /proc is unavailable).
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    except Exception:
        return None


def _fmt_bytes(n: Optional[float]) -> str:
    if n is None:
        return "?"
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024.0 or unit == "GiB":
            return f"{value:.1f}{unit}" if unit != "B" else f"{int(value)}B"
        value /= 1024.0
    return f"{value:.1f}GiB"


def _fmt_seconds(s: Optional[float]) -> str:
    if s is None:
        return "?"
    s = max(0.0, float(s))
    if s < 60:
        return f"{s:.0f}s"
    if s < 3600:
        return f"{int(s // 60)}m{int(s % 60):02d}s"
    return f"{int(s // 3600)}h{int(s % 3600) // 60:02d}m"


class RunMonitor:
    """Emits periodic progress heartbeats during a simulation run."""

    def __init__(
        self,
        interval: float = 5.0,
        sink: Optional[Union[str, IO[str]]] = None,
        check_every: int = 1024,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not interval > 0:  # NaN included
            raise ValueError(f"interval must be > 0, got {interval}")
        if check_every < 1:
            raise ValueError(f"check_every must be >= 1, got {check_every}")
        self.interval = float(interval)
        self.check_every = int(check_every)
        self._clock = clock
        self._file: Optional[IO[str]] = None
        self._owns_file = False
        self._jsonl = sink is not None
        if isinstance(sink, str):
            self._file = open(sink, "w", encoding="utf-8")
            self._owns_file = True
        elif sink is not None:
            self._file = sink
        self.horizon: Optional[float] = None
        self.cache_probe: Optional[Callable[[], int]] = None
        self.events = 0
        self.heartbeat_count = 0
        self.last: Optional[Dict[str, object]] = None
        self._countdown = self.check_every
        self._started: Optional[float] = None
        self._last_emit = 0.0

    def configure(
        self,
        horizon: Optional[float] = None,
        cache_probe: Optional[Callable[[], int]] = None,
    ) -> None:
        """Install run-specific context (called by the simulator)."""
        if horizon is not None:
            self.horizon = float(horizon)
        if cache_probe is not None:
            self.cache_probe = cache_probe

    def start(self) -> None:
        """Mark the wall-clock start of the run."""
        self._started = self._clock()
        self._last_emit = self._started
        self.events = 0
        self._countdown = self.check_every

    # -- hot path ------------------------------------------------------------

    def tick(self, now: float) -> None:
        """Account one replayed record at simulated time ``now``.

        Called once per record by the replay loop; everything beyond the
        countdown decrement is amortised over ``check_every`` events.
        """
        self.events += 1
        self._countdown -= 1
        if self._countdown > 0:
            return
        self._countdown = self.check_every
        wall = self._clock()
        if wall - self._last_emit >= self.interval:
            self._emit(now, wall, final=False)

    # -- emission -------------------------------------------------------------

    def _emit(self, now: float, wall: float, final: bool) -> None:
        if self._started is None:
            self._started = wall
        elapsed = wall - self._started
        rate = self.events / elapsed if elapsed > 0 else None
        progress = None
        eta = None
        if self.horizon and self.horizon > 0:
            progress = min(1.0, now / self.horizon)
            if progress > 0 and elapsed > 0 and not final:
                eta = elapsed * (1.0 - progress) / progress
        beat: Dict[str, object] = {
            "wall_elapsed": round(elapsed, 3),
            "sim_time": now,
            "progress": round(progress, 4) if progress is not None else None,
            "eta_seconds": round(eta, 1) if eta is not None else None,
            "events": self.events,
            "events_per_sec": round(rate, 1) if rate is not None else None,
            "rss_bytes": rss_bytes(),
            "cache_used_bytes": self.cache_probe() if self.cache_probe else None,
            "final": final,
        }
        self.last = beat
        self.heartbeat_count += 1
        self._last_emit = wall
        if self._file is not None:
            self._file.write(json.dumps(beat, separators=(",", ":")) + "\n")
            self._file.flush()
        if not self._jsonl:
            self._write_text(beat)

    def _write_text(self, beat: Dict[str, object]) -> None:
        progress = beat["progress"]
        pct = f" ({progress * 100:.1f}%)" if progress is not None else ""
        horizon = f"/{self.horizon:g}" if self.horizon else ""
        eta = beat["eta_seconds"]
        eta_part = f" eta={_fmt_seconds(eta)}" if eta is not None else ""
        rate = beat["events_per_sec"]
        rate_part = f" ({rate:,.0f} ev/s)" if rate is not None else ""
        cache = beat["cache_used_bytes"]
        cache_part = f" cache={_fmt_bytes(cache)}" if cache is not None else ""
        tag = "done" if beat["final"] else "run"
        sys.stderr.write(
            f"[monitor {tag}] t={beat['sim_time']:g}{horizon}{pct}{eta_part}"
            f" events={beat['events']}{rate_part}"
            f" rss={_fmt_bytes(beat['rss_bytes'])}{cache_part}\n"
        )

    # -- teardown --------------------------------------------------------------

    def finish(self, now: float) -> None:
        """Emit the final heartbeat (end of run)."""
        self._emit(now, self._clock(), final=True)

    def close(self) -> None:
        if self._file is not None:
            self._file.flush()
            if self._owns_file:
                self._file.close()
            self._file = None
