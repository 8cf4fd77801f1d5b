"""Machine-speed calibration: a fixed pure-Python kernel, no repro imports.

This box's speed moves by tens of percent, in episodes a few seconds
long and in drifts over minutes (shared host, no hardware counters, no
steal accounting), and CPU time moves with it: a raw wall time compares
machine states as much as programs.  Every timed region is therefore
reported in *calibrated seconds*: ``raw * CALIB_REF_S / calib_s``, where
``calib_s`` is how long the kernel below took — or would have taken —
while the region ran.  The kernel does what the simulator's hot paths
do, dict probes and heap push/pop on small tuples, so it slows down
when they do.

Two ways to get ``calib_s``:

* :func:`calibrate` runs the whole kernel once.  ``run.py`` brackets
  each ``repro.cli`` subprocess with it; the region is half a second,
  so the brackets sit inside the same episode.
* :class:`SpeedSampler` runs 1/120 of the kernel from a timer signal
  every 40 ms *inside* a region, in the measured process itself.  An
  in-process region lasts seconds — longer than an episode — and the
  brackets miss what happens in between (relative standard deviation
  over 20 repeats of paper-cell: 14.6 % raw, 11.3 % bracketed, 3.8 %
  sampled).  The samples' own time is taken out of the region's wall.
"""

from __future__ import annotations

import random
import signal
import time
from heapq import heappop, heappush
from typing import List

#: Iterations of the full kernel; changing this redefines the unit.
CALIB_ITERATIONS = 240_000
#: The kernel's nominal duration: calibrated seconds equal raw seconds
#: on a machine that runs the kernel in exactly this time.  A constant,
#: never re-measured, so numbers stay comparable across commits.
CALIB_REF_S = 0.150
#: One sampler tick: ~1.3 ms of kernel every 40 ms, ~3 % of the region.
SAMPLE_ITERATIONS = 2_000
SAMPLE_PERIOD_S = 0.040

_KEYS = [random.Random(20030616).randrange(1 << 16) for _ in range(4096)]


def _kernel(iterations: int) -> float:
    keys = _KEYS
    table: dict = {}
    heap: list = []
    get = table.get
    start = time.perf_counter()
    for i in range(iterations):
        key = keys[i & 4095]
        table[key] = get(key, 0) + 1
        heappush(heap, (key ^ (i & 1023), i))
        if len(heap) > 64:
            table[heappop(heap)[0]] = i
    return time.perf_counter() - start


def calibrate() -> float:
    """Run the full kernel once; its wall time in seconds."""
    return _kernel(CALIB_ITERATIONS)


def calibrated(raw_seconds: float, calib_s: float) -> float:
    """``raw_seconds`` rescaled to the reference machine speed."""
    return raw_seconds * CALIB_REF_S / calib_s


class SpeedSampler:
    """Sample the kernel from SIGALRM while a ``with`` block runs.

    It may be entered more than once; the samples add up.

    Python runs signal handlers in the main thread between bytecodes,
    so a tick competes with nothing: it shares the region's core, cache
    and machine state, which a sampler in another process would not.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        #: Time the timer's ticks took; not the program's, so not in its wall.
        self.overhead_s = 0.0
        self._busy = False

    def _tick(self, signum=None, frame=None) -> None:
        if self._busy:  # a tick outlasted the period: drop the overlap
            return
        self._busy = True
        self.samples.append(_kernel(SAMPLE_ITERATIONS))
        self.overhead_s += self.samples[-1]
        self._busy = False

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            # The region was shorter than one period: sample now, after
            # the caller's clock has stopped, so it is nobody's overhead.
            self.samples.append(_kernel(SAMPLE_ITERATIONS))

    @property
    def calib_s(self) -> float:
        """What the full kernel would have taken at the region's mean speed.

        Ticks are evenly spaced in time, so the mean of their *speeds*
        (1/duration) is the time-averaged machine speed, which is what
        the work done in the region scales with.
        """
        mean_speed = sum(1.0 / sample for sample in self.samples) / len(self.samples)
        return (CALIB_ITERATIONS / SAMPLE_ITERATIONS) / mean_speed
