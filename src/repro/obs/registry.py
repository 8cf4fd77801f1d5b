"""A small metrics registry: counters, gauges and histograms.

Components register instruments by name (get-or-create, so repeated
runs against one registry accumulate) and the registry renders the
whole set as Prometheus text exposition format.  Everything is plain
Python — one float per counter/gauge, a fixed bucket array per
histogram — so recording a sample is a dict lookup plus an addition,
cheap enough for simulation hot paths.  Instruments carry no labels:
each name is one series, and a histogram's buckets are its only
``le`` labels.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Dict, List, Tuple, Union

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


def escape_help(text: str) -> str:
    """Escape HELP text (backslash and line-feed only, per the format)."""
    return str(text).replace("\\", "\\\\").replace("\n", "\\n")


#: Histogram buckets, tuned for modelled response times in seconds
#: (hits land in the first buckets, retried fetches in the tail).
#: Prometheus convention: upper bounds, +Inf implied.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("name", "help", "_value")

    def __init__(self, name: str, help: str) -> None:
        self.name = name
        self.help = help
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        self._value += amount


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("name", "help", "_value")

    def __init__(self, name: str, help: str) -> None:
        self.name = name
        self.help = help
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> None:
        self._value = float(value)


class Histogram:
    """A histogram over :data:`DEFAULT_LATENCY_BUCKETS` (Prometheus
    cumulative semantics: an implicit +Inf bucket catches the rest).

    Per-bucket counts are stored non-cumulatively and summed at render
    time, so ``observe`` is one ``bisect`` plus two additions.
    """

    __slots__ = ("name", "help", "buckets", "_counts", "_sum", "_count")

    def __init__(self, name: str, help: str) -> None:
        self.name = name
        self.help = help
        self.buckets = DEFAULT_LATENCY_BUCKETS
        self._counts = [0] * (len(self.buckets) + 1)  # last slot is +Inf
        self._sum = 0.0
        self._count = 0

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def count(self) -> int:
        return self._count

    def observe(self, value: float) -> None:
        self._counts[bisect_left(self.buckets, value)] += 1
        self._sum += value
        self._count += 1

    def cumulative_counts(self) -> List[int]:
        """Counts of samples ``<=`` each bound, then the +Inf total."""
        out = []
        running = 0
        for count in self._counts:
            running += count
            out.append(running)
        return out


Instrument = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Named instruments with a Prometheus-text exporter."""

    def __init__(self) -> None:
        self._instruments: Dict[str, Instrument] = {}

    def _register(self, kind, name: str, help: str) -> Instrument:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name: {name!r}")
        existing = self._instruments.get(name)
        if existing is not None:
            if type(existing) is not kind:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}, not {kind.__name__}"
                )
            return existing
        instrument = kind(name, help)
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str, help: str) -> Counter:
        """Get or create a counter."""
        return self._register(Counter, name, help)

    def gauge(self, name: str, help: str) -> Gauge:
        """Get or create a gauge."""
        return self._register(Gauge, name, help)

    def histogram(self, name: str, help: str) -> Histogram:
        """Get or create a latency histogram."""
        return self._register(Histogram, name, help)

    # -- exporters ----------------------------------------------------------

    def render_prometheus(self) -> str:
        """The whole registry in Prometheus text exposition format, one
        HELP/TYPE header per instrument (HELP text escapes backslash and
        newline), sorted by name."""
        lines: List[str] = []
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            if instrument.help:
                lines.append(f"# HELP {name} {escape_help(instrument.help)}")
            if isinstance(instrument, Counter):
                lines.append(f"# TYPE {name} counter")
            elif isinstance(instrument, Gauge):
                lines.append(f"# TYPE {name} gauge")
            else:
                lines.append(f"# TYPE {name} histogram")
            if isinstance(instrument, (Counter, Gauge)):
                lines.append(f"{name} {_fmt(instrument.value)}")
            else:
                cumulative = instrument.cumulative_counts()
                for bound, count in zip(instrument.buckets, cumulative):
                    lines.append(f'{name}_bucket{{le="{_fmt(bound)}"}} {count}')
                lines.append(f'{name}_bucket{{le="+Inf"}} {cumulative[-1]}')
                lines.append(f"{name}_sum {_fmt(instrument.sum)}")
                lines.append(f"{name}_count {instrument.count}")
        return "\n".join(lines) + ("\n" if lines else "")


def _fmt(value: float) -> str:
    """Render a float the way Prometheus expects (no trailing .0 noise)."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)
