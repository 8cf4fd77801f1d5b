"""A small metrics registry: counters, gauges and histograms.

Components register instruments by name (get-or-create, so repeated
runs against one registry accumulate) and the registry renders the
whole set either as Prometheus text exposition format or as JSON.
Everything is plain Python — one float per counter/gauge, a fixed
bucket array per histogram — so recording a sample is a dict lookup
plus an addition, cheap enough for simulation hot paths.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple, Union

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format.

    Backslash, double-quote and line-feed are the three characters the
    format requires escaped inside quoted label values; backslash must
    go first so the other escapes aren't double-escaped.
    """
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def escape_help(text: str) -> str:
    """Escape HELP text (backslash and line-feed only, per the format)."""
    return str(text).replace("\\", "\\\\").replace("\n", "\\n")


def _labelset(labels, extra: Optional[Tuple[str, str]] = None) -> str:
    """Render ``{k="v",...}`` with escaped values; "" when empty."""
    pairs = list(labels) if labels else []
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    body = ",".join(f'{k}="{escape_label_value(v)}"' for k, v in pairs)
    return "{" + body + "}"


def _normalize_labels(labels) -> Optional[Tuple[Tuple[str, str], ...]]:
    if not labels:
        return None
    items = sorted((str(k), str(v)) for k, v in dict(labels).items())
    for key, _ in items:
        if not _LABEL_NAME_RE.match(key):
            raise ValueError(f"invalid label name: {key!r}")
    return tuple(items)

#: Default histogram buckets, tuned for modelled response times in
#: seconds (hits land in the first buckets, retried fetches in the
#: tail).  Prometheus convention: upper bounds, +Inf implied.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("name", "help", "labels", "_value")

    def __init__(self, name: str, help: str = "", labels=None) -> None:
        self.name = name
        self.help = help
        self.labels = labels
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

    __slots__ = ("name", "help", "labels", "_value")

    def __init__(self, name: str, help: str = "", labels=None) -> None:
        self.name = name
        self.help = help
        self.labels = labels
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount


class Histogram:
    """A fixed-bucket histogram (Prometheus cumulative semantics).

    ``buckets`` are strictly increasing upper bounds; an implicit +Inf
    bucket catches the rest.  Per-bucket counts are stored
    non-cumulatively and summed at render time, so ``observe`` is one
    ``bisect`` plus two additions.
    """

    __slots__ = ("name", "help", "labels", "buckets", "_counts", "_sum", "_count")

    def __init__(
        self,
        name: str,
        help: str = "",
        labels=None,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError(f"histogram {name} needs at least one bucket")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"histogram {name} buckets must strictly increase: {bounds}")
        self.name = name
        self.help = help
        self.labels = labels
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # last slot is +Inf
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
    """Named instruments with Prometheus-text and JSON exporters."""

    def __init__(self) -> None:
        self._instruments: Dict[str, Instrument] = {}

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def get(self, name: str) -> Optional[Instrument]:
        return self._instruments.get(name)

    def _register(self, kind, name: str, help: str, labels=None, **kwargs) -> Instrument:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name: {name!r}")
        labels = _normalize_labels(labels)
        key = name + _labelset(labels)
        existing = self._instruments.get(key)
        if existing is not None:
            if type(existing) is not kind:
                raise ValueError(
                    f"metric {key!r} already registered as "
                    f"{type(existing).__name__}, not {kind.__name__}"
                )
            buckets = kwargs.get("buckets")
            if buckets is not None and existing.buckets != tuple(
                float(b) for b in buckets
            ):
                raise ValueError(f"histogram {key!r} re-registered with new buckets")
            return existing
        instrument = kind(name, help, labels=labels, **kwargs)
        self._instruments[key] = instrument
        return instrument

    def counter(self, name: str, help: str = "", labels=None) -> Counter:
        """Get or create a counter (``labels``: constant label dict)."""
        return self._register(Counter, name, help, labels=labels)

    def gauge(self, name: str, help: str = "", labels=None) -> Gauge:
        """Get or create a gauge (``labels``: constant label dict)."""
        return self._register(Gauge, name, help, labels=labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        labels=None,
    ) -> Histogram:
        """Get or create a fixed-bucket histogram."""
        return self._register(Histogram, name, help, labels=labels, buckets=buckets)

    # -- exporters ----------------------------------------------------------

    def render_prometheus(self) -> str:
        """The whole registry in Prometheus text exposition format.

        Label values are escaped per the format (backslash, newline,
        double-quote); HELP text escapes backslash and newline.  With
        labelled instruments sharing one metric name, the HELP/TYPE
        header is emitted once per name.
        """
        lines: List[str] = []
        headered = set()
        for key in sorted(self._instruments, key=lambda k: (self._instruments[k].name, k)):
            instrument = self._instruments[key]
            name = instrument.name
            labelset = _labelset(instrument.labels)
            if name not in headered:
                headered.add(name)
                if instrument.help:
                    lines.append(f"# HELP {name} {escape_help(instrument.help)}")
                if isinstance(instrument, Counter):
                    lines.append(f"# TYPE {name} counter")
                elif isinstance(instrument, Gauge):
                    lines.append(f"# TYPE {name} gauge")
                else:
                    lines.append(f"# TYPE {name} histogram")
            if isinstance(instrument, (Counter, Gauge)):
                lines.append(f"{name}{labelset} {_fmt(instrument.value)}")
            else:
                cumulative = instrument.cumulative_counts()
                for bound, count in zip(instrument.buckets, cumulative):
                    bucket_labels = _labelset(
                        instrument.labels, extra=("le", _fmt(bound))
                    )
                    lines.append(f"{name}_bucket{bucket_labels} {count}")
                inf_labels = _labelset(instrument.labels, extra=("le", "+Inf"))
                lines.append(f"{name}_bucket{inf_labels} {cumulative[-1]}")
                lines.append(f"{name}_sum{labelset} {_fmt(instrument.sum)}")
                lines.append(f"{name}_count{labelset} {instrument.count}")
        return "\n".join(lines) + ("\n" if lines else "")


def _fmt(value: float) -> str:
    """Render a float the way Prometheus expects (no trailing .0 noise)."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)
