"""Observability: metrics registry, event tracing, profiling, logging.

The simulation layers report *what happened* through one optional
:class:`~repro.obs.recorder.Observer`; this package holds the pieces:

* :class:`~repro.obs.registry.MetricsRegistry` — named, unlabelled
  counters, gauges and fixed-bucket histograms with a Prometheus-text
  exporter;
* :class:`~repro.obs.tracer.EventTracer` — structured, sim-time-stamped
  lifecycle events (the taxonomy in
  :data:`~repro.obs.tracer.EVENT_TYPES`) streamed to a JSONL sink,
  each carrying the bound run context;
* :func:`~repro.obs.profile.profile_call` — one call under cProfile,
  self time and calls folded per ``repro`` package (``run --profile``);
* :class:`~repro.obs.timeseries.TimeSeriesCollector` — counters,
  gauges and stats folded into fixed-width simulated-time windows
  with bounded memory (ring + JSONL spill): the per-window
  hit-ratio / traffic / churn trajectories the paper's figures plot;
* :class:`~repro.obs.monitor.RunMonitor` — live wall-clock heartbeats
  (events/sec, sim-time progress + ETA, RSS, cache occupancy) while a
  run executes;
* :mod:`repro.obs.explain` — reconstruct one page's causal lifecycle
  chain from a trace and answer "why was this request a miss?";
* :mod:`repro.obs.inspect` — summarise a trace file back into answers;
* :mod:`repro.obs.log` — stdlib logging under the ``repro.*``
  namespace (NullHandler by default; the CLI installs a console
  handler for ``-v``/``-vv``).

The module-level :data:`~repro.obs.recorder.NULL_OBSERVER` is the
default everywhere: with no observer attached a run's results are
bit-identical to an unobserved build and the overhead is one boolean
test per simulation event.
"""

from typing import TYPE_CHECKING

from repro import lazy_exports

if TYPE_CHECKING:
    from repro.obs.explain import PageExplanation, explain_page, explain_page_from_file
    from repro.obs.log import get_logger, setup_cli_logging
    from repro.obs.monitor import RunMonitor, rss_bytes
    from repro.obs.profile import profile_call
    from repro.obs.recorder import NULL_OBSERVER, NullObserver, Observer, build_observer
    from repro.obs.registry import (
        Counter, DEFAULT_LATENCY_BUCKETS, Gauge, Histogram, MetricsRegistry, escape_help,
    )
    from repro.obs.timeseries import TimeSeriesCollector
    from repro.obs.tracer import EVENT_TYPES, EventTracer, read_jsonl

__all__ = [
    "Observer",
    "NullObserver",
    "NULL_OBSERVER",
    "build_observer",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_LATENCY_BUCKETS",
    "escape_help",
    "EventTracer",
    "EVENT_TYPES",
    "read_jsonl",
    "TimeSeriesCollector",
    "RunMonitor",
    "rss_bytes",
    "PageExplanation",
    "explain_page",
    "explain_page_from_file",
    "profile_call",
    "get_logger",
    "setup_cli_logging",
]

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "explain": ("PageExplanation", "explain_page", "explain_page_from_file"),
    "log": ("get_logger", "setup_cli_logging"),
    "monitor": ("RunMonitor", "rss_bytes"),
    "profile": ("profile_call",),
    "recorder": ("NULL_OBSERVER", "NullObserver", "Observer", "build_observer"),
    "registry": (
        "Counter", "DEFAULT_LATENCY_BUCKETS", "Gauge", "Histogram", "MetricsRegistry",
        "escape_help",
    ),
    "timeseries": ("TimeSeriesCollector",),
    "tracer": ("EVENT_TYPES", "EventTracer", "read_jsonl"),
})
