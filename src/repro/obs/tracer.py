"""Structured, sim-time-stamped event tracing.

The tracer streams one small JSON object per lifecycle event to a JSONL
sink — the taxonomy below covers a page's whole life from publication
through placement, requests, degradation and eviction, plus component
fault transitions — so arbitrarily long runs stay O(1) in memory.  Each
line carries the run context bound by ``run_start`` (strategy, trace,
seed, ...), which is what lets ``inspect`` / ``explain`` replay the life
of one page from the file alone.
"""

from __future__ import annotations

import json
from typing import Dict, IO, List, Optional

from repro.obs.recorder import event_types

#: The event taxonomy: the trace types of ``recorder.EVENTS``, the one
#: table the observer's hooks, the ``inspect`` / ``explain`` type sets and
#: the docs table are all read from.
EVENT_TYPES = event_types()


class EventTracer:
    """Streams trace events to a JSONL file."""

    def __init__(self, sink: str) -> None:
        self._context: Dict[str, object] = {}
        self._file: Optional[IO[str]] = open(sink, "w", encoding="utf-8")

    # -- context -----------------------------------------------------------

    def bind(self, **context) -> None:
        """Merge fields into every subsequent event (e.g. strategy)."""
        for key, value in context.items():
            if value is None:
                self._context.pop(key, None)
            else:
                self._context[key] = value

    # -- recording ---------------------------------------------------------

    def emit(
        self,
        type: str,
        t: float,
        page: Optional[int] = None,
        proxy: Optional[int] = None,
        **fields,
    ) -> None:
        """Write one event: ``t``, ``type``, then ``page`` / ``proxy`` when
        given, the bound context and the event's own fields."""
        event: Dict[str, object] = {"t": t, "type": type}
        if page is not None:
            event["page"] = page
        if proxy is not None:
            event["proxy"] = proxy
        if self._context:
            event.update(self._context)
        if fields:
            event.update(fields)
        self._file.write(json.dumps(event, separators=(",", ":")) + "\n")

    def close(self) -> None:
        """Close the JSONL sink (idempotent)."""
        if self._file is not None:
            self._file.close()
            self._file = None


def read_jsonl(path: str) -> List[Dict[str, object]]:
    """Load a JSONL trace file back into a list of event dicts."""
    events = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(f"{path}:{line_number}: bad trace line: {error}")
            if not isinstance(event, dict):
                raise ValueError(
                    f"{path}:{line_number}: bad trace line: "
                    f"expected an object, got {type(event).__name__}"
                )
            for name in ("page", "proxy", "version"):  # ids ``inspect`` / ``explain`` use
                if name in event and type(event[name]) is not int:  # a bool is not one
                    raise ValueError(
                        f"{path}:{line_number}: bad trace line: "
                        f"{name} must be an integer, got {json.dumps(event[name])}"
                    )
            events.append(event)
    return events
