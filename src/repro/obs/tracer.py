"""Structured, sim-time-stamped event tracing.

The tracer records one small dict per lifecycle event — the taxonomy
below covers a page's whole life from publication through placement,
requests, degradation and eviction, plus component fault transitions —
either into an in-memory ring buffer (the default; old events fall off
the front) or streamed to a JSONL sink so arbitrarily long runs stay
O(1) in memory.

Filters (`pages`, `proxies`, `types`) are applied at emit time, so a
trace restricted to one URL or one proxy stays tiny even on a large
run; that is what makes "replay the life of page 4711" workable.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Dict, IO, Iterable, List, Optional, Union

from repro.obs.recorder import event_types

#: The event taxonomy: the trace types of ``recorder.EVENTS``, the one
#: table the observer's hooks, the ``inspect`` / ``explain`` type sets and
#: the docs table are all read from.
EVENT_TYPES = event_types()


class EventTracer:
    """Collects trace events into a ring buffer and/or a JSONL sink."""

    def __init__(
        self,
        sink: Optional[Union[str, IO[str]]] = None,
        max_events: int = 100_000,
        pages: Optional[Iterable[int]] = None,
        proxies: Optional[Iterable[int]] = None,
        types: Optional[Iterable[str]] = None,
    ) -> None:
        if max_events < 0:
            raise ValueError(f"max_events must be >= 0, got {max_events}")
        self._ring: deque = deque(maxlen=max_events) if max_events else None
        self._pages = frozenset(int(p) for p in pages) if pages is not None else None
        self._proxies = (
            frozenset(int(p) for p in proxies) if proxies is not None else None
        )
        if types is not None:
            unknown = set(types) - EVENT_TYPES
            if unknown:
                raise ValueError(f"unknown event types: {sorted(unknown)}")
            self._types = frozenset(types)
        else:
            self._types = None
        self._context: Dict[str, object] = {}
        self._file: Optional[IO[str]] = None
        self._owns_file = False
        if isinstance(sink, str):
            self._file = open(sink, "w", encoding="utf-8")
            self._owns_file = True
        elif sink is not None:
            self._file = sink
        self.dropped = 0  #: events rejected by a filter

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
        """Record one event; silently filtered if it fails a filter.

        Run-framing events (``run_start``/``run_end``) bypass the
        page/proxy/type filters so every trace stays self-describing.
        """
        framing = type == "run_start" or type == "run_end"
        if not framing:
            if self._types is not None and type not in self._types:
                self.dropped += 1
                return
            if self._pages is not None and (page is None or page not in self._pages):
                self.dropped += 1
                return
            if self._proxies is not None and (
                proxy is None or proxy not in self._proxies
            ):
                self.dropped += 1
                return
        event: Dict[str, object] = {"t": t, "type": type}
        if page is not None:
            event["page"] = page
        if proxy is not None:
            event["proxy"] = proxy
        if self._context:
            event.update(self._context)
        if fields:
            event.update(fields)
        if self._ring is not None:
            self._ring.append(event)
        if self._file is not None:
            self._file.write(json.dumps(event, separators=(",", ":")) + "\n")

    # -- access ------------------------------------------------------------

    def events(self) -> List[Dict[str, object]]:
        """The ring buffer's current contents, oldest first."""
        return list(self._ring) if self._ring is not None else []

    def events_for_page(self, page_id: int) -> List[Dict[str, object]]:
        """Replay one page's buffered life, in event order."""
        return [e for e in self.events() if e.get("page") == page_id]

    def close(self) -> None:
        """Flush and (if the tracer opened it) close the JSONL sink."""
        if self._file is not None:
            self._file.flush()
            if self._owns_file:
                self._file.close()
            self._file = None

    def __enter__(self) -> "EventTracer":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def read_jsonl(path: str) -> List[Dict[str, object]]:
    """Load a JSONL trace file back into a list of event dicts."""
    events = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as error:
                raise ValueError(f"{path}:{line_number}: bad trace line: {error}")
    return events
