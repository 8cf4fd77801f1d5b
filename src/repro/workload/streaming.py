"""Streaming workload generation: the §4 pipeline with flat memory.

:func:`generate_streaming_workload` runs the exact same generation
pipeline as :func:`repro.workload.trace.generate_workload` — same
streams, same draw order, same values — but never holds the full
publish/request record lists in memory.  Instead, events are buffered
in bounded numpy chunks, sorted, and spilled to disk as *runs* of a
binary spool file; replay k-way-merges the runs lazily (external merge
sort), so iterating a 10M-event trace costs O(chunk), not O(trace).

Bit identity with the materialized form follows from two facts:

* **Same draws.**  Both forms consume the one per-page generator,
  :func:`repro.workload.trace._request_columns` (request times, then
  server assignment, page by page in id order), against the same
  named streams.
* **Same order.**  The materialized form sorts requests by
  ``(time, server_id, page_id)`` and publishes by ``(time, page_id)``.
  Each spilled run is sorted by the full key and the k-way merge
  combines runs by the same key, so the merged sequence is the unique
  sorted order of the same multiset — element-wise equal to the
  materialized lists (``tests/workload/test_streaming.py`` asserts
  this property over seeds, scales and chunk sizes).

What *is* kept in memory is bounded by trace shape, not length: page
metadata (O(pages)), the aggregated ``(page_id, server_id) → count``
table (O(distinct pairs), capped by pages x servers), and the spill
buffer (O(chunk)).  Generation additionally holds one page's request
arrays at a time — the transient high-water mark is the hottest page,
a small constant x its count, versus the materialized form's ~100
bytes per record *retained for every record at once*.

The aggregated pair counts stand in for the request-pair list wherever
only counts matter: eq. 7 match tables
(:func:`repro.workload.subscriptions.build_match_counts` accepts the
mapping form), capacity sizing and churn generation — all bit-identical
to their materialized counterparts.
"""

from __future__ import annotations

import heapq
import os
import shutil
import tempfile
import weakref
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.sim.rng import RandomStreams
from repro.workload.config import WorkloadConfig
from repro.workload.trace import (
    PageSpec,
    PublishRecord,
    RequestRecord,
    Workload,
    _page_table,
    _request_columns,
    capacities_from_unique,
    unique_bytes_from_pairs,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workload.churn import ChurnSpec, LifecycleRecord

#: On-disk row layouts.  Times are the float64 values the generators
#: drew (binary round trip is exact), ids are int32 (plenty: page and
#: server counts are bounded far below 2**31).
REQUEST_DTYPE = np.dtype(
    [("time", "<f8"), ("server", "<i4"), ("page", "<i4")]
)
PUBLISH_DTYPE = np.dtype(
    [("time", "<f8"), ("page", "<i4"), ("version", "<i4")]
)

#: Default spill threshold (events buffered before a run is written)
#: and replay read granularity (rows per read), both in events.
DEFAULT_CHUNK_EVENTS = 1 << 18
DEFAULT_READ_CHUNK = 1 << 16


def _cleanup_spool(directory: str, owner_pid: int) -> None:
    """Remove a spool directory — but only in the process that made it.

    Forked shard workers inherit the finalizer registry; without the
    pid guard the first worker to exit would delete the spool out from
    under the parent and its sibling shards.
    """
    if os.getpid() == owner_pid:
        shutil.rmtree(directory, ignore_errors=True)


class _Spool:
    """Owns the on-disk spool directory; removed when unreferenced.

    Shared by a workload and its ``with_churn`` copies, so the files
    live exactly as long as any view over them.
    """

    def __init__(self) -> None:
        self.directory = tempfile.mkdtemp(prefix="repro-stream-")
        self.request_path = os.path.join(self.directory, "requests.bin")
        self.publish_path = os.path.join(self.directory, "publishes.bin")
        self._finalizer = weakref.finalize(
            self, _cleanup_spool, self.directory, os.getpid()
        )

    def close(self) -> None:
        self._finalizer()


def _iter_run(
    path: str,
    dtype: np.dtype,
    start_row: int,
    row_count: int,
    read_chunk: int,
) -> Iterator[tuple]:
    """Rows of one sorted run as plain-python tuples, chunk by chunk."""
    with open(path, "rb") as handle:
        handle.seek(start_row * dtype.itemsize)
        remaining = row_count
        while remaining > 0:
            count = min(read_chunk, remaining)
            chunk = np.fromfile(handle, dtype=dtype, count=count)
            if len(chunk) != count:
                raise IOError(
                    f"truncated spool run in {path}: wanted {count} rows, "
                    f"got {len(chunk)}"
                )
            remaining -= count
            # .tolist() on a structured array yields tuples of native
            # python scalars, which compare exactly like the sort key
            # (the fields are laid out in key order).
            yield from chunk.tolist()


class _RecordView:
    """A re-iterable view over one merged stream of a streaming trace."""

    __slots__ = ("_iter_factory", "_count")

    def __init__(self, iter_factory, count: int) -> None:
        self._iter_factory = iter_factory
        self._count = count

    def __iter__(self):
        return self._iter_factory()

    def __len__(self) -> int:
        return self._count


class StreamingWorkload:
    """A generated trace whose event streams live on disk.

    Duck-compatible with :class:`~repro.workload.trace.Workload` for
    everything the simulator consumes: ``config``, ``pages``,
    ``label``, ``lifecycle``, ``churn``, ``capacities``,
    ``request_pairs`` (mapping form), ``publish_count``/
    ``request_count``, and re-iterable ``publishes``/``requests``
    views.  The views yield the records lazily in exactly the
    materialized sort order.
    """

    #: Engine dispatch flag: iterate, never index or len-and-loop.
    streaming = True

    def __init__(
        self,
        config: WorkloadConfig,
        pages: List[PageSpec],
        spool: _Spool,
        publish_runs: List[Tuple[int, int]],
        request_runs: List[Tuple[int, int]],
        pair_counts: Dict[Tuple[int, int], int],
        publish_total: int,
        request_total: int,
        label: str = "",
        lifecycle: Optional[List["LifecycleRecord"]] = None,
        churn: Optional["ChurnSpec"] = None,
        read_chunk: int = DEFAULT_READ_CHUNK,
    ) -> None:
        self.config = config
        self.pages = pages
        self.label = label
        self.lifecycle: List["LifecycleRecord"] = list(lifecycle or [])
        self.churn = churn
        self._spool = spool
        self._publish_runs = publish_runs
        self._request_runs = request_runs
        self._pair_counts = pair_counts
        self._publish_total = publish_total
        self._request_total = request_total
        self._read_chunk = int(read_chunk)

    # -- counts ----------------------------------------------------------

    @property
    def publish_count(self) -> int:
        return self._publish_total

    @property
    def request_count(self) -> int:
        return self._request_total

    # -- the merged streams ----------------------------------------------

    def _merged_rows(
        self, path: str, dtype: np.dtype, runs: List[Tuple[int, int]]
    ) -> Iterator[tuple]:
        # The k-way merge keeps one read buffer per run alive at once,
        # so ``read_chunk`` is a *total* budget divided across the runs
        # — otherwise merge memory would grow linearly with the trace
        # (more events -> more spilled runs x a fixed buffer each).
        per_run = max(64, self._read_chunk // max(1, len(runs)))
        iterators = [
            _iter_run(path, dtype, start, count, per_run)
            for start, count in runs
        ]
        if len(iterators) == 1:
            return iterators[0]
        return heapq.merge(*iterators)

    def iter_publishes(self) -> Iterator[PublishRecord]:
        """Publish events in ``(time, page_id)`` order, lazily."""
        for time, page_id, version in self._merged_rows(
            self._spool.publish_path, PUBLISH_DTYPE, self._publish_runs
        ):
            yield PublishRecord(time=time, page_id=page_id, version=version)

    def iter_requests(self) -> Iterator[RequestRecord]:
        """Requests in ``(time, server_id, page_id)`` order, lazily."""
        for time, server_id, page_id in self._merged_rows(
            self._spool.request_path, REQUEST_DTYPE, self._request_runs
        ):
            yield RequestRecord(
                time=time, server_id=server_id, page_id=page_id
            )

    @property
    def publishes(self) -> _RecordView:
        return _RecordView(self.iter_publishes, self._publish_total)

    @property
    def requests(self) -> _RecordView:
        return _RecordView(self.iter_requests, self._request_total)

    # -- aggregates (bit-identical to the materialized form) --------------

    def request_pairs(self) -> Dict[Tuple[int, int], int]:
        """Aggregated ``(page_id, server_id) → request count`` mapping.

        The mapping form of :meth:`Workload.request_pairs`:
        :func:`~repro.workload.subscriptions.build_match_counts` and
        :func:`~repro.workload.churn.generate_churn` only consume the
        counts / the distinct-pair set, so both produce bit-identical
        output from either form.  Treat the returned dict as read-only.
        """
        return self._pair_counts

    def per_server_request_counts(self) -> Dict[int, int]:
        """Total requests arriving at each server (shard planning)."""
        totals: Dict[int, int] = {}
        for (_page_id, server_id), count in self._pair_counts.items():
            totals[server_id] = totals.get(server_id, 0) + count
        return totals

    def unique_bytes_per_server(self) -> Dict[int, int]:
        """Unique requested bytes per server; see :class:`Workload`."""
        return unique_bytes_from_pairs(self.pages, self._pair_counts)

    def capacities(self, fraction: float) -> Dict[int, int]:
        """Per-server capacities; bit-identical to the materialized form."""
        return capacities_from_unique(
            self.unique_bytes_per_server(), self.config.server_count, fraction
        )

    #: The materialized form's closed-form lookup; it reads ``pages`` only.
    version_at = Workload.version_at

    # -- subscription churn ----------------------------------------------

    def with_churn(
        self, spec: "ChurnSpec", rng: np.random.Generator
    ) -> "StreamingWorkload":
        """A copy with the lifecycle stream attached (spool is shared).

        ``generate_churn`` deduplicates and sorts its input pairs, so
        feeding it the distinct-pair keys produces the exact stream the
        materialized per-request pair list would.
        """
        from repro.workload.churn import generate_churn

        events = generate_churn(
            self._pair_counts.keys(), self.config.horizon, spec, rng
        )
        return StreamingWorkload(
            config=self.config,
            pages=self.pages,
            spool=self._spool,
            publish_runs=self._publish_runs,
            request_runs=self._request_runs,
            pair_counts=self._pair_counts,
            publish_total=self._publish_total,
            request_total=self._request_total,
            label=self.label,
            lifecycle=events,
            churn=spec,
            read_chunk=self._read_chunk,
        )

    # -- materialization (tests, serialization fallback) -------------------

    def materialize(self) -> "Workload":
        """Collect the streams into an ordinary :class:`Workload`."""
        return Workload(
            config=self.config,
            pages=self.pages,
            publishes=list(self.iter_publishes()),
            requests=list(self.iter_requests()),
            label=self.label,
            lifecycle=list(self.lifecycle),
            churn=self.churn,
        )

    def close(self) -> None:
        """Delete the spool now instead of waiting for GC.

        Shared with any ``with_churn`` copies — closing one closes all.
        """
        self._spool.close()


class _SpillWriter:
    """Accumulates column chunks and spills sorted runs to a spool file."""

    def __init__(self, path: str, dtype: np.dtype, chunk_events: int) -> None:
        self._handle = open(path, "wb")
        self._dtype = dtype
        self._chunk_events = max(1, int(chunk_events))
        self._columns: List[Tuple[np.ndarray, ...]] = []
        self._buffered = 0
        self._next_row = 0
        self.runs: List[Tuple[int, int]] = []
        self.total = 0

    def append(self, *columns: np.ndarray) -> None:
        count = len(columns[0])
        if count == 0:
            return
        self._columns.append(columns)
        self._buffered += count
        self.total += count
        if self._buffered >= self._chunk_events:
            self.flush()

    def flush(self) -> None:
        if not self._columns:
            return
        stacked = [
            np.concatenate([chunk[i] for chunk in self._columns])
            for i in range(len(self._columns[0]))
        ]
        # lexsort's *last* key is primary: columns are laid out in key
        # order (time first), so reverse them for the sort.
        order = np.lexsort(tuple(reversed(stacked)))
        rows = np.empty(len(order), dtype=self._dtype)
        for name, column in zip(self._dtype.names, stacked):
            rows[name] = column[order]
        rows.tofile(self._handle)
        self.runs.append((self._next_row, len(rows)))
        self._next_row += len(rows)
        self._columns = []
        self._buffered = 0

    def close(self) -> None:
        self.flush()
        self._handle.close()


def generate_streaming_workload(
    config: WorkloadConfig,
    streams: RandomStreams,
    label: str = "",
    chunk_events: int = DEFAULT_CHUNK_EVENTS,
    read_chunk: int = DEFAULT_READ_CHUNK,
) -> StreamingWorkload:
    """Run the §4 pipeline spilling events to disk instead of RAM.

    The page table and the per-page request columns come from the
    generators :func:`~repro.workload.trace.generate_workload` itself
    consumes (``_page_table`` / ``_request_columns``), so the two forms
    are bit-identical by construction; only where the records *live*
    differs.
    """
    if chunk_events < 1:
        raise ValueError(f"chunk_events must be >= 1, got {chunk_events}")
    pages, version_times = _page_table(config, streams)

    spool = _Spool()
    try:
        publish_writer = _SpillWriter(
            spool.publish_path, PUBLISH_DTYPE, chunk_events
        )
        for page_id, times in enumerate(version_times):
            count = len(times)
            if count == 0:
                continue
            publish_writer.append(
                np.asarray(times, dtype=np.float64),
                np.full(count, page_id, dtype=np.int32),
                np.arange(count, dtype=np.int32),
            )
        publish_writer.close()

        request_writer = _SpillWriter(
            spool.request_path, REQUEST_DTYPE, chunk_events
        )
        pair_counts: Dict[Tuple[int, int], int] = {}
        for page_id, times, servers in _request_columns(
            config, streams, pages, version_times
        ):
            request_writer.append(
                times, servers, np.full(len(times), page_id, dtype=np.int32)
            )
            unique_servers, per_server = np.unique(servers, return_counts=True)
            for server_id, server_count in zip(
                unique_servers.tolist(), per_server.tolist()
            ):
                pair_counts[(page_id, server_id)] = server_count
        request_writer.close()
    except BaseException:
        spool.close()
        raise

    return StreamingWorkload(
        config=config,
        pages=pages,
        spool=spool,
        publish_runs=publish_writer.runs,
        request_runs=request_writer.runs,
        pair_counts=pair_counts,
        publish_total=publish_writer.total,
        request_total=request_writer.total,
        label=label,
        read_chunk=read_chunk,
    )


def make_streaming_trace(
    name: str,
    scale: float = 1.0,
    seed: int = 7,
    chunk_events: int = DEFAULT_CHUNK_EVENTS,
) -> StreamingWorkload:
    """Streaming counterpart of :func:`repro.workload.presets.make_trace`."""
    from repro.workload.presets import alternative_config, news_config

    key = name.lower()
    if key == "news":
        config = news_config(scale)
    elif key == "alternative":
        config = alternative_config(scale)
    else:
        raise KeyError(f"unknown trace {name!r}; use 'news' or 'alternative'")
    return generate_streaming_workload(
        config, RandomStreams(seed), label=key, chunk_events=chunk_events
    )
