"""Spilled trace generation: the §4 pipeline with the event rows on disk.

:func:`generate_streaming_workload` runs the exact same generation
pipeline as :func:`repro.workload.trace.generate_workload` — same
streams, same draw order, same values — and returns the same
:class:`~repro.workload.trace.Workload`; only where the rows live
differs.  Events are buffered in bounded numpy chunks, sorted, and
spilled to disk as *runs*; when generation ends the runs are k-way
merged **once** into one sorted file per stream (external merge sort),
and the workload's two tables are ``np.memmap``\\ s over those files.
Everything downstream is the ordinary ``Workload`` code reading rows the
OS pages in and out; replay merges such a trace lazily instead of
retaining a merged copy, so a 10M-event trace costs O(chunk) to replay.

Bit identity with the in-memory trace follows from two facts:

* **Same draws.**  Both consume the one block generator,
  :func:`repro.workload.trace._request_columns` (request times, then
  server assignment, a block of pages at a time in id order), against
  the same named streams.
* **Same order.**  Both sort by the full row — ``(time, server_id,
  page_id)`` / ``(time, page_id, version)`` — here run by run and then
  by merging on that key, so the file is the unique sorted order of the
  same multiset (``tests/workload/test_streaming.py`` asserts ``spilled
  == in_memory`` over seeds, scales and chunk sizes).

Generation holds page metadata (O(pages)), the spill buffer (O(chunk))
and one block's request arrays at a time, versus 16 bytes retained per
event.  This module, and ``tempfile``/``shutil``/``weakref`` with it, is
imported only by the streaming entry points.
"""

from __future__ import annotations

import heapq
import os
import shutil
import tempfile
import weakref
from itertools import accumulate, chain, islice
from typing import Iterable, List, Tuple

import numpy as np

from repro.sim.rng import RandomStreams
from repro.workload.config import WorkloadConfig
from repro.workload.trace import (
    ROW_DTYPES,
    EventTable,
    PublishRecord,
    RequestRecord,
    Workload,
    _page_table,
    _request_columns,
    sorted_rows,
)

#: Default spill threshold (events buffered before a run is written)
#: and read granularity (rows turned into Python objects at a time, by
#: the merge and by replay), both in events.
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

    Shared by a workload and its copies (``with_churn``, shards), so the
    files live exactly as long as any table mapped over them.
    """

    def __init__(self) -> None:
        self.directory = tempfile.mkdtemp(prefix="repro-stream-")
        self._finalizer = weakref.finalize(
            self, _cleanup_spool, self.directory, os.getpid()
        )

    def close(self) -> None:
        self._finalizer()


def _map_rows(path: str, dtype: np.dtype, count: int) -> np.ndarray:
    """``count`` rows of ``path``, memory-mapped read-only.

    The size is checked first: on a short file ``np.memmap`` raises a
    bare ``ValueError``, and a file cut *after* mapping is a ``SIGBUS``
    nothing can catch.
    """
    size = os.path.getsize(path)
    if size != count * dtype.itemsize:
        raise OSError(
            f"truncated spool {path}: wanted {count} rows "
            f"({count * dtype.itemsize} bytes), got {size} bytes"
        )
    if count == 0:  # an empty file cannot be mapped
        return np.empty(0, dtype=dtype)
    return np.memmap(path, dtype=dtype, mode="r", shape=(count,))


def _merge_runs(path: str, record: type, runs: List[int], read_chunk: int) -> None:
    """Replace the sorted runs in ``path`` (``runs``: rows in each) by their merge."""
    dtype = ROW_DTYPES[record]
    rows = _map_rows(path, dtype, sum(runs))
    # One read buffer per run is alive at once, so ``read_chunk`` is a
    # *total* budget divided across the runs — otherwise merge memory
    # would grow linearly with the trace (more events -> more spilled
    # runs x a fixed buffer each).
    per_run = max(64, read_chunk // len(runs))
    # .tolist() on structured rows yields tuples of native python
    # scalars, which compare exactly like the sort key (the fields are
    # laid out in key order).
    merged = heapq.merge(
        *(
            chain.from_iterable(
                map(np.ndarray.tolist, EventTable(record, rows[end - count : end], per_run).chunks())
            )
            for end, count in zip(accumulate(runs), runs)
        )
    )
    with open(path + ".merged", "wb") as handle:
        while batch := list(islice(merged, read_chunk)):
            np.array(batch, dtype=dtype).tofile(handle)
    del rows, merged  # unmap before the file is replaced
    os.replace(path + ".merged", path)


def _spill(
    spool: _Spool,
    record: type,
    column_chunks: Iterable[Tuple[np.ndarray, ...]],
    chunk_events: int,
    read_chunk: int,
) -> EventTable:
    """``column_chunks`` as one sorted table of ``record`` rows on disk.

    At most ``chunk_events`` rows are buffered before they are sorted
    and written as one run; the runs are merged once at the end.
    """
    path = os.path.join(spool.directory, f"{record.__name__}.bin")
    dtype = ROW_DTYPES[record]
    runs: List[int] = []
    buffered: List[Tuple[np.ndarray, ...]] = []
    pending = 0
    with open(path, "wb") as handle:
        for columns in chain(column_chunks, [None]):  # None: end of input
            if columns is not None:
                buffered.append(columns)
                pending += len(columns[0])
            if pending and (columns is None or pending >= chunk_events):
                sorted_rows(
                    dtype, tuple(map(np.concatenate, zip(*buffered)))
                ).tofile(handle)
                runs.append(pending)
                buffered, pending = [], 0
    if len(runs) > 1:
        _merge_runs(path, record, runs, read_chunk)
    return EventTable(record, _map_rows(path, dtype, sum(runs)), read_chunk)


def generate_streaming_workload(
    config: WorkloadConfig,
    streams: RandomStreams,
    label: str = "",
    chunk_events: int = DEFAULT_CHUNK_EVENTS,
    read_chunk: int = DEFAULT_READ_CHUNK,
) -> Workload:
    """Run the §4 pipeline spilling events to disk instead of RAM.

    The page table and the request columns come from the generators
    :func:`~repro.workload.trace.generate_workload` itself consumes
    (``_page_table`` / ``_request_columns``), so the two traces
    are bit-identical by construction; only where the rows *live*
    differs.  ``OSError`` when the spool cannot be created or written.
    """
    if chunk_events < 1:
        raise ValueError(f"chunk_events must be >= 1, got {chunk_events}")
    pages, version_times = _page_table(config, streams)

    publish_columns = (
        (
            np.asarray(times, dtype=np.float64),
            np.full(len(times), page_id, dtype=np.int32),
            np.arange(len(times), dtype=np.int32),
        )
        for page_id, times in enumerate(version_times)
    )
    request_columns = _request_columns(config, streams, pages, version_times)
    spool = _Spool()
    try:
        return Workload(
            config=config,
            pages=pages,
            publishes=_spill(
                spool, PublishRecord, publish_columns, chunk_events, read_chunk
            ),
            requests=_spill(
                spool, RequestRecord, request_columns, chunk_events, read_chunk
            ),
            label=label,
            spool=spool,
        )
    except BaseException:
        spool.close()
        raise


def make_streaming_trace(
    name: str,
    scale: float = 1.0,
    seed: int = 7,
    chunk_events: int = DEFAULT_CHUNK_EVENTS,
) -> Workload:
    """Spilled counterpart of :func:`repro.workload.presets.make_trace`."""
    from repro.workload.presets import preset_config

    return generate_streaming_workload(
        preset_config(name, scale),
        RandomStreams(seed),
        label=name.lower(),
        chunk_events=chunk_events,
    )
