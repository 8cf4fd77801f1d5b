"""Workload assembly: the full §4 pipeline and the one trace form.

:func:`generate_workload` runs sizes → popularity → publishing →
request times → server split and returns a :class:`Workload`: per-page
metadata plus two time-sorted event tables, publishes ``(time, page_id,
version)`` and requests ``(time, server_id, page_id)``; churn attaches a
third, the lifecycle stream (:mod:`repro.workload.churn`).  Each table
is a numpy structured array behind an :class:`EventTable`, which builds
:class:`PublishRecord` / :class:`RequestRecord` / ``LifecycleRecord``
objects only where a caller indexes or iterates it (tests, examples,
the agenda oracle); everything in the package reads the columns.  A
spilled trace
(:mod:`repro.workload.streaming`) and a shard
(:meth:`Workload.for_servers`) are this same class with the rows
memory-mapped or masked.  Subscription tables are built separately per
SQ value with :func:`repro.workload.subscriptions.build_match_counts` so
one trace can be reused across the Fig. 5 quality sweep;
:meth:`Workload.replay_stream` merges the tables, under one such table,
into the record stream the replay driver reads.
"""

from __future__ import annotations

import heapq
import io
import json
import weakref
import zipfile
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field, fields, asdict, replace
from itertools import chain, repeat, starmap
from operator import attrgetter, eq, itemgetter
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.obs.log import get_logger
from repro.sim.rng import RandomStreams
from repro.workload.config import WorkloadConfig
from repro.workload.popularity import popularity_model
from repro.workload.publishing import generate_publishing_stream
from repro.workload.requests import request_times
from repro.workload.servers import assign_servers, pool_size
from repro.workload.sizes import generate_sizes

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (churn imports
    # validate, which imports this module); runtime imports are local.
    from repro.workload.churn import ChurnSpec, LifecycleRecord

logger = get_logger(__name__)

#: Rows turned into Python objects at a time, wherever a table is
#: iterated: whole-column ``tolist()`` calls set the peak RSS of a
#: paper-scale run (docs/architecture.md, "Replay driver").  Also the
#: least number of request rows generated per block of pages.
CHUNK_ROWS = 1 << 14


@dataclass(frozen=True)
class PageSpec:
    """Static description of one distinct page."""

    page_id: int
    size: int
    rank: int
    popularity_class: int
    request_count: int
    first_publish: float
    modification_interval: float  # 0.0 when never modified
    version_count: int


@dataclass(frozen=True, slots=True)
class PublishRecord:
    """One publish event: version ``version`` of ``page_id`` at ``time``."""

    time: float
    page_id: int
    version: int


@dataclass(frozen=True, slots=True)
class RequestRecord:
    """One end-user request arriving at proxy ``server_id``."""

    time: float
    server_id: int
    page_id: int


#: Row layout of each event kind.  Field names are the record's, field
#: order is the stream's sort key; times are the float64 values the
#: generators drew (exact in binary and through ``repr``), ids are int32
#: (page and server counts sit far below 2**31).  ``repro.workload.churn``
#: registers the lifecycle row beside ``LifecycleRecord`` when imported.
ROW_DTYPES = {
    PublishRecord: np.dtype([("time", "<f8"), ("page_id", "<i4"), ("version", "<i4")]),
    RequestRecord: np.dtype([("time", "<f8"), ("server_id", "<i4"), ("page_id", "<i4")]),
}


class EventTable(Sequence):
    """One event stream: structured ``rows`` read as ``record`` objects.

    A list of records in everything but storage: ``len``, index, slice
    (a table over the same rows), iteration and ``==`` against a table
    or a list.  A record exists only while a caller holds it.  A record
    type whose row stores a field differently (a lifecycle kind, as a
    code) converts through its own ``to_row`` / ``from_row``.
    """

    __slots__ = ("record", "build", "rows", "chunk_rows")

    def __init__(self, record, events=(), chunk_rows: int = CHUNK_ROWS) -> None:
        self.record = record
        self.build = getattr(record, "from_row", record)  # row fields -> record
        if not isinstance(events, np.ndarray):
            dtype = ROW_DTYPES[record]
            to_row = getattr(record, "to_row", None) or attrgetter(*dtype.names)
            events = np.array(list(map(to_row, events)), dtype=dtype)
        self.rows = events
        self.chunk_rows = chunk_rows

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return EventTable(self.record, self.rows[index], self.chunk_rows)
        return self.build(*self.rows[index].tolist())

    def chunks(self) -> Iterator[np.ndarray]:
        """The rows in order, at most ``chunk_rows`` at a time."""
        for start in range(0, len(self.rows), self.chunk_rows):
            yield self.rows[start : start + self.chunk_rows]

    def __iter__(self):
        for chunk in self.chunks():
            yield from starmap(self.build, chunk.tolist())

    def __eq__(self, other) -> bool:
        if isinstance(other, EventTable):
            return self.record is other.record and np.array_equal(self.rows, other.rows)
        if isinstance(other, Sequence):
            return len(self) == len(other) and all(map(eq, self, other))
        return NotImplemented

    def columns(self) -> Dict[str, list]:
        """The stored form: one list per field (``repr`` keeps floats exact)."""
        return {name: self.rows[name].tolist() for name in self.rows.dtype.names}


def sorted_rows(dtype: np.dtype, columns: Sequence) -> np.ndarray:
    """Key-ordered ``columns`` as rows of ``dtype``, stably sorted by all
    of them, the first column the primary key."""
    order = np.lexsort(columns[::-1])  # lexsort's *last* key is primary
    rows = np.empty(len(order), dtype=dtype)
    for name, column in zip(dtype.names, columns):
        rows[name] = column[order]
    return rows


def pair_codes(rows: np.ndarray) -> np.ndarray:
    """``page_id << 32 | server_id`` of each request row: one sortable
    int64 per (page, proxy) pair."""
    return rows["page_id"].astype(np.int64) << 32 | rows["server_id"]


def _memo(factory=lambda: None):
    """A cache field.  ``init=False`` keeps it out of ``dataclasses.replace``
    copies (``with_churn`` and friends), so a copy whose ``requests`` were
    replaced rebuilds its memos instead of inheriting stale ones."""
    return field(default_factory=factory, repr=False, init=False, compare=False)


class _PerTable(weakref.WeakKeyDictionary):
    """A memo keyed by match table that lets go of an entry once nothing
    else holds its table; it pickles (as a fresh, empty one) where a
    ``WeakKeyDictionary`` would not."""

    def __reduce__(self):
        return type(self), ()


@dataclass
class Workload:
    """A complete generated trace — the only trace type."""

    config: WorkloadConfig
    pages: List[PageSpec]
    #: The two event tables.  A list of records (or a bare row array) is
    #: accepted and wrapped, so a hand-built trace stays a one-liner.
    publishes: Sequence[PublishRecord]
    requests: Sequence[RequestRecord]
    #: name of the preset that produced this trace ("news", ...), if any.
    label: str = ""
    #: Subscription lifecycle events (subscribe/renew/unsubscribe), the
    #: third time-sorted table; an empty list on a churn-free trace, so
    #: that one never imports the churn module.
    lifecycle: Sequence["LifecycleRecord"] = field(default_factory=list)
    #: The churn parameters that produced ``lifecycle`` (None = off).
    churn: Optional["ChurnSpec"] = None
    #: Owner of the files behind memory-mapped tables (None: the rows
    #: live in RAM).  Copies share it; replay reads it only to decide
    #: whether it may retain a merged copy of the trace.
    spool: Optional[object] = field(default=None, repr=False, compare=False)
    _pair_counts: Optional[Dict[Tuple[int, int], int]] = _memo()
    #: The merged replay stream, retained as columns (:meth:`replay_stream`):
    #: the five the trace alone decides — time as an ``array('d')``, kind as
    #: ``bytes``, three lists of shared objects — and one ``d`` list per
    #: match table still alive.  Nothing outside this module reads either.
    _stream_columns: Optional[tuple] = _memo()
    _match_columns: _PerTable = _memo(_PerTable)

    def __post_init__(self) -> None:
        if not isinstance(self.publishes, EventTable):
            self.publishes = EventTable(PublishRecord, self.publishes)
        if not isinstance(self.requests, EventTable):
            self.requests = EventTable(RequestRecord, self.requests)
        if len(self.lifecycle) and not isinstance(self.lifecycle, EventTable):
            from repro.workload.churn import LifecycleRecord

            self.lifecycle = EventTable(LifecycleRecord, self.lifecycle)

    def __getstate__(self) -> dict:
        """What a pickle or deep copy carries: the trace with its memos
        empty, as a ``replace`` copy has them."""
        state = dict(self.__dict__)
        for memo in fields(self):
            if not memo.init:
                state[memo.name] = memo.default_factory()
        return state

    @property
    def publish_count(self) -> int:
        return len(self.publishes)

    @property
    def request_count(self) -> int:
        return len(self.requests)

    def request_pairs(self) -> List[Tuple[int, int]]:
        """(page_id, server_id) per request, in request order.

        The public per-request form of eq. 7's input, built on each call
        and owned by the caller: kept on the trace, its one tuple per
        request would outlive every use.  Everything in the package
        reads the aggregated :meth:`pair_counts` instead.
        """
        rows = self.requests.rows
        return list(zip(rows["page_id"].tolist(), rows["server_id"].tolist()))

    def pair_counts(self) -> Dict[Tuple[int, int], int]:
        """``(page_id, server_id) → request count`` over the whole trace.

        Eq. 7 match tables, capacity sizing, churn generation, shard
        weights and validation only need the distinct pairs and their
        counts; one chunk-wise ``np.unique`` pass finds them without a
        per-request Python object.  Treat the mapping as read-only.
        """
        if self._pair_counts is None:
            counts: Dict[int, int] = {}
            for chunk in self.requests.chunks():
                keys, per_key = np.unique(pair_codes(chunk), return_counts=True)
                for key, count in zip(keys.tolist(), per_key.tolist()):
                    counts[key] = counts.get(key, 0) + count
            self._pair_counts = {
                (key >> 32, key & 0xFFFFFFFF): counts[key] for key in sorted(counts)
            }
        return self._pair_counts

    def check_ids(self) -> None:
        """``ValueError`` naming the first publish, request or lifecycle
        event whose time is not a finite instant ``>= 0``, whose page is
        not in the page table or whose proxy is outside ``[0,
        server_count)``, or that is earlier than the row before it.

        Replay indexes lists and lookup arrays with these ids, and a
        negative index would silently answer for another page; a spool
        replays each table in row order, and the request count floors
        times into hours, where NaN dies naming nothing.  A generated
        trace passes by construction, on one pass per column; a
        hand-built or stored one may not.
        """
        for kind, table in (
            ("publish", self.publishes),
            ("request", self.requests),
            ("lifecycle", self.lifecycle),
        ):
            if len(table):
                times = table.rows["time"]
                bad = ~(np.isfinite(times) & (times >= 0.0))
                if bad.any():
                    raise ValueError(
                        f"{kind} at t={times[bad.argmax()]} names no instant: "
                        f"times must be finite and >= 0"
                    )
                back = np.diff(times) < 0.0
                if back.any():
                    row = back.argmax() + 1
                    raise ValueError(
                        f"{kind} at t={times[row]} is earlier than the row before it "
                        f"(t={times[row - 1]}): {kind} rows must be in time order"
                    )
        pages = np.array([page.page_id for page in self.pages], dtype=np.int64)
        if (pages < 0).any():
            raise ValueError(f"the page table holds a negative page id: {pages.min()}")
        servers = np.arange(self.config.server_count)
        for kind, table, field, known, noun in (
            ("publish", self.publishes, "page_id", pages, "page"),
            ("request", self.requests, "page_id", pages, "page"),
            ("request", self.requests, "server_id", servers, "proxy"),
            ("lifecycle", self.lifecycle, "page_id", pages, "page"),
            ("lifecycle", self.lifecycle, "server_id", servers, "proxy"),
        ):
            if not len(table):  # a churn-free lifecycle is a bare list
                continue
            ids = table.rows[field]
            if (
                0 <= ids.min()
                and ids.max() < len(known)
                and np.array_equal(known, np.arange(len(known)))
            ):
                continue
            unknown = ~np.isin(ids, known)
            if unknown.any():
                row = table.rows[unknown.argmax()]
                raise ValueError(
                    f"{kind} at t={row['time']} names {noun} {row[field]}, "
                    f"not one of the workload's {len(known)}"
                )

    def version_at(self, page_id: int, when: float) -> int:
        """Version of ``page_id`` current at time ``when``.

        Versions appear at ``first_publish + k·interval``, so the index
        is a closed-form floor; requests never precede the first
        publication by construction.
        """
        page = self.pages[page_id]
        if page.modification_interval <= 0.0:
            return 0
        elapsed = max(0.0, when - page.first_publish)
        return min(
            page.version_count - 1, int(elapsed // page.modification_interval)
        )

    def unique_bytes_per_server(self) -> Dict[int, int]:
        """Unique bytes requested at each server over the whole trace.

        The paper sets each proxy's capacity to a percentage of this
        quantity (§5.1): distinct *pages* requested at the server,
        weighted by size.  At the paper's parameters this makes caches
        small (a handful of average pages at the 5 % setting), which is
        consistent with the absolute hit-ratio levels it reports.
        """
        sizes = {page.page_id: page.size for page in self.pages}
        unique: Dict[int, int] = {}
        for page_id, server_id in self.pair_counts():
            unique[server_id] = unique.get(server_id, 0) + sizes[page_id]
        return unique

    def capacities(self, fraction: float) -> Dict[int, int]:
        """Per-server cache capacity at the given fraction (e.g. 0.05).

        Servers that never appear in the request stream get the mean
        capacity so every proxy still exists in the simulation.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        unique = self.unique_bytes_per_server()
        mean_bytes = sum(unique.values()) / len(unique) if unique else 1024.0
        capacities = {}
        for server in range(self.config.server_count):
            base = unique.get(server, mean_bytes)
            capacities[server] = max(1, int(base * fraction))
        return capacities

    def for_servers(self, servers: Iterable[int]) -> "Workload":
        """This trace as one shard of the fleet sees it.

        Every publish (the publisher's version state stays identical
        everywhere) and only the requests arriving at ``servers``.  A
        shard replays on the whole fleet's proxies
        (:mod:`repro.system.sharding`), sized from the whole trace.
        """
        rows = self.requests.rows
        return replace(self, requests=rows[np.isin(rows["server_id"], sorted(servers))])

    def replay_stream(self, match_table) -> Iterator[tuple]:
        """The static trace in replay order under ``match_table``.

        One ``(time, kind, a, b, c, d)`` per record:

        * a publish is ``(t, 0, page, version, size, match pairs)``;
        * a request is ``(t, 1, proxy, page, size, match count)``;
        * a lifecycle row is ``(t, 2, proxy, page, kind code, lease)``.

        Match pairs are the table's own ``match_vector``, ``()`` for an
        unmatched page; a pair the table lacks counts 0.  Order is
        nondecreasing time; at equal times lifecycle rows precede
        publishes, which precede requests (a page must exist before it
        is read), and each table keeps its own order.

        An in-memory, churn-free trace is merged once into columns
        memoised here — time as packed C doubles, kind as bytes, the rest
        lists of shared objects; five the trace alone decides, shared by
        every cell that replays it, and one ``d`` per match table — and
        the stream is ``zip`` over them.  A trace with lifecycle rows or
        a spool merges lazily, a chunk of each table at a time, retaining
        nothing (docs/architecture.md, "Replay driver").
        """
        if self.lifecycle or self.spool is not None:
            logger.debug(
                "replay stream: lazy merge (%s)", "churn" if self.lifecycle else "spool"
            )
            return _merged_lazily(self, match_table)
        base = self._stream_columns
        match_column = self._match_columns.get(match_table)
        how = "memo hit"
        if match_column is None:  # also when ``base`` is: they empty together
            merged = _column_merger(self)
            how = "reused base columns, built match column"
            if base is None:
                base = self._stream_columns = _base_columns(self, merged)
                how = f"built base columns ({len(base[0])} rows) + match column"
            match_column = self._match_columns[match_table] = _match_column(
                self, match_table, merged
            )
        logger.debug("replay stream: %s", how)
        return zip(*base, match_column)

    # -- subscription churn ---------------------------------------------------

    def with_churn(
        self, spec: "ChurnSpec", rng: np.random.Generator
    ) -> "Workload":
        """A copy of this workload with the lifecycle stream attached.

        Churn is generated *after* the base trace (from the distinct
        request pairs, using its own dedicated stream), so attaching it
        never perturbs the publish/request streams — the base trace
        stays bit-identical and artifact-cache entries keyed on the
        churn-free parameters remain valid.
        """
        from repro.workload.churn import generate_churn

        events = generate_churn(
            self.pair_counts(), self.config.horizon, spec, rng
        )
        return replace(self, lifecycle=events, churn=spec)

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> str:
        """Serialize the workload (config, pages, event columns) to JSON."""
        payload = {
            "label": self.label,
            "config": asdict(self.config),
            "pages": [asdict(page) for page in self.pages],
            "publishes": self.publishes.columns(),
            "requests": self.requests.columns(),
        }
        if self.lifecycle:
            payload["lifecycle"] = self.lifecycle.columns()
        if self.churn is not None:
            payload["churn"] = asdict(self.churn)
        return json.dumps(payload)

    def to_bytes(self) -> bytes:
        """The stored form of a churn-free trace: an uncompressed
        ``np.savez`` archive of a JSON ``header`` (label and config), the
        ``pages`` as one structured array and the ``publishes`` /
        ``requests`` rows as they are."""
        header = json.dumps({"label": self.label, "config": asdict(self.config)})
        pages = np.array(list(map(attrgetter(*PAGE_DTYPE.names), self.pages)), PAGE_DTYPE)
        buffer = io.BytesIO()
        np.savez(buffer, header=np.array(header), pages=pages,
                 publishes=self.publishes.rows, requests=self.requests.rows)
        return buffer.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes) -> "Workload":
        """Rebuild a trace stored with :meth:`to_bytes`, unpickling nothing.
        Damage raises ``ValueError`` or ``np.load``'s ``BadZipFile`` /
        ``EOFError``: rows are read only from the four ``.npy`` members,
        stored, unencrypted and passing their CRC (numpy stops at the row
        count a member's npy header names: a flipped digit reads fewer)."""
        try:
            archive = np.load(io.BytesIO(data), allow_pickle=False)
        except NotImplementedError as error:  # a zip version field it cannot read
            raise ValueError(f"a trace entry is not a readable archive: {error}") from None
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise ValueError("a trace entry is not an npz archive")
        with archive:
            members = archive.zip.infolist()
            if sorted(archive.zip.namelist()) != [f"{n}.npy" for n in ("header", *_STORED_ROWS)]:
                raise ValueError(f"a trace archive holds {sorted(archive.zip.namelist())}")
            if any(info.compress_type != zipfile.ZIP_STORED or info.flag_bits for info in members):
                raise ValueError("a trace member is compressed or encrypted")
            damaged = archive.zip.testzip()
            if damaged is not None:
                raise ValueError(f"trace member {damaged} fails its CRC")
            stored = {name: archive[name] for name in archive.files}
        for name, dtype in _STORED_ROWS.items():
            rows = stored[name]
            if not isinstance(rows, np.ndarray) or rows.dtype != dtype or rows.ndim != 1:
                raise ValueError(f"stored {name} are not one row array of {dtype}")
        header = json.loads(str(stored["header"]))
        config = header["config"]
        if sorted(config) != sorted(f.name for f in fields(WorkloadConfig)):
            raise ValueError(f"a stored config holds {sorted(config)}")
        return cls(
            config=WorkloadConfig(**{**config, "age_exponents": tuple(config["age_exponents"])}),
            pages=list(starmap(PageSpec, stored["pages"].tolist())),
            publishes=EventTable(PublishRecord, stored["publishes"]),
            requests=EventTable(RequestRecord, stored["requests"]),
            label=header["label"],
        )


#: A stored page row: :class:`PageSpec`'s fields in order, floats as drawn.
PAGE_DTYPE = np.dtype(
    [(f.name, "<f8" if f.type == "float" else "<i8") for f in fields(PageSpec)]
)

#: The row members of a stored trace and their dtypes.
_STORED_ROWS = {
    "pages": PAGE_DTYPE,
    "publishes": ROW_DTYPES[PublishRecord],
    "requests": ROW_DTYPES[RequestRecord],
}


# -- the replay stream ----------------------------------------------------------

#: Merge key of the lazy replay stream.
_TIME = itemgetter(0)

#: A lifecycle row's ``a, b, c, d``: ``LifecycleManager.on_event``'s arguments.
_LIFECYCLE_FIELDS = ("server_id", "page_id", "kind", "lease")


def _by_page(pages: List[PageSpec], value, default=None) -> np.ndarray:
    """``value(page)`` in slot ``page_id``, ``default`` elsewhere: an object
    array, so a gather by page id hands out these objects, shared by every
    row that names the page (ids are vetted by ``Workload.check_ids``)."""
    lookup = np.empty(max((page.page_id for page in pages), default=-1) + 1, dtype=object)
    lookup.fill(default)
    for page in pages:
        lookup[page.page_id] = value(page)
    return lookup


def _match_lookups(workload: Workload, match_table):
    """``(pairs_of, counts_for)`` under ``match_table``.

    ``pairs_of`` is a :func:`_by_page` array of the table's match pairs.
    ``counts_for(rows)`` is the match count of each request row's (page,
    proxy) pair, as an object array of the table's own ints: the row's
    ``pair_codes`` code is found in the matched pairs' codes (a dense
    pages x proxies array is a +50 MiB transient at scale 4.0), sorted
    because pages come in id order and ``match_vector`` sorts by proxy;
    slot 0, below every code, answers 0 for a pair the table lacks.
    """
    pairs_of = _by_page(workload.pages, lambda page: match_table.match_vector(page.page_id), ())
    flat = list(chain.from_iterable(pairs_of))
    servers, counts = zip(*flat) if flat else ((), ())
    lengths = np.fromiter(map(len, pairs_of), np.intp, len(pairs_of))
    codes = np.concatenate((
        [np.iinfo(np.int64).min],
        np.repeat(np.arange(len(pairs_of), dtype=np.int64) << 32, lengths)
        | np.array(servers, dtype=np.int64),
    ))
    count_of = np.array((0, *counts), dtype=object)

    def counts_for(rows: np.ndarray) -> np.ndarray:
        wanted = pair_codes(rows)
        found = np.searchsorted(codes, wanted, side="right") - 1
        found[codes[found] != wanted] = 0
        return count_of[found]

    return pairs_of, counts_for


def _column_merger(workload: Workload):
    """``merged(publish_values, request_values)``: one stream column.

    Each table's values land on the slots its rows take in the merged
    order; objects come back as a list, numbers as their bytes.  The
    order is a stable argsort by time over publishes-then-requests, the
    tie rule — what ``heapq.merge`` does in :func:`_merged_lazily`.
    """
    publishes = workload.publishes.rows
    requests = workload.requests.rows
    order = np.argsort(np.concatenate((publishes["time"], requests["time"])), kind="stable")
    slots = np.empty(len(order), dtype=np.intp)
    slots[order] = np.arange(len(order))
    del order
    publish_slots, request_slots = slots[: len(publishes)], slots[len(publishes) :]

    def merged(publish_values, request_values, dtype=object):
        column = np.empty(len(slots), dtype=dtype)
        column[publish_slots] = publish_values
        column[request_slots] = request_values
        return column.tolist() if dtype is object else column.tobytes()

    return merged


def _base_columns(workload: Workload, merged) -> tuple:
    """``(time, kind, a, b, c)`` of the merged stream.

    Time is an ``array('d')`` and kind a ``bytes``: 8 B and 1 B a row,
    iterated as plain floats and the cached ints 0 / 1.  Ids and sizes
    are shared objects from lookup arrays, versions CPython's small
    ints: a row owns none.
    """
    publishes = workload.publishes.rows
    requests = workload.requests.rows
    sizes = _by_page(workload.pages, attrgetter("size"))
    ints = np.arange(max(workload.config.server_count, len(sizes))).astype(object)
    return (
        array("d", merged(publishes["time"], requests["time"], np.float64)),
        merged(0, 1, np.uint8),
        merged(ints[publishes["page_id"]], ints[requests["server_id"]]),
        merged(publishes["version"].astype(object), ints[requests["page_id"]]),
        merged(sizes[publishes["page_id"]], sizes[requests["page_id"]]),
    )


def _match_column(workload: Workload, match_table, merged) -> list:
    """``d`` of the merged stream under ``match_table``: the page's shared
    match pairs on a publish row, the shared match count on a request row."""
    pairs_of, counts_for = _match_lookups(workload, match_table)
    requested = np.empty(workload.request_count, dtype=object)
    done = 0
    for chunk in workload.requests.chunks():
        requested[done : done + len(chunk)] = counts_for(chunk)
        done += len(chunk)
    return merged(pairs_of[workload.publishes.rows["page_id"]], requested)


def _merged_lazily(workload: Workload, match_table) -> Iterator[tuple]:
    """The replay stream as ``heapq.merge`` over the three tables.

    Each table is read a chunk at a time and is one C-level chain over
    per-chunk zips — a generator function would be resumed once per
    row.  ``heapq.merge`` breaks time ties by argument position, which
    is the tie rule; each table is already time-sorted.
    """
    sizes = _by_page(workload.pages, attrgetter("size"))
    pairs_of, counts_for = _match_lookups(workload, match_table)

    def lifecycle(chunk):
        fields = (chunk[name].tolist() for name in _LIFECYCLE_FIELDS)
        return zip(chunk["time"].tolist(), repeat(2), *fields)

    def publishes(chunk):
        pages = chunk["page_id"]
        return zip(
            chunk["time"].tolist(), repeat(0), pages.tolist(), chunk["version"].tolist(),
            sizes[pages].tolist(), pairs_of[pages].tolist(),
        )

    def requests(chunk):
        pages = chunk["page_id"]
        return zip(
            chunk["time"].tolist(), repeat(1), chunk["server_id"].tolist(), pages.tolist(),
            sizes[pages].tolist(), counts_for(chunk).tolist(),
        )

    def rows(table, record):  # a churn-free lifecycle is a plain []
        return chain.from_iterable(map(record, table.chunks())) if len(table) else ()

    return heapq.merge(
        rows(workload.lifecycle, lifecycle),
        rows(workload.publishes, publishes),
        rows(workload.requests, requests),
        key=_TIME,
    )


def _page_table(
    config: WorkloadConfig, streams: RandomStreams
) -> Tuple[List[PageSpec], List[List[float]]]:
    """§4 prologue (sizes → popularity → publishing) shared by both trace forms.

    Returns the :class:`PageSpec` list and every page's version
    publication times.
    """
    sizes = generate_sizes(config, streams.stream("workload.sizes"))
    ranks, counts, classes = popularity_model(
        config.distinct_pages,
        config.zipf_alpha,
        config.total_requests,
        config.class_count,
        config.class_rate_decay,
        streams.stream("workload.popularity"),
    )
    first_times, intervals, version_times = generate_publishing_stream(
        config, streams.stream("workload.publishing"), popularity_counts=counts
    )
    pages = [
        PageSpec(
            page_id=page_id,
            size=int(sizes[page_id]),
            rank=int(ranks[page_id]),
            popularity_class=int(classes[page_id]),
            request_count=int(counts[page_id]),
            first_publish=float(first_times[page_id]),
            modification_interval=float(intervals[page_id]),
            version_count=len(version_times[page_id]),
        )
        for page_id in range(config.distinct_pages)
    ]
    return pages, version_times


def _blocks(counts: List[int]) -> Iterator[Tuple[int, int]]:
    """``(start, stop)`` runs of pages, in order, of at least ``CHUNK_ROWS`` rows.

    A page of ``CHUNK_ROWS`` rows or more is a block by itself; the last
    block takes what is left.
    """
    start = rows = 0
    for page, count in enumerate(counts):
        if count >= CHUNK_ROWS and rows:
            yield start, page
            start, rows = page, 0
        rows += count
        if rows >= CHUNK_ROWS:
            yield start, page + 1
            start, rows = page + 1, 0
    if start < len(counts):
        yield start, len(counts)


def _request_columns(
    config: WorkloadConfig,
    streams: RandomStreams,
    pages: List[PageSpec],
    version_times: List[List[float]],
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield ``(times, servers, page_ids)`` columns, a block of pages at a time.

    The one generator behind both trace forms: pages in id order, each
    page's float64 request times sorted, with the int32 proxy id of
    each.  A page with no request or no version before the horizon draws
    nothing.  The draws are a pure function of the pages, not of the
    blocks (docs/architecture.md, "Workload generation").
    """
    request_rng = streams.stream("workload.requests")
    server_rng = streams.stream("workload.servers")
    horizon = config.horizon
    if config.age_from_latest_version:
        live = ([when for when in times if when < horizon] for times in version_times)
    else:
        live = ([page.first_publish] if page.first_publish < horizon else [] for page in pages)
    active = [
        (page, versions)
        for page, versions in zip(pages, live)
        if page.request_count and versions
    ]
    max_count = max(1, max(page.request_count for page in pages))
    for start, stop in _blocks([page.request_count for page, _ in active]):
        block, block_versions = zip(*active[start:stop])
        counts = np.array([page.request_count for page in block])
        times = request_times(
            counts,
            list(map(len, block_versions)),
            np.fromiter(chain.from_iterable(block_versions), dtype=np.float64),
            [config.age_exponents[page.popularity_class] for page in block],
            horizon,
            request_rng,
            story_decay=config.story_decay,
            story_decay_mode=config.story_decay_mode,
            story_decay_exponent=config.story_decay_exponent,
            story_halflife_hours=config.story_halflife_hours,
        )
        sizes = [
            pool_size(count, max_count, config.server_count, config.pool_exponent)
            for count in counts.tolist()
        ]
        servers = assign_servers(
            times,
            counts,
            [page.first_publish for page in block],
            sizes,
            config.server_count,
            config.pool_overlap,
            server_rng,
        )
        page_ids = np.array([page.page_id for page in block], dtype=np.int32)
        yield times, servers.astype(np.int32), np.repeat(page_ids, counts)


def generate_workload(
    config: WorkloadConfig, streams: RandomStreams, label: str = ""
) -> Workload:
    """Run the full §4 generation pipeline."""
    pages, version_times = _page_table(config, streams)

    version_counts = list(map(len, version_times))
    publishes = sorted_rows(
        ROW_DTYPES[PublishRecord],
        (
            np.fromiter(chain.from_iterable(version_times), dtype=np.float64),
            np.repeat(np.arange(len(pages), dtype=np.int32), version_counts),
            np.fromiter(chain.from_iterable(map(range, version_counts)), dtype=np.int32),
        ),
    )

    # A page draws all of its requests or none, so the counts bound the
    # table: each block's columns are written where they end up, and no
    # block array outlives its turn of the loop.
    room = sum(page.request_count for page in pages)
    times = np.empty(room, dtype=np.float64)
    servers = np.empty(room, dtype=np.int32)
    requested = np.empty(room, dtype=np.int32)
    filled = 0
    for block in _request_columns(config, streams, pages, version_times):
        end = filled + len(block[0])
        times[filled:end], servers[filled:end], requested[filled:end] = block
        filled = end
    requests = sorted_rows(
        ROW_DTYPES[RequestRecord], (times[:filled], servers[:filled], requested[:filled])
    )

    return Workload(
        config=config,
        pages=pages,
        publishes=publishes,
        requests=requests,
        label=label,
    )
