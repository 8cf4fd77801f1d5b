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
one trace can be reused across the Fig. 5 quality sweep.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, field, fields, asdict, replace
from itertools import chain, starmap
from operator import attrgetter, eq
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.sim.rng import RandomStreams
from repro.workload.config import WorkloadConfig
from repro.workload.popularity import popularity_model
from repro.workload.publishing import generate_publishing_stream
from repro.workload.requests import (
    request_times_for_page,
    request_times_for_versions,
)
from repro.workload.servers import assign_servers
from repro.workload.sizes import generate_sizes

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (churn imports
    # validate, which imports this module); runtime imports are local.
    from repro.workload.churn import ChurnSpec, LifecycleRecord

#: Rows turned into Python objects at a time, wherever a table is
#: iterated: whole-column ``tolist()`` calls set the peak RSS of a
#: paper-scale run (docs/architecture.md, "Replay driver").
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
    code) converts through its own ``to_row`` / ``from_row`` and vets
    stored rows through ``check_rows``.
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

    @classmethod
    def from_columns(cls, record, columns) -> "EventTable":
        """A table back from :meth:`columns`; ``ValueError`` on any other shape."""
        if not isinstance(columns, dict):
            raise ValueError(
                f"{record.__name__} events are a list of dicts: the pre-columnar layout"
            )
        dtype = ROW_DTYPES[record]
        lengths = {len(columns[name]) for name in dtype.names}
        if len(lengths) != 1:
            raise ValueError(f"ragged {record.__name__} columns: lengths {sorted(lengths)}")
        rows = np.empty(lengths.pop(), dtype=dtype)
        try:
            for name in dtype.names:
                rows[name] = columns[name]
        except OverflowError as error:  # an id or code beyond the field's width
            raise ValueError(f"{record.__name__} column {name!r}: {error}") from None
        if hasattr(record, "check_rows"):
            record.check_rows(rows)
        return cls(record, rows)


def sorted_rows(dtype: np.dtype, columns: Sequence, keys: Optional[int] = None) -> np.ndarray:
    """Key-ordered ``columns`` as rows of ``dtype``, stably sorted by the
    first ``keys`` of them (all, by default)."""
    order = np.lexsort(columns[:keys][::-1])  # lexsort's *last* key is primary
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
    _request_pairs: List[Tuple[int, int]] = _memo(list)
    _pair_counts: Optional[Dict[Tuple[int, int], int]] = _memo()
    #: The merged replay stream, retained as columns (``Simulation._stream``):
    #: the five the trace alone decides — time as an ``array('d')``, kind as
    #: ``bytes``, three lists of shared objects — and one list per match table.
    _stream_columns: Optional[tuple] = _memo()
    _match_columns: dict = _memo(dict)
    #: On a shard: unique bytes per server over the whole fleet's trace.
    _fleet_unique_bytes: Optional[Dict[int, int]] = _memo()

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
        empty, as a ``replace`` copy has them.  A shard keeps the fleet's
        map, which its own rows cannot rebuild."""
        state = dict(self.__dict__)
        for memo in fields(self):
            if not memo.init and memo.name != "_fleet_unique_bytes":
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

        The public per-request form of eq. 7's input; everything in the
        package reads the aggregated :meth:`pair_counts` instead.
        """
        if not self._request_pairs:
            rows = self.requests.rows
            self._request_pairs = list(
                zip(rows["page_id"].tolist(), rows["server_id"].tolist())
            )
        return self._request_pairs

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
        server_count)``.

        Replay indexes lists and lookup arrays with these ids, and a
        negative index would silently answer for another page; policies
        floor times into hour buckets, where NaN dies naming nothing.  A
        generated trace passes by construction, on one pass per column;
        a hand-built or stored one may not.
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
        consistent with the absolute hit-ratio levels it reports.  A
        shard answers for the fleet it was cut from.
        """
        if self._fleet_unique_bytes is not None:
            return dict(self._fleet_unique_bytes)
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
        everywhere) and only the requests arriving at ``servers``; the
        copy carries the fleet's unique-bytes map, because the mean over
        *all* servers enters the capacity formula and every shard must
        size every proxy exactly as the whole run does.
        """
        rows = self.requests.rows
        shard = replace(self, requests=rows[np.isin(rows["server_id"], sorted(servers))])
        shard._fleet_unique_bytes = self.unique_bytes_per_server()
        return shard

    def close(self) -> None:
        """Delete a spilled trace's files now, not at GC — for every copy."""
        if self.spool is not None:
            self.spool.close()

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

    @classmethod
    def from_json(cls, text: str) -> "Workload":
        """Rebuild a workload serialized with :meth:`to_json`."""
        payload = json.loads(text)
        config_fields = dict(payload["config"])
        config_fields["age_exponents"] = tuple(config_fields["age_exponents"])
        churn = None
        lifecycle = []
        if payload.get("churn") is not None or payload.get("lifecycle"):
            from repro.workload.churn import ChurnSpec, LifecycleRecord

            if payload.get("churn") is not None:
                churn = ChurnSpec(**payload["churn"])
            if payload.get("lifecycle"):
                lifecycle = EventTable.from_columns(LifecycleRecord, payload["lifecycle"])
        return cls(
            config=WorkloadConfig(**config_fields),
            pages=[PageSpec(**page) for page in payload["pages"]],
            publishes=EventTable.from_columns(PublishRecord, payload["publishes"]),
            requests=EventTable.from_columns(RequestRecord, payload["requests"]),
            label=payload.get("label", ""),
            lifecycle=lifecycle,
            churn=churn,
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


def _request_columns(
    config: WorkloadConfig,
    streams: RandomStreams,
    pages: List[PageSpec],
    version_times: List[List[float]],
) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
    """Yield ``(page_id, times, servers)`` columns, page by page in id order.

    The one per-page loop behind both trace forms: sorted float64 request
    times and the int32 proxy id of each.  The draw order is part of the
    trace format (docs/architecture.md, "Workload generation").
    """
    request_rng = streams.stream("workload.requests")
    server_rng = streams.stream("workload.servers")
    max_count = max(1, max(page.request_count for page in pages))
    for page in pages:
        count = page.request_count
        if count == 0:
            continue
        gamma = config.age_exponents[page.popularity_class]
        if config.age_from_latest_version:
            times = request_times_for_versions(
                count,
                version_times[page.page_id],
                config.horizon,
                gamma,
                request_rng,
                story_decay=config.story_decay,
                story_decay_mode=config.story_decay_mode,
                story_decay_exponent=config.story_decay_exponent,
                story_halflife_hours=config.story_halflife_hours,
            )
        else:
            times = request_times_for_page(
                count, page.first_publish, config.horizon, gamma, request_rng
            )
        if len(times) == 0:
            continue
        servers = assign_servers(
            times,
            page.first_publish,
            popularity=count,
            max_popularity=max_count,
            server_count=config.server_count,
            overlap=config.pool_overlap,
            rng=server_rng,
            exponent=config.pool_exponent,
        )
        yield page.page_id, times, servers.astype(np.int32)


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
    # table: each page's columns are written where they end up, and no
    # per-page array outlives its turn of the loop.
    room = sum(page.request_count for page in pages)
    times = np.empty(room, dtype=np.float64)
    servers = np.empty(room, dtype=np.int32)
    requested = np.empty(room, dtype=np.int32)
    filled = 0
    for page_id, page_times, page_servers in _request_columns(
        config, streams, pages, version_times
    ):
        end = filled + len(page_times)
        times[filled:end] = page_times
        servers[filled:end] = page_servers
        requested[filled:end] = page_id
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
