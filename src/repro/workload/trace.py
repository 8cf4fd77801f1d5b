"""Workload assembly: the full §4 pipeline and its output format.

:func:`generate_workload` runs sizes → popularity → publishing →
request times → server split and returns a :class:`Workload` holding
three time-ordered streams (publish events, requests) plus per-page
metadata.  Subscription tables are built separately per SQ value with
:func:`repro.workload.subscriptions.build_match_counts` so one trace
can be reused across the Fig. 5 quality sweep.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict, replace
from itertools import chain
from operator import attrgetter
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


@dataclass
class Workload:
    """A complete generated trace."""

    config: WorkloadConfig
    pages: List[PageSpec]
    publishes: List[PublishRecord]
    requests: List[RequestRecord]
    #: name of the preset that produced this trace ("news", ...), if any.
    label: str = ""
    #: Subscription lifecycle events (subscribe/renew/unsubscribe), a
    #: third time-sorted static stream; empty on a churn-free trace.
    lifecycle: List["LifecycleRecord"] = field(default_factory=list)
    #: The churn parameters that produced ``lifecycle`` (None = off).
    churn: Optional["ChurnSpec"] = None
    #: Memoized (page_id, server_id) pairs.  ``init=False`` keeps the
    #: memo out of ``dataclasses.replace`` copies (``with_churn`` and
    #: friends), so a copy whose ``requests`` were replaced rebuilds the
    #: pairs instead of silently inheriting a stale list.
    _request_pairs: List[Tuple[int, int]] = field(
        default_factory=list, repr=False, init=False, compare=False
    )

    @property
    def publish_count(self) -> int:
        return len(self.publishes)

    @property
    def request_count(self) -> int:
        return len(self.requests)

    def request_pairs(self) -> List[Tuple[int, int]]:
        """(page_id, server_id) per request — input to eq. 7."""
        if not self._request_pairs:
            self._request_pairs = [
                (record.page_id, record.server_id) for record in self.requests
            ]
        return self._request_pairs

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
        return unique_bytes_from_pairs(self.pages, set(self.request_pairs()))

    def capacities(self, fraction: float) -> Dict[int, int]:
        """Per-server cache capacity at the given fraction (e.g. 0.05).

        Servers that never appear in the request stream get the mean
        capacity so every proxy still exists in the simulation.
        """
        return capacities_from_unique(
            self.unique_bytes_per_server(), self.config.server_count, fraction
        )

    # -- subscription churn ---------------------------------------------------

    def with_churn(
        self, spec: "ChurnSpec", rng: np.random.Generator
    ) -> "Workload":
        """A copy of this workload with the lifecycle stream attached.

        Churn is generated *after* the base trace (from the request
        pairs, using its own dedicated stream), so attaching it never
        perturbs the publish/request streams — the base trace stays
        bit-identical and artifact-cache entries keyed on the churn-free
        parameters remain valid.
        """
        from repro.workload.churn import generate_churn

        events = generate_churn(
            self.request_pairs(), self.config.horizon, spec, rng
        )
        return replace(self, lifecycle=events, churn=spec)

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> str:
        """Serialize the workload (config + streams) to JSON."""
        payload = {
            "label": self.label,
            "config": asdict(self.config),
            "pages": [asdict(page) for page in self.pages],
            "publishes": _event_dicts(self.publishes, "time", "page_id", "version"),
            "requests": _event_dicts(self.requests, "time", "server_id", "page_id"),
        }
        if self.lifecycle:
            payload["lifecycle"] = _event_dicts(
                self.lifecycle, "time", "server_id", "page_id", "kind", "lease"
            )
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
            lifecycle = [LifecycleRecord(**event) for event in payload.get("lifecycle", [])]
        return cls(
            config=WorkloadConfig(**config_fields),
            pages=[PageSpec(**page) for page in payload["pages"]],
            publishes=[PublishRecord(**event) for event in payload["publishes"]],
            requests=[RequestRecord(**record) for record in payload["requests"]],
            label=payload.get("label", ""),
            lifecycle=lifecycle,
            churn=churn,
        )


def _event_dicts(events, *names: str) -> List[dict]:
    """``asdict`` of flat records, minus its recursive deep copy (3x the encoding)."""
    fields = attrgetter(*names)
    return [dict(zip(names, fields(event))) for event in events]


def unique_bytes_from_pairs(
    pages: List[PageSpec], pairs: Iterable[Tuple[int, int]]
) -> Dict[int, int]:
    """Per-server sum of page sizes over *distinct* ``(page_id, server_id)`` pairs."""
    sizes = {page.page_id: page.size for page in pages}
    unique: Dict[int, int] = {}
    for page_id, server_id in pairs:
        unique[server_id] = unique.get(server_id, 0) + sizes[page_id]
    return unique


def capacities_from_unique(
    unique: Dict[int, int], server_count: int, fraction: float
) -> Dict[int, int]:
    """Per-server capacities from the unique-bytes map (§5.1).

    Shared by the materialized and streaming workload forms so both
    hand the simulator bit-identical capacities.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    mean_bytes = sum(unique.values()) / len(unique) if unique else 1024.0
    capacities = {}
    for server in range(server_count):
        base = unique.get(server, mean_bytes)
        capacities[server] = max(1, int(base * fraction))
    return capacities


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


def _sorted_records(record_type, columns, page_position: int, page_ids: List[int]):
    """Records built from key-ordered ``columns``, sorted by the full key.

    ``page_ids[i] == i``: every record of a page shares that one ``int``
    object, where ``tolist()`` alone would mint one per record.
    """
    # lexsort's *last* key is primary
    order = np.lexsort(tuple(reversed(columns)))
    fields = [column[order].tolist() for column in columns]
    fields[page_position] = map(page_ids.__getitem__, fields[page_position])
    return list(map(record_type, *fields))


def generate_workload(
    config: WorkloadConfig, streams: RandomStreams, label: str = ""
) -> Workload:
    """Run the full §4 generation pipeline."""
    pages, version_times = _page_table(config, streams)
    page_ids = list(range(config.distinct_pages))

    version_counts = list(map(len, version_times))
    publish_columns = (
        np.fromiter(chain.from_iterable(version_times), dtype=np.float64),
        np.repeat(np.arange(len(pages), dtype=np.int32), version_counts),
        np.fromiter(chain.from_iterable(map(range, version_counts)), dtype=np.int32),
    )
    publishes = _sorted_records(PublishRecord, publish_columns, 1, page_ids)

    requests: List[RequestRecord] = []
    chunks = list(_request_columns(config, streams, pages, version_times))
    if chunks:
        requested, times, servers = zip(*chunks)
        columns = (
            np.concatenate(times),
            np.concatenate(servers),
            np.repeat(np.array(requested, dtype=np.int32), list(map(len, times))),
        )
        del chunks, times, servers
        requests = _sorted_records(RequestRecord, columns, 2, page_ids)

    return Workload(
        config=config,
        pages=pages,
        publishes=publishes,
        requests=requests,
        label=label,
    )
