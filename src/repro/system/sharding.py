"""Sharded simulation: the proxy fleet partitioned across processes.

In the fault-free simulation the proxies are *independent given the
trace*: a proxy's cache evolves only from the publish notifications
matched to it and the requests arriving at it, and the publisher's
version counter is a pure function of the publish stream.  So the run
parallelises by partitioning the proxies: every worker process replays
the **full publish stream** (keeping the publisher's version state
bit-identical everywhere) against a *shard-filtered match table* — so
notifications only reach, and push traffic is only accounted for, the
worker's own proxies — plus **only its shard's requests**.  Each worker
runs the ordinary replay driver locally; the parent then
merges the per-shard :class:`~repro.system.metrics.SimulationResult`
partials with a pure reduction:

* additive scalars (requests, hits, push/fetch pages and bytes,
  response time) and hourly series sum element-wise;
* ``per_proxy`` stats are taken from each proxy's owning shard;
* metadata fields are asserted identical across shards;
* ``wall_seconds`` is the parent's wall clock.

Because each proxy sees exactly the event subsequence it would see in
one process — same order, same values — the merged result is
bit-identical to ``workers=1`` in every field except
``wall_seconds``/``profile`` (enforced by
``tests/system/test_sharding.py`` across strategies and pushing
schemes).

**Decline rules** (fall back rather than be subtly wrong): configurations with cross-shard state — fault
schedules, the overload layer's shared origin admission and retry
budget, subscription churn, observers — run single-process.
Cooperation, whose peer lookups read other proxies' caches, is not
sharded: ``run_sharded`` builds the paper's independent proxies.

Workers are forked (``multiprocessing`` fork context), so the trace,
match table and topology are inherited copy-on-write — nothing is
pickled in, only the partial results come back.  Each worker cuts its
own shard with :meth:`Workload.for_servers
<repro.workload.trace.Workload.for_servers>`; over a spilled trace
(:mod:`repro.workload.streaming`) the publishes stay memory-mapped and
shared, but the shard's request rows are a copy in the worker's memory
(16 bytes per event) — a combination nothing measures yet.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import replace
from typing import Dict, FrozenSet, List, Optional, Sequence

from repro.network.topology import Topology
from repro.obs.log import get_logger
from repro.obs.recorder import Observer
from repro.pubsub.matching import TraceMatchCounts
from repro.sim.rng import RandomStreams
from repro.system.config import SimulationConfig
from repro.system.metrics import SimulationResult
from repro.system.simulator import Simulation, cell_inputs

logger = get_logger(__name__)


#: SimulationResult fields summed across shards.
_SUM_FIELDS = (
    "requests",
    "hits",
    "stale_hits",
    "push_transfers",
    "push_bytes",
    "fetch_pages",
    "fetch_bytes",
)

#: Hourly series summed element-wise across shards.
_SUM_SERIES = (
    "hourly_requests",
    "hourly_hits",
    "hourly_push_pages",
    "hourly_fetch_pages",
    "hourly_push_bytes",
    "hourly_fetch_bytes",
)

#: Metadata fields that must agree across shards.
_EQUAL_FIELDS = (
    "strategy",
    "trace_label",
    "capacity_fraction",
    "subscription_quality",
    "pushing_scheme",
    "hour_count",
)


# -- eligibility and planning ------------------------------------------------


def shard_eligibility(
    workload, config: SimulationConfig, observer: Optional[Observer] = None
) -> Optional[str]:
    """Why this run cannot shard, or ``None`` when it can.

    Anything that couples proxies through global state makes the
    per-shard replay diverge from the single-process one, so those
    configurations decline.
    """
    if config.chaos is not None:
        return "fault injection shares a global schedule and delivery state"
    if config.overload is not None and config.overload.enabled:
        return "the overload layer shares origin admission and retry budget"
    if workload.lifecycle:
        return "subscription churn routes lifecycle state through one hub"
    if observer is not None and observer.enabled:
        return "an observer records one global event order"
    return None


def _server_weights(workload) -> List[int]:
    """Per-server request totals, for balanced partitioning."""
    weights = [0] * workload.config.server_count
    for (_page_id, server_id), count in workload.pair_counts().items():
        weights[server_id] += count
    return weights


def _pack_units(
    units: List[List[int]], weights: List[int], bins: int
) -> List[List[int]]:
    """Greedy LPT: heaviest unit first onto the lightest bin.

    Deterministic (ties break on lowest first-server, then lowest bin
    index); empty bins are dropped.
    """
    order = sorted(range(len(units)), key=lambda i: (-weights[i], units[i][0]))
    loads = [0] * bins
    shards: List[List[int]] = [[] for _ in range(bins)]
    for index in order:
        target = min(range(bins), key=lambda j: (loads[j], j))
        shards[target].extend(units[index])
        loads[target] += weights[index]
    return [sorted(shard) for shard in shards if shard]


def plan_shards(workload, config: SimulationConfig, workers: int) -> List[List[int]]:
    """Partition the proxies into at most ``workers`` shards, split
    greedily by request weight."""
    server_count = workload.config.server_count
    bins = max(1, min(int(workers), server_count))
    units = [[server] for server in range(server_count)]
    return _pack_units(units, _server_weights(workload), bins)


# -- shard-local views -------------------------------------------------------


class ShardMatchTable:
    """A match-table view restricted to one shard's proxies.

    ``match_vector`` filters the publish fan-out so a worker's publish
    replay touches (and accounts traffic for) only its own proxies; a
    request's match count comes from the same vectors, and the shard's
    request rows name only its own proxies.
    """

    def __init__(self, base: TraceMatchCounts, servers: FrozenSet[int]) -> None:
        self._base = base
        self._servers = servers
        self._vectors: Dict[int, tuple] = {}

    def match_vector(self, page_id: int):
        vector = self._vectors.get(page_id)
        if vector is None:
            servers = self._servers
            vector = tuple(
                pair
                for pair in self._base.match_vector(page_id)
                if pair[0] in servers
            )
            self._vectors[page_id] = vector
        return vector


# -- the fork-pool runner ----------------------------------------------------

#: Worker inputs, installed before the fork so nothing is pickled in.
_WORKER_CONTEXT: Optional[tuple] = None


def _run_shard(index: int) -> SimulationResult:
    workload, config, match_table, topology, shards = _WORKER_CONTEXT
    shard = frozenset(shards[index])
    return Simulation(
        workload.for_servers(shard), config, ShardMatchTable(match_table, shard), topology
    ).run()


def merge_shard_results(
    partials: Sequence[SimulationResult],
    shards: Sequence[Sequence[int]],
    server_count: int,
    wall_seconds: float,
) -> SimulationResult:
    """Reduce per-shard partial results into one fleet-wide result."""
    if not partials:
        raise ValueError("nothing to merge: no shard results")
    first = partials[0]
    for other in partials[1:]:
        for name in _EQUAL_FIELDS:
            if getattr(other, name) != getattr(first, name):
                raise ValueError(
                    f"shard results disagree on {name}: "
                    f"{getattr(other, name)!r} != {getattr(first, name)!r}"
                )

    owner: Dict[int, int] = {}
    for shard_index, shard in enumerate(shards):
        for server_id in shard:
            owner[server_id] = shard_index

    merged = replace(first)
    for name in _SUM_FIELDS:
        setattr(merged, name, sum(getattr(p, name) for p in partials))
    for name in _SUM_SERIES:
        series = [list(getattr(p, name)) for p in partials]
        setattr(
            merged,
            name,
            [sum(values) for values in zip(*series)] if series[0] else [],
        )
    merged.per_proxy = [
        partials[owner[server_id]].per_proxy[server_id]
        for server_id in range(server_count)
    ]
    # The same server-order sum Simulation._collect evaluates, over the
    # same per-proxy floats — bit-identical to the workers=1 total.
    merged.total_response_time = sum(
        stats.response_time for stats in merged.per_proxy
    )
    merged.wall_seconds = wall_seconds
    merged.profile = None
    return merged


def run_sharded(
    workload,
    config: SimulationConfig,
    match_table: Optional[TraceMatchCounts] = None,
    topology: Optional[Topology] = None,
    observer: Optional[Observer] = None,
) -> SimulationResult:
    """Run one cell across ``config.workers`` shard processes.

    Ineligible configurations fall back to the single-process
    simulation (logged).
    """
    started = time.perf_counter()
    workers = int(config.workers)

    def single() -> SimulationResult:
        return Simulation(workload, config, match_table, topology, observer=observer).run()

    if workers <= 1:
        return single()

    reason = shard_eligibility(workload, config, observer)
    if reason is None and "fork" not in multiprocessing.get_all_start_methods():
        reason = "the platform lacks the fork start method"
    if reason is not None:
        logger.info("sharding declined (%s); running single-process", reason)
        return single()

    # Build the shared inputs once; workers inherit them through the fork.
    match_table, topology = cell_inputs(
        workload, config, RandomStreams(config.seed), match_table, topology
    )
    shards = plan_shards(workload, config, workers)
    if len(shards) <= 1:
        return single()

    worker_config = replace(config, workers=1)
    global _WORKER_CONTEXT
    context = multiprocessing.get_context("fork")
    _WORKER_CONTEXT = (workload, worker_config, match_table, topology, shards)
    try:
        with context.Pool(processes=len(shards)) as pool:
            partials = pool.map(_run_shard, range(len(shards)))
    finally:
        _WORKER_CONTEXT = None

    logger.info(
        "merged %d shards (%s)",
        len(shards),
        "/".join(str(len(shard)) for shard in shards),
    )
    return merge_shard_results(
        partials,
        shards,
        workload.config.server_count,
        time.perf_counter() - started,
    )
