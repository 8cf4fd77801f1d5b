"""Grid execution with trace/table/topology reuse and stored cell results.

Workload generation, subscription tables and the topology are shared
across the cells of a grid (the paper evaluates all strategies on the
same trace), so a 36-cell Figure-4 grid generates two traces, not 36.

Two reuse layers stack here:

* an in-process ``lru_cache`` memo of a cell's *inputs* — trace, match
  table, topology — (always on), and
* an optional **on-disk artifact store** (see
  :mod:`repro.experiments.artifacts`) holding those inputs keyed by
  their generation parameters *and each cell's result* keyed by the
  whole ``run_cell`` call plus a fingerprint of the code: pool workers
  and *repeated invocations* load inputs instead of regenerating them,
  and a cell whose call and code did not change is loaded instead of
  replayed, without resolving its inputs at all.  Enable it per call
  (``artifact_dir=...``), process-wide (:func:`set_default_artifact_dir`)
  or from the CLI (``--artifact-cache``).  A run with an observer always
  replays and stores no result: its events must come from a real replay.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.experiments.artifacts import (
    ArtifactCache,
    cached_cell,
    cached_match_table,
    cached_topology,
    cached_trace,
    cell_params,
)
from repro.faults.spec import OverloadSpec
from repro.network.topology import Topology, build_topology
from repro.obs.log import get_logger
from repro.obs.recorder import Observer
from repro.pubsub.matching import TraceMatchCounts
from repro.sim.rng import RandomStreams
from repro.system.config import PushingScheme, SimulationConfig
from repro.system.metrics import SimulationResult
from repro.system.simulator import Simulation
from repro.workload.presets import make_trace
from repro.workload.subscriptions import build_match_counts
from repro.workload.trace import Workload
from repro.experiments.spec import CellKey, ExperimentGrid, GridResult

if TYPE_CHECKING:  # imported by the branches that use them
    from repro.workload.churn import ChurnSpec

logger = get_logger(__name__)

#: Process-wide default artifact directory (None = disk cache off).
_default_artifact_dir: Optional[str] = None


def set_default_artifact_dir(directory: Optional[str]) -> None:
    """Set (or clear, with None) the process-wide artifact directory."""
    global _default_artifact_dir
    _default_artifact_dir = directory


def _resolve_artifact_dir(artifact_dir: Optional[str]) -> Optional[str]:
    return artifact_dir if artifact_dir is not None else _default_artifact_dir


@lru_cache(maxsize=8)
def trace_for(
    trace: str, scale: float, seed: int, artifact_dir: Optional[str] = None
) -> Workload:
    """Generate (and memoize) one of the preset traces."""
    if artifact_dir is not None:
        return cached_trace(ArtifactCache(artifact_dir), trace, scale, seed)
    return make_trace(trace, scale=scale, seed=seed)


def preset_trace(trace: str, scale: float, seed: int) -> Workload:
    """:func:`trace_for` under the process-wide artifact directory: what a
    command that loads one trace and runs no cell (``chaos``,
    ``trace-stats``, ``generate-trace``, ``calibrate-beta``) calls."""
    return trace_for(trace, scale, seed, _default_artifact_dir)


@lru_cache(maxsize=4)
def streaming_trace_for(trace: str, scale: float, seed: int) -> Workload:
    """Generate (and memoize) a preset trace with its events spilled to disk.

    Spilled traces bypass the on-disk artifact cache: serializing the
    events to JSON would load them all, defeating the point.
    The spool is reclaimed when the memo evicts the entry.
    """
    from repro.workload.streaming import make_streaming_trace

    return make_streaming_trace(trace, scale=scale, seed=seed)


@lru_cache(maxsize=32)
def _match_table_for(
    trace: str,
    scale: float,
    seed: int,
    sq: float,
    notified_fraction: float,
    artifact_dir: Optional[str] = None,
    streaming: bool = False,
) -> TraceMatchCounts:
    # Spilled or not the table is the same, so the cache key needs no
    # streaming component — but sourcing the pair counts from the trace
    # the cell replays avoids generating a second, in-memory one.
    if streaming:
        workload = streaming_trace_for(trace, scale, seed)
    else:
        workload = trace_for(trace, scale, seed, artifact_dir)
    if artifact_dir is not None:
        return cached_match_table(
            ArtifactCache(artifact_dir),
            workload,
            trace,
            scale,
            seed,
            sq,
            notified_fraction,
        )
    table = build_match_counts(
        workload.pair_counts(),
        sq,
        RandomStreams(seed).stream("subscriptions"),
        notified_fraction=notified_fraction,
    )
    return TraceMatchCounts(table)


@lru_cache(maxsize=8)
def _topology_for(
    server_count: int, seed: int, artifact_dir: Optional[str] = None
) -> Topology:
    if artifact_dir is not None:
        return cached_topology(ArtifactCache(artifact_dir), server_count, seed)
    return build_topology(server_count, RandomStreams(seed).stream("topology"))


@lru_cache(maxsize=None)
def cell_store(artifact_dir: str) -> ArtifactCache:
    """The process's store of cell results under ``artifact_dir``: its
    ``hits`` / ``misses`` are the cells loaded / replayed so far."""
    return ArtifactCache(artifact_dir)


def paper_beta(trace: str, strategy: str, capacity: float) -> float:
    """The β values §5.1 settled on per trace/strategy/capacity.

    "β is 2 in the three methods for the trace NEWS; for ALTERNATIVE,
    β is 2 in GD* and SG1 when the capacity setting is 5 % or 10 % and
    1 for 1 %, while the value of β is always 0.5 in SG2."  Strategies
    the paper does not name inherit GD*'s setting (they embed GD* as
    the access-time module).
    """
    if trace == "news":
        return 2.0
    if strategy == "sg2":
        return 0.5
    if capacity <= 0.01:
        return 1.0
    return 2.0


def run_cell(
    key: CellKey,
    scale: float = 1.0,
    seed: int = 7,
    beta: Optional[float] = None,
    notified_fraction: float = 1.0,
    strategy_options: Optional[Dict] = None,
    observer: Optional[Observer] = None,
    artifact_dir: Optional[str] = None,
    churn: Optional[ChurnSpec] = None,
    overload: Optional[OverloadSpec] = None,
    workers: int = 1,
    streaming: bool = False,
) -> SimulationResult:
    """Run one simulation cell (trace and tables are memoized).

    With ``artifact_dir`` set (or a process default configured via
    :func:`set_default_artifact_dir`), the cell's result is loaded from
    the on-disk artifact store when this exact call was replayed before
    by this exact code (its ``wall_seconds`` is that replay's); otherwise
    the trace, match table and topology are loaded from / stored to the
    store, the cell is replayed and its result stored.  An ``observer``
    bypasses the result store both ways.

    ``churn`` attaches a subscription-lifecycle stream to the (cached)
    trace *after* loading: the input keys stay those of the churn-free
    parameters, and ``with_churn`` returns a fresh Workload so the
    memoized object is never mutated.

    ``overload`` arms the overload/backpressure layer (finite service
    queues, origin admission control, retry-storm protection); ``None``
    keeps every capacity infinite, bit-identical to the pre-layer
    behaviour.

    ``streaming`` spills the trace's events to disk as they are
    generated and replays them chunk-at-a-time (see
    :mod:`repro.workload.streaming`) and ``workers > 1`` shards the
    proxies across that many processes (:mod:`repro.system.sharding`).
    Both are bit-identical to the default path in every result field
    except ``wall_seconds``/``profile``.
    """
    artifact_dir = _resolve_artifact_dir(artifact_dir)
    options = dict(strategy_options or {})
    if beta is None:
        beta = paper_beta(key.trace, key.strategy, key.capacity)
    options.setdefault("beta", beta)
    config = SimulationConfig(
        strategy=key.strategy,
        strategy_options=options,
        capacity_fraction=key.capacity,
        subscription_quality=key.sq,
        pushing=PushingScheme(key.pushing),
        seed=seed,
        notified_fraction=notified_fraction,
        overload=overload,
        workers=workers,
    )

    def replay() -> SimulationResult:
        logger.info(
            "cell %s/%s cap=%.2f sq=%.2f (scale=%s seed=%d)",
            key.trace, key.strategy, key.capacity, key.sq, scale, seed,
        )
        if streaming:
            workload = streaming_trace_for(key.trace, scale, seed)
        else:
            workload = trace_for(key.trace, scale, seed, artifact_dir)
        if churn is not None:
            workload = workload.with_churn(
                churn, RandomStreams(seed).stream("workload.churn")
            )
        match_table = _match_table_for(
            key.trace,
            scale,
            seed,
            key.sq,
            notified_fraction,
            artifact_dir,
            streaming=streaming,
        )
        topology = _topology_for(workload.config.server_count, seed, artifact_dir)
        if config.workers > 1:
            from repro.system.sharding import run_sharded

            result = run_sharded(
                workload, config, match_table, topology, observer=observer
            )
        else:
            simulation = Simulation(
                workload, config, match_table, topology, observer=observer
            )
            result = simulation.run()
        logger.debug("cell done: %s", result.summary())
        return result

    if artifact_dir is None or observer is not None:
        return replay()
    store = cell_store(artifact_dir)
    loaded = store.hits
    result = cached_cell(
        store, cell_params(key, scale, seed, config, churn, streaming), replay
    )
    if store.hits > loaded:
        logger.info(
            "cell %s loaded from store (replayed in %.3f s when stored)",
            key, result.wall_seconds,
        )
    return result


def run_grid(
    grid: ExperimentGrid,
    scale: float = 1.0,
    seed: int = 7,
    beta: Optional[float] = None,
    notified_fraction: float = 1.0,
    strategy_options: Optional[Dict] = None,
    progress: Optional[Callable[[CellKey, SimulationResult], None]] = None,
    workers: int = 1,
    artifact_dir: Optional[str] = None,
    shard_workers: int = 1,
    streaming: bool = False,
) -> GridResult:
    """Run every cell of ``grid``; see :class:`GridResult` for access.

    With ``workers > 1`` the cells run in a process pool and
    ``progress`` fires as cells *finish* (completion order, no
    head-of-line blocking).  Workers do not share the in-process
    trace/table memo, so each regenerates the workload once — unless an
    artifact directory is configured, in which case the first worker to
    finish generating persists it and the rest load from disk.

    ``shard_workers`` and ``streaming`` forward to :func:`run_cell`:
    each cell shards its proxies across that many processes and/or
    replays a spilled trace.  Cell-level and shard-level
    parallelism compose multiplicatively — prefer one or the other.
    """
    cell = partial(
        run_cell,
        scale=scale,
        seed=seed,
        beta=beta,
        notified_fraction=notified_fraction,
        strategy_options=strategy_options,
        artifact_dir=_resolve_artifact_dir(artifact_dir),
        workers=shard_workers,
        streaming=streaming,
    )
    outcome = GridResult(grid=grid, scale=scale, seed=seed)
    cells = grid.cells()
    if workers <= 1:
        for key in cells:
            result = cell(key)
            outcome.results[key] = result
            if progress is not None:
                progress(key, result)
        return outcome

    from concurrent.futures import ProcessPoolExecutor, as_completed

    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {pool.submit(cell, key): key for key in cells}
        for future in as_completed(futures):
            key = futures[future]
            result = future.result()
            outcome.results[key] = result
            if progress is not None:
                progress(key, result)
    return outcome


def clear_caches() -> None:
    """Drop memoized traces/tables/topologies and the cell-store counters
    (tests use this)."""
    trace_for.cache_clear()
    streaming_trace_for.cache_clear()
    _match_table_for.cache_clear()
    _topology_for.cache_clear()
    cell_store.cache_clear()
