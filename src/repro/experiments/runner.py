"""Grid execution with trace/table/topology reuse and stored cell results.

Workload generation, subscription tables and the topology are shared
across the cells of a grid (the paper evaluates all strategies on the
same trace), so a 36-cell Figure-4 grid generates two traces, not 36,
and replays its cells on every usable CPU (:func:`run_grid`); a single
large cell shards its proxies across them instead (:func:`run_cell`).

Two reuse layers stack here:

* an in-process ``lru_cache`` memo of a cell's *inputs* — trace, match
  table, topology — (always on), which forked grid workers inherit, and
* an optional **on-disk artifact store** (see
  :mod:`repro.experiments.artifacts`) holding traces keyed by their
  generation parameters *and each cell's result* keyed by the whole
  ``run_cell`` call plus a fingerprint of the code: *repeated
  invocations* load traces instead of regenerating them, and a cell
  whose call and code did not change is loaded instead of replayed,
  without resolving its inputs at all.  Match tables and topologies are
  never stored: :func:`repro.system.simulator.cell_inputs` rebuilds
  them in milliseconds.  Enable the store per call
  (``artifact_dir=...``), process-wide (:func:`set_default_artifact_dir`)
  or from the CLI (``--artifact-cache``).  A run with an observer always
  replays and stores no result: its events must come from a real replay.
"""

from __future__ import annotations

import os
from functools import lru_cache, partial
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Tuple

from repro.experiments.artifacts import (
    ArtifactCache,
    cached_cell,
    cached_trace,
    cell_params,
    load_cell,
    store_cell,
)
from repro.faults.spec import OverloadSpec
from repro.network.topology import Topology
from repro.obs.log import get_logger
from repro.obs.recorder import Observer
from repro.pubsub.matching import TraceMatchCounts
from repro.sim.rng import RandomStreams
from repro.system.config import PushingScheme, SimulationConfig
from repro.system.metrics import SimulationResult
from repro.system.simulator import Simulation, cell_inputs
from repro.workload.presets import make_trace
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
    events would load them all, defeating the point.
    The spool is reclaimed when the memo evicts the entry.
    """
    from repro.workload.streaming import make_streaming_trace

    return make_streaming_trace(trace, scale=scale, seed=seed)


def _workload_for(
    trace: str, scale: float, seed: int, artifact_dir: Optional[str], streaming: bool
) -> Workload:
    if streaming:
        return streaming_trace_for(trace, scale, seed)
    return trace_for(trace, scale, seed, artifact_dir)


@lru_cache(maxsize=32)
def _tables_for(
    trace: str,
    scale: float,
    seed: int,
    sq: float,
    notified_fraction: float,
    artifact_dir: Optional[str],
    streaming: bool,
) -> Tuple[TraceMatchCounts, Topology]:
    # Spilled or not the table is the same, but sourcing the pair counts
    # from the trace the cell replays avoids generating a second,
    # in-memory one.
    workload = _workload_for(trace, scale, seed, artifact_dir, streaming)
    return cell_inputs(workload, seed, sq, notified_fraction)


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


def _cell_config(
    key: CellKey,
    seed: int,
    beta: Optional[float],
    notified_fraction: float,
    strategy_options: Optional[Dict],
    overload: Optional[OverloadSpec] = None,
) -> SimulationConfig:
    options = dict(strategy_options or {})
    if beta is None:
        beta = paper_beta(key.trace, key.strategy, key.capacity)
    options.setdefault("beta", beta)
    return SimulationConfig(
        strategy=key.strategy,
        strategy_options=options,
        capacity_fraction=key.capacity,
        subscription_quality=key.sq,
        pushing=PushingScheme(key.pushing),
        seed=seed,
        notified_fraction=notified_fraction,
        overload=overload,
    )


def _cell_inputs(
    key: CellKey,
    scale: float,
    seed: int,
    notified_fraction: float,
    artifact_dir: Optional[str],
    streaming: bool = False,
) -> Tuple[Workload, TraceMatchCounts, Topology]:
    """The cell's trace, match table and topology, through the memos."""
    workload = _workload_for(key.trace, scale, seed, artifact_dir, streaming)
    match_table, topology = _tables_for(
        key.trace, scale, seed, key.sq, notified_fraction, artifact_dir, streaming
    )
    return workload, match_table, topology


def usable_cpus() -> int:
    """How many CPUs this process may run on: its affinity mask, which
    ``taskset`` narrows, is the one control over a cell's or a grid's
    processes."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


#: The fewest requests that earn a shard process: every process replays
#: the whole publish stream and builds its own replay columns, so a cell
#: with fewer than twice this many replays faster in one process.  On 2
#: vCPUs two processes lose at 58.5k requests and win from 64k on
#: (docs/architecture.md, "Sharded replay").
MIN_SHARD_REQUESTS = 35_000


def _cell_processes(
    workload: Workload, config: SimulationConfig, observer: Optional[Observer]
) -> Tuple[int, Optional[str]]:
    """How many processes replay a cell that has the machine to itself:
    ``(P, None)`` to shard its proxies across P, or ``(1, why not)``.

    The cheap checks come first, so a small cell imports neither
    :mod:`multiprocessing` nor :mod:`repro.system.sharding`.
    """
    cpus = usable_cpus()
    if cpus <= 1:
        return 1, "one usable CPU"
    if workload.request_count < 2 * MIN_SHARD_REQUESTS:
        return 1, f"fewer than {2 * MIN_SHARD_REQUESTS} requests"
    from repro.system.sharding import fork_declined, shard_eligibility

    reason = shard_eligibility(workload, config, observer) or fork_declined()
    if reason is not None:
        return 1, reason
    requests_cap = workload.request_count // MIN_SHARD_REQUESTS
    return min(cpus, requests_cap, workload.config.server_count), None


def _replay(
    key: CellKey,
    config: SimulationConfig,
    scale: float,
    seed: int,
    artifact_dir: Optional[str],
    churn: Optional[ChurnSpec] = None,
    streaming: bool = False,
    observer: Optional[Observer] = None,
    alone: bool = False,
) -> SimulationResult:
    logger.info(
        "cell %s/%s cap=%.2f sq=%.2f (scale=%s seed=%d)",
        key.trace, key.strategy, key.capacity, key.sq, scale, seed,
    )
    workload, match_table, topology = _cell_inputs(
        key, scale, seed, config.notified_fraction, artifact_dir, streaming
    )
    if churn is not None:
        workload = workload.with_churn(
            churn, RandomStreams(seed).stream("workload.churn")
        )
    processes, reason = (
        _cell_processes(workload, config, observer) if alone else (1, "a grid fills the cores")
    )
    if reason is None:
        logger.debug("cell: replaying across %d processes", processes)
    else:
        logger.debug("cell: replaying in one process (%s)", reason)
    result = Simulation(
        workload, config, match_table, topology, observer=observer, processes=processes
    ).run()
    logger.debug("cell done: %s", result.summary())
    return result


def _log_loaded(key: CellKey, result: SimulationResult) -> None:
    logger.info(
        "cell %s loaded from store (replayed in %.3f s when stored)",
        key, result.wall_seconds,
    )


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
    streaming: bool = False,
) -> SimulationResult:
    """Run one simulation cell (trace and tables are memoized).

    With ``artifact_dir`` set (or a process default configured via
    :func:`set_default_artifact_dir`), the cell's result is loaded from
    the on-disk artifact store when this exact call was replayed before
    by this exact code (its ``wall_seconds`` is that replay's); otherwise
    the trace is loaded from / stored to the store, the match table and
    topology are built from it, the cell is replayed and its result
    stored.  An ``observer`` bypasses the result store both ways.

    ``churn`` attaches a subscription-lifecycle stream to the (cached)
    trace *after* loading: the trace's key stays that of the churn-free
    parameters, and ``with_churn`` returns a fresh Workload so the
    memoized object is never mutated.

    ``overload`` arms the overload/backpressure layer (finite service
    queues, origin admission control, retry-storm protection); ``None``
    keeps every capacity infinite, bit-identical to the pre-layer
    behaviour.

    ``streaming`` spills the trace's events to disk as they are
    generated and replays them chunk-at-a-time (see
    :mod:`repro.workload.streaming`).

    A replayed cell picks its own process count: ``min(usable_cpus(),
    requests // MIN_SHARD_REQUESTS, proxies)``.  At two or more, and
    when nothing couples its proxies (no chaos, armed overload, churn or
    observer) and this process may fork, its proxies are sharded across
    that many processes (:mod:`repro.system.sharding`); otherwise it
    replays here.  One DEBUG line says which, and why.  Both ways, and
    streaming or not, the result is bit-identical in every field except
    ``wall_seconds``/``profile``; ``taskset -c 0`` makes it one process.
    """
    artifact_dir = _resolve_artifact_dir(artifact_dir)
    config = _cell_config(key, seed, beta, notified_fraction, strategy_options, overload)
    replay = partial(
        _replay, key, config, scale, seed, artifact_dir, churn, streaming, observer, alone=True
    )
    if artifact_dir is None or observer is not None:
        return replay()
    params = cell_params(key, scale, seed, config, churn, streaming)
    return cached_cell(cell_store(artifact_dir), params, replay, partial(_log_loaded, key))


def _replayed(
    cells: List[CellKey], replay: Callable[[CellKey], SimulationResult]
) -> Iterator[Tuple[CellKey, SimulationResult]]:
    """``(key, replay(key))`` for each of ``cells`` as it finishes: in this
    process and a forked worker per further usable CPU when there are two
    of each, else one after another in this process."""
    processes = min(len(cells), usable_cpus())
    if len(cells) <= 1:
        reason = "at most one cell to replay"
    elif processes <= 1:
        reason = "one usable CPU"
    else:
        from repro.system.sharding import fork_declined

        reason = fork_declined()
    if reason is not None:
        logger.debug("grid: replaying %d cells serially (%s)", len(cells), reason)
        return ((key, replay(key)) for key in cells)
    from repro.system.sharding import fork_map

    logger.debug("grid: replaying %d cells across %d processes", len(cells), processes)
    return (
        (cells[index], result)
        for index, result in fork_map(
            lambda index: replay(cells[index]),
            len(cells),
            processes,
            lambda index: f"grid worker died replaying {cells[index]}",
        )
    )


def run_grid(
    grid: ExperimentGrid,
    scale: float = 1.0,
    seed: int = 7,
    artifact_dir: Optional[str] = None,
) -> GridResult:
    """Run every cell of ``grid``, each at its paper β
    (:func:`paper_beta`) with every subscriber notified; see
    :class:`GridResult` for access.

    Three steps: load every cell the artifact store holds (a warm grid
    forks nothing); load or generate the trace of the rest and build
    its match table and topology into the memos; replay those across
    ``min(cells, usable_cpus())`` processes, this one and forked
    workers, which inherit the memos copy-on-write and touch no store.  Fewer than two
    cells to replay, one usable CPU, no ``fork`` start method or a
    daemonic caller replay serially instead (one DEBUG line says which).
    Results are stored here, and ``outcome.results`` is in
    ``grid.cells()`` order.  A worker that dies raises
    ``ChildProcessError`` naming its cell.
    """
    artifact_dir = _resolve_artifact_dir(artifact_dir)
    store = None if artifact_dir is None else cell_store(artifact_dir)
    configs: Dict[CellKey, SimulationConfig] = {}
    params: Dict[CellKey, dict] = {}
    done: Dict[CellKey, SimulationResult] = {}
    pending = []
    for key in grid.cells():
        configs[key] = _cell_config(
            key, seed, beta=None, notified_fraction=1.0, strategy_options=None
        )
        if store is not None:
            params[key] = cell_params(key, scale, seed, configs[key], None, False)
            result = load_cell(store, params[key])
            if result is not None:
                _log_loaded(key, result)
                done[key] = result
                continue
        pending.append(key)
    for key in pending:  # once, here: forked workers find them in the memos
        _cell_inputs(key, scale, seed, notified_fraction=1.0, artifact_dir=artifact_dir)
    for key, result in _replayed(
        pending, lambda key: _replay(key, configs[key], scale, seed, artifact_dir)
    ):
        if store is not None:
            store_cell(store, params[key], result)
        done[key] = result
    return GridResult(
        grid=grid,
        scale=scale,
        seed=seed,
        results={key: done[key] for key in grid.cells()},
    )


def clear_caches() -> None:
    """Drop memoized traces/tables/topologies and the cell-store counters
    (tests use this)."""
    trace_for.cache_clear()
    streaming_trace_for.cache_clear()
    _tables_for.cache_clear()
    cell_store.cache_clear()
