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
bit-identical to the one-process replay in every field except
``wall_seconds``/``profile`` (enforced by
``tests/system/test_sharding.py`` across strategies and pushing
schemes).

**Decline rules** (fall back rather than be subtly wrong):
:func:`shard_eligibility` names the configurations with cross-shard
state — fault schedules, the overload layer's shared origin admission
and retry budget, subscription churn, observers — and
:func:`fork_declined` the processes that cannot fork; ``run_cell``
(:mod:`repro.experiments.runner`), the one caller of
:func:`run_sharded`, replays those in one process, and so a cell too
small to earn a second process.  Cooperation, whose peer lookups read
other proxies' caches, is not sharded: ``run_sharded`` builds the
paper's independent proxies.

This process replays shard 0 and a forked worker each other shard
(:func:`fork_map`, which ``run_grid`` shares), so the trace, match
table and topology are inherited copy-on-write — nothing is pickled in,
only the partial results come back, each up its own pipe, so a worker
that dies is named.  Each process cuts its own shard with
:meth:`Workload.for_servers <repro.workload.trace.Workload.for_servers>`;
over a spilled trace (:mod:`repro.workload.streaming`) the publishes
stay memory-mapped and shared, but the shard's request rows are a copy
in its process's memory (16 bytes per event); each shard process costs
about 45-50 MiB of summed PSS (CHANGES.md, PR 34).
"""

from __future__ import annotations

import itertools
import multiprocessing
import queue
import threading
import time
import traceback
from dataclasses import replace
from multiprocessing.connection import wait
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple, TypeVar

from repro.network.topology import Topology
from repro.obs.log import get_logger
from repro.obs.profile import Profile, forked_share, send_home
from repro.obs.recorder import Observer
from repro.pubsub.matching import TraceMatchCounts
from repro.system.config import SimulationConfig
from repro.system.metrics import SimulationResult
from repro.system.simulator import Simulation, cell_inputs

logger = get_logger(__name__)

T = TypeVar("T")


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
    configurations decline; each layer module's docstring names the
    state outside their proxy that its wrappers touch.
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


def plan_shards(workload, processes: int) -> List[List[int]]:
    """Partition the proxies into at most ``processes`` shards by greedy
    LPT: the heaviest server (by request weight) first, onto the
    lightest shard.

    Deterministic (ties break on the lower server id, then the lower
    shard index); empty shards are dropped.
    """
    server_count = workload.config.server_count
    bins = max(1, min(int(processes), server_count))
    weights = _server_weights(workload)
    loads = [0] * bins
    shards: List[List[int]] = [[] for _ in range(bins)]
    for server in sorted(range(server_count), key=lambda s: (-weights[s], s)):
        target = min(range(bins), key=lambda j: (loads[j], j))
        shards[target].append(server)
        loads[target] += weights[server]
    return [sorted(shard) for shard in shards if shard]


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


# -- the fork runner ---------------------------------------------------------

#: Worker inputs, installed before the fork so nothing is pickled in.
_WORKER_CONTEXT: Optional[tuple] = None


def _replay_shard(index: int) -> SimulationResult:
    workload, config, match_table, topology, shards = _WORKER_CONTEXT
    shard = frozenset(shards[index])
    return Simulation(
        workload.for_servers(shard), config, ShardMatchTable(match_table, shard), topology
    ).run()


def _run_shard(index: int) -> Tuple[SimulationResult, Optional[Profile]]:
    """A shard's result, and a forked worker's profile fold when the
    parent profiles (:func:`repro.obs.profile.forked_share`)."""
    return forked_share(_replay_shard, index)


def fork_declined() -> Optional[str]:
    """Why this process cannot fork workers, or ``None`` when it can."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return "the platform lacks the fork start method"
    if multiprocessing.current_process().daemon:
        return "a daemonic process cannot have children"
    return None


class RemoteTraceback(Exception):
    """A forked worker's traceback, as text: the ``__cause__`` of the
    exception :func:`fork_map` re-raises from that worker."""

    def __str__(self) -> str:
        return f'\n"""\n{self.args[0]}"""'


def _worker_main(work: Callable[[int], T], connection, parent_end) -> None:
    """A forked worker: for each task index the parent sends, send back
    ``(work(index), None)``, or ``(error, its traceback)`` for the
    exception that stopped it, until ``None``."""
    parent_end.close()  # so a parent that is gone is an EOF here
    try:
        for index in iter(connection.recv, None):
            try:
                reply = (work(index), None)
            except BaseException as error:  # re-raised in the parent
                reply = (error, traceback.format_exc())
            try:
                connection.send(reply)
            except OSError:
                raise
            except Exception as error:  # the outcome does not pickle
                what = "its result" if reply[1] is None else repr(reply[0])
                connection.send((
                    RuntimeError(f"task {index}: {what} cannot be sent: {error}"),
                    reply[1] or traceback.format_exc(),
                ))
    except (EOFError, OSError):  # the parent is gone: nobody to answer
        pass


def _serve(busy: Dict[object, tuple], take: Callable[[], Optional[int]], done, died) -> None:
    """Hand each worker its next task as it returns a result, putting
    ``(index, result, traceback or None)`` on ``done``, until no worker
    is busy; a worker that dies puts a ``ChildProcessError`` to raise
    and ends the serving."""
    try:
        while busy:
            for connection in wait(list(busy)):
                process, index = busy.pop(connection)
                # Its reply (or its end) is waiting: hand it the next
                # task before reading the reply, so it does not wait on
                # this thread's turns at the interpreter lock.
                following = take()
                try:
                    connection.send(following)
                except OSError:  # it died: the recv below says so
                    pass
                if following is not None:
                    busy[connection] = (process, following)
                try:
                    result, text = connection.recv()
                except EOFError:
                    process.join()
                    done.put(ChildProcessError(f"{died(index)} (exit code {process.exitcode})"))
                    return
                done.put((index, result, text))
    except BaseException as error:  # never leave the caller waiting
        done.put(error)


def _outcome(item) -> Tuple[int, T]:
    if isinstance(item, BaseException):
        raise item
    index, result, text = item
    if text is not None:
        raise result from RemoteTraceback(text)
    return index, result


def fork_map(
    work: Callable[[int], T], count: int, processes: int, died: Callable[[int], str]
) -> Iterator[Tuple[int, T]]:
    """``(index, work(index))`` for every ``index < count``, computed by
    this process and ``processes - 1`` forked workers and yielded as
    each finishes.

    This process runs task 0, workers start on tasks 1 to
    ``processes - 1``, and from then on whichever is free takes the next
    task; a thread here serves the workers while this process works.
    Workers inherit the caller's memory copy-on-write, so only task
    indices go down and results come back, each worker on its own pipe.
    A worker that dies closes its pipe, which raises
    ``ChildProcessError`` with ``died(index)`` of the task it held and
    its exit code; an exception raised in a worker is re-raised here
    with the worker's traceback as its cause.  Either way, or when the
    caller stops early, the workers are stopped.
    """
    context = multiprocessing.get_context("fork")
    tasks = iter(range(count))
    lock = threading.Lock()

    def take() -> Optional[int]:
        with lock:
            return next(tasks, None)

    own = take()
    started = []
    busy: Dict[object, tuple] = {}  # parent end -> (process, task index)
    done: queue.SimpleQueue = queue.SimpleQueue()
    server = threading.Thread(target=_serve, args=(busy, take, done, died), daemon=True)
    try:
        for index in itertools.islice(tasks, processes - 1):
            connection, child_end = context.Pipe()
            process = context.Process(
                target=_worker_main, args=(work, child_end, connection)
            )
            process.start()
            child_end.close()  # the worker's copy is now the only other end
            started.append((process, connection))
            connection.send(index)
            busy[connection] = (process, index)
        server.start()  # after the last fork: a forked child has one thread
        remaining = count
        while own is not None:
            yield own, work(own)
            remaining -= 1
            while not done.empty():
                yield _outcome(done.get())
                remaining -= 1
            own = take()
        for _ in range(remaining):
            yield _outcome(done.get())
    finally:
        for process, _ in started:
            if process.is_alive():
                process.terminate()
        if server.is_alive():
            server.join()
        for process, connection in started:
            process.join()
            connection.close()


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
    # same per-proxy floats — bit-identical to the one-process total.
    merged.total_response_time = sum(
        stats.response_time for stats in merged.per_proxy
    )
    merged.wall_seconds = wall_seconds
    merged.profile = None
    return merged


def run_sharded(
    workload,
    config: SimulationConfig,
    processes: int,
    match_table: Optional[TraceMatchCounts] = None,
    topology: Optional[Topology] = None,
) -> SimulationResult:
    """Run one shard-safe cell (:func:`shard_eligibility`) across
    ``processes`` shard processes, this one included.

    One shard (``processes`` 1, or one proxy) replays here.  A worker
    that dies without a result raises ``ChildProcessError`` naming its
    shard; the others are stopped.
    """
    started = time.perf_counter()
    # Build the shared inputs once; workers inherit them through the fork.
    match_table, topology = cell_inputs(
        workload, config.seed, config.subscription_quality, config.notified_fraction,
        match_table, topology,
    )
    shards = plan_shards(workload, processes)
    if len(shards) <= 1:
        return Simulation(workload, config, match_table, topology).run()

    global _WORKER_CONTEXT
    _WORKER_CONTEXT = (workload, config, match_table, topology, shards)
    count = len(shards)
    partials: Dict[int, SimulationResult] = {}
    folds = []
    try:
        for index, (partial, fold) in fork_map(
            _run_shard, count, count, lambda index: f"shard {index} of {count} died"
        ):
            partials[index] = partial
            if fold is not None:
                folds.append(fold)
    finally:
        _WORKER_CONTEXT = None
    send_home(folds)

    logger.info(
        "merged %d shards (%s)",
        count,
        "/".join(str(len(shard)) for shard in shards),
    )
    return merge_shard_results(
        [partials[index] for index in range(count)],
        shards,
        workload.config.server_count,
        time.perf_counter() - started,
    )
