"""Sharded replay: the proxy fleet partitioned across processes.

In the fault-free simulation the proxies are *independent given the
trace*: a proxy's cache evolves only from the publish notifications
matched to it and the requests arriving at it, and the publisher's
version counter is a pure function of the publish stream.  So
``Simulation(..., processes=P).run()`` parallelises by partitioning the
proxies (:func:`plan_shards`): every process replays the **full publish
stream** (keeping the publisher's version state bit-identical
everywhere) against a *shard-filtered match table* — so notifications
only reach, and push traffic is only booked for, its own proxies — plus
**only its shard's requests**, through the one replay loop.

A shard counts nothing.  It returns its outcome codes (one byte per
request of its shard, in row order), the ``CacheStats`` of the proxies
it owns (push and eviction counters) and the publisher's hourly push
books.  The parent scatters the codes into request-row order, adopts
each proxy's stats from its owner shard, adds the other shards' push
books to its own, and counts every request once, with the
``Simulation._count_requests`` a one-process run uses.  Each proxy sees
exactly the event subsequence it would see in one process — same order,
same values — and the count reads the same codes in the same row order,
so the result is bit-identical to the one-process replay in every field
except ``wall_seconds``/``profile`` (``tests/system/test_sharding.py``).

**Decline rules** (fall back rather than be subtly wrong):
:func:`shard_eligibility` names the configurations with cross-shard
state — fault schedules, the overload layer's shared origin admission
and retry budget, subscription churn, observers — and
:func:`fork_declined` the processes that cannot fork; ``run_cell``
(:mod:`repro.experiments.runner`) replays those in one process, and so a
cell too small to earn a second process.  ``Simulation`` refuses
``processes > 1`` for any of them, and for cooperation, whose peer
lookups read other proxies' caches, with a ``ValueError`` before any
fork.

This process replays shard 0 and a forked worker each other shard
(:func:`fork_map`, which ``run_grid`` shares), so the ``Simulation``,
trace, match table and topology are inherited copy-on-write, before any
replay — nothing is pickled in, only codes and counters come back, each
up its own pipe, so a worker that dies is named.  Each process cuts its
own shard with :meth:`Workload.for_servers
<repro.workload.trace.Workload.for_servers>`; over a spilled trace
(:mod:`repro.workload.streaming`) the publishes stay memory-mapped and
shared, but the shard's request rows are a copy in its process's memory
(16 bytes per event).
"""

from __future__ import annotations

import itertools
import multiprocessing
import queue
import threading
import traceback
from multiprocessing.connection import wait
from typing import (
    TYPE_CHECKING, Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple, TypeVar,
)

import numpy as np

from repro.cache.stats import CacheStats
from repro.obs.log import get_logger
from repro.obs.profile import Profile, forked_share, send_home
from repro.obs.recorder import Observer
from repro.pubsub.matching import TraceMatchCounts
from repro.system.config import SimulationConfig

if TYPE_CHECKING:
    from repro.system.simulator import Simulation

logger = get_logger(__name__)

T = TypeVar("T")

#: What a shard sends home: its outcome codes in its request-row order,
#: the stats of the proxies it owns (in server order), and its hourly
#: push pages and bytes.
ShardReply = Tuple[bytearray, List[CacheStats], Dict[int, int], Dict[int, int]]


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

#: ``(simulation, shards)``, installed before the fork so nothing is
#: pickled in: every worker inherits the simulation before any replay.
_WORKER_CONTEXT: Optional[tuple] = None


def _replay_shard(index: int) -> ShardReply:
    """Replay shard ``index`` on the inherited simulation's own proxies:
    the full publish stream under the shard's match table, and the
    shard's requests, through the plain loop."""
    simulation, shards = _WORKER_CONTEXT
    shard = frozenset(shards[index])
    stream = simulation.workload.for_servers(shard).replay_stream(
        ShardMatchTable(simulation.match_table, shard)
    )
    proxies = simulation.proxies
    codes = simulation._loop(
        stream,
        [proxy.policy.on_publish for proxy in proxies],
        [proxy.policy.on_request for proxy in proxies],
        settled=False,
    )
    publisher = simulation.publisher
    return (
        codes,
        [proxies[server_id].stats for server_id in shards[index]],
        publisher.push_pages_by_hour,
        publisher.push_bytes_by_hour,
    )


def _run_shard(index: int) -> Tuple[ShardReply, Optional[Profile]]:
    """A shard's reply, and a forked worker's profile fold when the
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


def replay_sharded(simulation: Simulation, processes: int) -> bytearray:
    """Replay a shard-safe ``simulation`` (checked when it was built)
    across ``processes`` processes, this one included, and return every
    request's outcome code in request-row order, for its
    ``_count_requests``.

    This process replays shard 0 on ``simulation`` itself; each worker's
    proxy stats and push books are then adopted into it.  A worker that
    dies without a reply raises ``ChildProcessError`` naming its shard;
    the others are stopped.
    """
    shards = plan_shards(simulation.workload, processes)
    count = len(shards)
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = (simulation, shards)
    replies: Dict[int, ShardReply] = {}
    folds = []
    try:
        for index, (reply, fold) in fork_map(
            _run_shard, count, count, lambda index: f"shard {index} of {count} died"
        ):
            replies[index] = reply
            if fold is not None:
                folds.append(fold)
    finally:
        _WORKER_CONTEXT = None
    send_home(folds)
    logger.info(
        "replayed %d shards (%s)", count, "/".join(str(len(shard)) for shard in shards)
    )

    publisher = simulation.publisher
    for index in range(1, count):  # shard 0's books are already here
        _codes, stats, push_pages, push_bytes = replies[index]
        for server_id, owned in zip(shards[index], stats):
            simulation.proxies[server_id].policy.stats = owned
        for books, theirs in (
            (publisher.push_pages_by_hour, push_pages),
            (publisher.push_bytes_by_hour, push_bytes),
        ):
            for hour, value in theirs.items():
                books[hour] = books.get(hour, 0) + value
    return _scattered(
        simulation.workload, shards, [replies[index][0] for index in range(count)]
    )


def _scattered(workload, shards: Sequence[Sequence[int]], codes: List[bytearray]) -> bytearray:
    """The shards' ``codes`` in the workload's request-row order: a
    shard's rows keep the table's order, so its codes fill the rows its
    servers own, in turn.  Reads the server column a chunk at a time
    (a spool stays chunk-bounded) and maps each row to its shard through
    a table indexed by server."""
    owner = np.empty(workload.config.server_count, dtype=np.intp)
    for index, shard in enumerate(shards):
        owner[list(shard)] = index
    outcomes = bytearray(workload.request_count)
    merged = np.frombuffer(outcomes, dtype=np.uint8)
    sources = [np.frombuffer(shard_codes, dtype=np.uint8) for shard_codes in codes]
    taken = [0] * len(sources)
    done = 0
    for chunk in workload.requests.chunks():
        owners = owner.take(chunk["server_id"])
        rows = merged[done : done + len(chunk)]
        done += len(chunk)
        for index, source in enumerate(sources):
            # Row indices, not a boolean mask: a masked store costs 8x.
            mine = np.flatnonzero(owners == index)
            rows[mine] = source[taken[index] : taken[index] + len(mine)]
            taken[index] += len(mine)
    return outcomes
