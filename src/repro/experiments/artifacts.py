"""On-disk artifact store: a run's derived inputs and its cell results.

Traces, match tables and topologies are deterministic functions of
their generation parameters, and a cell's :class:`SimulationResult` is a
deterministic function of those inputs, its ``SimulationConfig`` and the
code — so repeated CLI invocations, overlapping grids and every worker
of a ``run_grid`` process pool can load them from disk instead of
regenerating or replaying.  Artifacts are *content-addressed*: the file
name is a SHA-256 over the artifact kind, the canonicalised parameters
and :data:`FORMAT_VERSION`.  Any change to a generator or to a
serialization format must bump the version, which orphans every old
entry (they are simply never looked up again; ``clear()`` removes them).

Layout under the store root (default ``.repro-cache/``)::

    .repro-cache/
        trace/<sha256>.json        Workload.to_json (one list per event column)
        match-table/<sha256>.json  TraceMatchCounts.to_json
        topology/<sha256>.json     Topology.to_json
        cell/<sha256>.json         SimulationResult.to_json

A cell's key (:func:`cell_params`) is the whole ``run_cell`` call — the
``CellKey``, scale, seed, every ``SimulationConfig`` field (``workers``
included: one rule, "the key is the call", not a list of fields known
not to matter), the churn spec, ``streaming`` — plus
:func:`code_fingerprint`, a hash of every source file of the package.
The inputs come from three generators that change rarely, so a version
number someone bumps is enough for them; a result depends on *all* of
``src/repro``, where a forgotten bump would be a silently stale number,
so any edit to any module orphans every stored cell instead.

Writes go through a temporary file and ``os.replace`` so concurrent
pool workers racing to fill the same entry are safe: last writer wins,
and both wrote the same bytes (for a cell: but for ``wall_seconds``).
A write that fails (full disk, read-only mount) costs one WARNING, never
the artifact that was just computed.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import asdict
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Optional

from repro.experiments.spec import DEFAULT_CACHE_DIR
from repro.network.topology import Topology, build_topology
from repro.obs.log import get_logger
from repro.pubsub.matching import TraceMatchCounts
from repro.sim.rng import RandomStreams
from repro.system.config import SimulationConfig
from repro.system.metrics import SimulationResult
from repro.workload.presets import make_trace
from repro.workload.subscriptions import build_match_counts
from repro.workload.trace import Workload

if TYPE_CHECKING:
    from repro.experiments.spec import CellKey
    from repro.workload.churn import ChurnSpec

logger = get_logger(__name__)

#: Serialization/generator format version.  Bump on ANY change to the
#: workload/table/topology generators or their JSON formats; every key
#: embeds it, so old cache entries are silently invalidated.
FORMAT_VERSION = 2


class ArtifactCache:
    """A content-addressed store of serialized generation artifacts."""

    def __init__(
        self,
        root: str = DEFAULT_CACHE_DIR,
        format_version: int = FORMAT_VERSION,
    ) -> None:
        self.root = root
        self.format_version = int(format_version)
        self.hits = 0
        self.misses = 0

    # -- keys ------------------------------------------------------------

    def key(self, kind: str, params: dict) -> str:
        """SHA-256 key of one artifact: kind + params + format version."""
        canonical = json.dumps(
            {"kind": kind, "version": self.format_version, "params": params},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def path(self, kind: str, params: dict) -> str:
        return os.path.join(self.root, kind, self.key(kind, params) + ".json")

    # -- raw text access -------------------------------------------------

    def load_text(self, kind: str, params: dict) -> Optional[str]:
        """The stored payload, or None on a cache miss."""
        try:
            with open(self.path(kind, params), "r", encoding="utf-8") as handle:
                return handle.read()
        except (FileNotFoundError, NotADirectoryError):
            return None

    def store_text(self, kind: str, params: dict, text: str) -> str:
        """Atomically persist one payload; returns its path."""
        target = self.path(kind, params)
        directory = os.path.dirname(target)
        os.makedirs(directory, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp_path, target)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        return target

    # -- the generic load-or-generate protocol ---------------------------

    def load(self, kind: str, params: dict, deserialize: Callable[[str], object]):
        """The stored ``kind``/``params`` artifact; ``None`` when there is
        none or it is damaged (one WARNING naming the file)."""
        try:
            text = self.load_text(kind, params)
            if text is not None:
                artifact = deserialize(text)
                self.hits += 1
                logger.debug("artifact hit: %s %s", kind, params)
                return artifact
        except (ValueError, KeyError, TypeError) as error:
            # A truncated, hand-edited or non-UTF-8 entry (a
            # UnicodeDecodeError is a ValueError): regenerate over it.
            logger.warning(
                "corrupt %s artifact %s (%s); regenerating",
                kind, self.path(kind, params), error,
            )
        return None

    def create(
        self,
        kind: str,
        params: dict,
        generate: Callable[[], object],
        serialize: Callable[[object], str],
    ):
        """Generate the artifact and store it (over any damaged entry).  A
        failed write is one WARNING: the artifact is returned all the same."""
        self.misses += 1
        logger.debug("artifact miss: %s %s", kind, params)
        artifact = generate()
        try:
            self.store_text(kind, params, serialize(artifact))
        except OSError as error:
            logger.warning(
                "cannot store %s artifact %s (%s); continuing without it",
                kind, self.path(kind, params), error,
            )
        return artifact

    def get_or_create(
        self,
        kind: str,
        params: dict,
        generate: Callable[[], object],
        serialize: Callable[[object], str],
        deserialize: Callable[[str], object],
    ):
        """Load ``kind``/``params`` from disk, generating on a miss."""
        artifact = self.load(kind, params, deserialize)
        if artifact is None:
            artifact = self.create(kind, params, generate, serialize)
        return artifact

    def clear(self) -> int:
        """Delete every stored artifact; returns how many were removed."""
        removed = 0
        if not os.path.isdir(self.root):
            return removed
        for kind in os.listdir(self.root):
            directory = os.path.join(self.root, kind)
            if not os.path.isdir(directory):
                continue
            for name in os.listdir(directory):
                if name.endswith(".json"):
                    os.unlink(os.path.join(directory, name))
                    removed += 1
        return removed


# -- typed artifact accessors (the keys the experiment runner uses) --------


def cached_trace(
    cache: ArtifactCache, trace: str, scale: float, seed: int
) -> Workload:
    """The preset trace ``trace`` at ``scale``/``seed``, disk-cached.

    ``load`` then ``create`` rather than ``get_or_create``: that method is
    the store's instrumented entry (``bench/child.py`` wraps it in a span
    whose parent must be a timed pass), and a trace — unlike a table, a
    topology or a cell — is also loaded outside any cell: by
    ``runner.preset_trace`` and by the benchmark's checks after its clock
    has stopped, now that a warm pass leaves no trace in memory.
    """
    params = {"trace": trace, "scale": scale, "seed": seed}
    workload = cache.load("trace", params, Workload.from_json)
    if workload is None:
        workload = cache.create(
            "trace",
            params,
            generate=lambda: make_trace(trace, scale=scale, seed=seed),
            serialize=lambda workload: workload.to_json(),
        )
    return workload


def cached_match_table(
    cache: ArtifactCache,
    workload: Workload,
    trace: str,
    scale: float,
    seed: int,
    sq: float,
    notified_fraction: float,
) -> TraceMatchCounts:
    """The eq.-7 match table for one (trace, SQ) pair, disk-cached.

    ``workload`` is only consulted on a miss (its request pairs feed
    the generator); the key is the *parameters* that produced it.
    """

    def generate() -> TraceMatchCounts:
        table = build_match_counts(
            workload.pair_counts(),
            sq,
            RandomStreams(seed).stream("subscriptions"),
            notified_fraction=notified_fraction,
        )
        return TraceMatchCounts(table)

    return cache.get_or_create(
        "match-table",
        {
            "trace": trace,
            "scale": scale,
            "seed": seed,
            "sq": sq,
            "notified_fraction": notified_fraction,
        },
        generate=generate,
        serialize=lambda table: table.to_json(),
        deserialize=TraceMatchCounts.from_json,
    )


def cached_topology(
    cache: ArtifactCache,
    server_count: int,
    seed: int,
    model: str,
    extra_nodes: int,
) -> Topology:
    """The fetch-cost topology for one server count, disk-cached."""
    return cache.get_or_create(
        "topology",
        {
            "server_count": server_count,
            "seed": seed,
            "model": model,
            "extra_nodes": extra_nodes,
        },
        generate=lambda: build_topology(
            server_count,
            RandomStreams(seed).stream("topology"),
            model=model,
            extra_nodes=extra_nodes,
        ),
        serialize=lambda topology: topology.to_json(),
        deserialize=Topology.from_json,
    )


@lru_cache(maxsize=None)
def code_fingerprint(package_dir: Optional[str] = None) -> str:
    """SHA-256 over the relative path and bytes of every ``.py`` file under
    ``package_dir`` (default: the imported ``repro`` package), in sorted
    order; computed once per process."""
    if package_dir is None:
        import repro

        package_dir = os.path.dirname(repro.__file__)
    sources = sorted(
        os.path.relpath(os.path.join(directory, name), package_dir)
        for directory, _, names in os.walk(package_dir)
        for name in names
        if name.endswith(".py")
    )
    digest = hashlib.sha256()
    for source in sources:
        with open(os.path.join(package_dir, source), "rb") as handle:
            content = handle.read()
        digest.update(f"{source}\0{len(content)}\0".encode("utf-8"))
        digest.update(content)
    return digest.hexdigest()


def cell_params(
    key: CellKey,
    scale: float,
    seed: int,
    config: SimulationConfig,
    churn: Optional[ChurnSpec],
    streaming: bool,
) -> dict:
    """Everything one cell's result depends on (see the module docstring)."""
    return {
        **asdict(key),
        "scale": scale,
        "seed": seed,
        "config": {**asdict(config), "pushing": config.pushing.value},
        "churn": None if churn is None else asdict(churn),
        "streaming": streaming,
        "code": code_fingerprint(),
    }


def cached_cell(
    cache: ArtifactCache, params: dict, replay: Callable[[], SimulationResult]
) -> SimulationResult:
    """The result stored under ``params``, else ``replay()``'s, stored.

    Params that do not canonicalise to JSON (an exotic
    ``strategy_options`` value) have no key: the cell is replayed and
    not stored.
    """
    try:
        cache.key("cell", params)
    except (TypeError, ValueError) as error:
        logger.debug("cell has no store key (%s); replaying", error)
        return replay()
    return cache.get_or_create(
        "cell",
        params,
        generate=replay,
        serialize=lambda result: result.to_json(),
        deserialize=SimulationResult.from_json,
    )
