"""On-disk artifact cache for expensive derived inputs.

Traces, match tables and topologies are deterministic functions of
their generation parameters, so repeated CLI invocations — and every
worker of a ``run_grid`` process pool — can load them from disk instead
of regenerating.  Artifacts are *content-addressed*: the file name is a
SHA-256 over the artifact kind, the canonicalised generation parameters
and :data:`FORMAT_VERSION`.  Any change to a generator or to a
serialization format must bump the version, which orphans every old
entry (they are simply never looked up again; ``clear()`` removes them).

Layout under the cache root (default ``.repro-cache/``)::

    .repro-cache/
        trace/<sha256>.json        Workload.to_json (one list per event column)
        match-table/<sha256>.json  TraceMatchCounts.to_json
        topology/<sha256>.json     Topology.to_json

Writes go through a temporary file and ``os.replace`` so concurrent
pool workers racing to fill the same entry are safe: last writer wins
and both wrote identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Callable, Optional

from repro.experiments.spec import DEFAULT_CACHE_DIR
from repro.network.topology import Topology, build_topology
from repro.obs.log import get_logger
from repro.pubsub.matching import TraceMatchCounts
from repro.sim.rng import RandomStreams
from repro.workload.presets import make_trace
from repro.workload.subscriptions import build_match_counts
from repro.workload.trace import Workload

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

    def get_or_create(
        self,
        kind: str,
        params: dict,
        generate: Callable[[], object],
        serialize: Callable[[object], str],
        deserialize: Callable[[str], object],
    ):
        """Load ``kind``/``params`` from disk, generating on a miss."""
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
        self.misses += 1
        logger.debug("artifact miss: %s %s", kind, params)
        artifact = generate()
        self.store_text(kind, params, serialize(artifact))
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
    """The preset trace ``trace`` at ``scale``/``seed``, disk-cached."""
    return cache.get_or_create(
        "trace",
        {"trace": trace, "scale": scale, "seed": seed},
        generate=lambda: make_trace(trace, scale=scale, seed=seed),
        serialize=lambda workload: workload.to_json(),
        deserialize=Workload.from_json,
    )


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
