"""On-disk artifact store: a run's traces and its cell results.

A trace is a deterministic function of its generation parameters, and a
cell's :class:`SimulationResult` is a deterministic function of its
trace, its ``SimulationConfig`` and the code — so repeated CLI
invocations and overlapping grids can load them from disk instead of
regenerating or replaying.  A cell's match table and topology are not
stored: ``repro.system.simulator.cell_inputs`` rebuilds them from the
trace and the seed in milliseconds.  Artifacts are *content-addressed*:
the file name is a SHA-256 over the artifact kind, the canonicalised
parameters and :data:`FORMAT_VERSION`.  Any change to the trace
generator or to a serialization format must bump the version, which
orphans every old entry (they are simply never looked up again;
``rm -r .repro-cache`` removes them).

Layout under the store root (default ``.repro-cache/``)::

    .repro-cache/
        trace/<sha256>.npz         Workload.to_bytes (the rows' bytes, np.savez)
        cell/<sha256>.json         SimulationResult.to_json

A cell's key (:func:`cell_params`) is the whole ``run_cell`` call — the
``CellKey``, scale, seed, every ``SimulationConfig`` field (one rule,
"the key is the call", not a list of fields known not to matter), the
churn spec, ``streaming`` — but not the process count, which the
machine picks and which moves no digit of a result — plus
:func:`code_fingerprint`, a hash of every source file of the package.
A trace comes from one generator that changes rarely, so a version
number someone bumps is enough for it; a result depends on *all* of
``src/repro``, where a forgotten bump would be a silently stale number,
so any edit to any module orphans every stored cell instead.

Writes go through a temporary file and ``os.replace`` so concurrent
invocations racing to fill the same entry are safe: last writer wins,
and both wrote the same bytes (for a cell: but for ``wall_seconds``).
Within one ``run_grid`` only the parent process reads and writes.
A write that fails (full disk, read-only mount) costs one WARNING, never
the artifact that was just computed.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import zipfile
from dataclasses import asdict
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Optional

from repro.experiments.spec import DEFAULT_CACHE_DIR
from repro.obs.log import get_logger
from repro.system.config import SimulationConfig
from repro.system.metrics import SimulationResult
from repro.workload.presets import make_trace
from repro.workload.trace import Workload

if TYPE_CHECKING:
    from repro.experiments.spec import CellKey
    from repro.workload.churn import ChurnSpec

logger = get_logger(__name__)

#: Serialization/generator format version.  Bump on ANY change to the
#: trace generator or to a stored format; every key embeds it, so old
#: cache entries are silently invalidated.
FORMAT_VERSION = 3


class ArtifactCache:
    """A content-addressed store of serialized generation artifacts."""

    def __init__(self, root: str = DEFAULT_CACHE_DIR) -> None:
        self.root = root
        self.hits = 0
        self.misses = 0

    # -- keys ------------------------------------------------------------

    def key(self, kind: str, params: dict) -> str:
        """SHA-256 key of one artifact: kind + params + format version."""
        canonical = json.dumps(
            {"kind": kind, "version": FORMAT_VERSION, "params": params},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def path(self, kind: str, params: dict) -> str:
        suffix = ".npz" if kind == "trace" else ".json"
        return os.path.join(self.root, kind, self.key(kind, params) + suffix)

    # -- raw bytes access ------------------------------------------------

    def load_bytes(self, kind: str, params: dict) -> Optional[bytes]:
        """The stored payload, or None on a cache miss."""
        try:
            with open(self.path(kind, params), "rb") as handle:
                return handle.read()
        except (FileNotFoundError, NotADirectoryError):
            return None

    def store_bytes(self, kind: str, params: dict, data: bytes) -> str:
        """Atomically persist one payload; returns its path."""
        target = self.path(kind, params)
        directory = os.path.dirname(target)
        os.makedirs(directory, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp_path, target)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        return target

    # -- the generic load-or-generate protocol ---------------------------

    def load(self, kind: str, params: dict, deserialize: Callable[[bytes], object]):
        """The stored ``kind``/``params`` artifact; ``None`` when there is
        none or it is damaged (one WARNING naming the file)."""
        try:
            data = self.load_bytes(kind, params)
            if data is not None:
                artifact = deserialize(data)
                self.hits += 1
                logger.debug("artifact hit: %s %s", kind, params)
                return artifact
        except (ValueError, KeyError, TypeError, zipfile.BadZipFile, EOFError) as error:
            # A truncated, hand-edited or non-UTF-8 entry (a
            # UnicodeDecodeError is a ValueError), or an archive whose
            # zip structure or CRC is broken: regenerate over it.
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
        serialize: Callable[[object], bytes],
    ):
        """Generate the artifact and store it (over any damaged entry).  A
        failed write is one WARNING: the artifact is returned all the same."""
        self.misses += 1
        logger.debug("artifact miss: %s %s", kind, params)
        artifact = generate()
        try:
            self.store_bytes(kind, params, serialize(artifact))
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
        serialize: Callable[[object], bytes],
        deserialize: Callable[[bytes], object],
    ):
        """Load ``kind``/``params`` from disk, generating on a miss."""
        artifact = self.load(kind, params, deserialize)
        if artifact is None:
            artifact = self.create(kind, params, generate, serialize)
        return artifact


# -- typed artifact accessors (the keys the experiment runner uses) --------


def cached_trace(
    cache: ArtifactCache, trace: str, scale: float, seed: int
) -> Workload:
    """The preset trace ``trace`` at ``scale``/``seed``, disk-cached.

    ``load`` then ``create`` rather than ``get_or_create``: that method is
    the store's instrumented entry (``bench/child.py`` wraps it in a span
    whose parent must be a timed pass), and a trace — unlike a cell — is
    also loaded outside any cell: by ``runner.preset_trace`` and by the
    benchmark's checks after its clock has stopped, now that a warm pass
    leaves no trace in memory.
    """
    params = {"trace": trace, "scale": scale, "seed": seed}
    workload = cache.load("trace", params, Workload.from_bytes)
    if workload is None:
        workload = cache.create(
            "trace",
            params,
            generate=lambda: make_trace(trace, scale=scale, seed=seed),
            serialize=Workload.to_bytes,
        )
    return workload


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


def _keyed(cache: ArtifactCache, params: dict) -> bool:
    """Whether ``params`` have a key: params that do not canonicalise to
    JSON (an exotic ``strategy_options`` value) have none, and their cell
    is replayed and not stored."""
    try:
        cache.key("cell", params)
    except (TypeError, ValueError) as error:
        logger.debug("cell has no store key (%s); replaying", error)
        return False
    return True


def _encode_cell(result: SimulationResult) -> bytes:
    return result.to_json().encode("utf-8")


def _decode_cell(data: bytes) -> SimulationResult:
    return SimulationResult.from_json(data.decode("utf-8"))


def load_cell(cache: ArtifactCache, params: dict) -> Optional[SimulationResult]:
    """The result stored under ``params``, or ``None``: replay the cell,
    then :func:`store_cell` the result."""
    if not _keyed(cache, params):
        return None
    return cache.load("cell", params, _decode_cell)


def store_cell(cache: ArtifactCache, params: dict, result: SimulationResult) -> None:
    """Store a replayed cell's ``result`` under ``params`` (if they have a key)."""
    if _keyed(cache, params):
        cache.create("cell", params, lambda: result, _encode_cell)


def cached_cell(
    cache: ArtifactCache,
    params: dict,
    replay: Callable[[], SimulationResult],
    on_load: Callable[[SimulationResult], None],
) -> SimulationResult:
    """:func:`load_cell` (handing the result to ``on_load``), else
    ``replay()`` and :func:`store_cell`, in one ``get_or_create``."""
    if not _keyed(cache, params):
        return replay()

    def decode(data: bytes) -> SimulationResult:
        result = _decode_cell(data)
        on_load(result)
        return result

    return cache.get_or_create("cell", params, replay, _encode_cell, decode)
