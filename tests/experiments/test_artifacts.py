"""Tests for the on-disk artifact cache and its runner/CLI wiring."""

import dataclasses
import io
import json
import logging
import os
import struct
import zipfile

import numpy as np
import pytest

from repro.experiments import artifacts, runner
from repro.experiments.artifacts import (
    FORMAT_VERSION,
    ArtifactCache,
    cached_trace,
)
from repro.experiments.spec import CellKey
from repro.workload.presets import make_trace
from repro.workload.trace import Workload
from tests.workload.test_trace_digest import trace_digest

SCALE = 0.02
SEED = 3


@pytest.fixture(autouse=True)
def fresh_memo():
    """Each test sees cold in-process memos (disk state is its own)."""
    runner.clear_caches()
    yield
    runner.clear_caches()
    runner.set_default_artifact_dir(None)


def test_trace_round_trips_through_cache(tmp_path):
    cache = ArtifactCache(str(tmp_path))
    first = cached_trace(cache, "news", SCALE, SEED)
    assert cache.misses == 1 and cache.hits == 0
    second = cached_trace(cache, "news", SCALE, SEED)
    assert cache.hits == 1
    assert dataclasses.asdict(first.config) == dataclasses.asdict(second.config)
    assert first.pages == second.pages
    assert first.publishes == second.publishes
    assert first.requests == second.requests
    assert first.label == second.label


def test_distinct_params_get_distinct_entries(tmp_path):
    cache = ArtifactCache(str(tmp_path))
    a = cache.path("trace", {"trace": "news", "scale": 0.02, "seed": 3})
    b = cache.path("trace", {"trace": "news", "scale": 0.02, "seed": 4})
    c = cache.path("trace", {"trace": "alternative", "scale": 0.02, "seed": 3})
    assert len({a, b, c}) == 3


def test_format_version_bump_invalidates(tmp_path, monkeypatch):
    """An entry written at version N is invisible to version N+1."""
    params = {"trace": "news", "scale": SCALE, "seed": SEED}
    cache = ArtifactCache(str(tmp_path))
    cached_trace(cache, "news", SCALE, SEED)
    monkeypatch.setattr(artifacts, "FORMAT_VERSION", FORMAT_VERSION + 1)
    bumped = ArtifactCache(str(tmp_path))
    assert bumped.load_bytes("trace", params) is None
    cached_trace(bumped, "news", SCALE, SEED)
    assert bumped.misses == 1 and bumped.hits == 0
    # Both versions' entries now coexist; neither shadows the other.
    assert bumped.load_bytes("trace", params) is not None
    monkeypatch.undo()
    assert cache.load_bytes("trace", params) is not None


def test_corrupt_entry_regenerated(tmp_path):
    cache = ArtifactCache(str(tmp_path))
    cached_trace(cache, "news", SCALE, SEED)
    path = cache.path("trace", {"trace": "news", "scale": SCALE, "seed": SEED})
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("{not an archive")
    workload = cached_trace(cache, "news", SCALE, SEED)
    assert workload.request_count > 0
    assert cache.misses == 2
    # The regenerated entry replaced the corrupt one.
    with open(path, "rb") as handle:
        assert Workload.from_bytes(handle.read()) == workload


def _archive(**members) -> bytes:
    buffer = io.BytesIO()
    np.savez(buffer, **members)
    return buffer.getvalue()


def _member_spans(data: bytes):
    """``(name, start, end)`` of each member's bytes (npy header and rows)."""
    with zipfile.ZipFile(io.BytesIO(data)) as archive:
        for info in archive.infolist():
            offset = info.header_offset
            name_length, extra_length = struct.unpack("<HH", data[offset + 26 : offset + 30])
            start = offset + 30 + name_length + extra_length
            yield info.filename, start, start + info.compress_size


def _damaged_entries(data: bytes):
    """The stored trace damaged every way a file on disk can be."""
    yield "not an archive", b"\xff\xfe\x00garbage"
    yield "a bare npy", _npy(np.arange(3))
    for step in range(16):
        yield f"cut at {step}/16", data[: len(data) * step // 16]
    for name, start, end in _member_spans(data):
        shape = data.index(b"'shape': (", start) + len(b"'shape': (")
        for where, at in (("magic", start), ("shape", shape), ("rows", (start + end) // 2),
                          ("last", end - 1)):
            flipped = bytearray(data)
            flipped[at] ^= 0x01
            yield f"{name}: flipped {where} byte", bytes(flipped)
    for name, at in _central_headers(data):
        # Header fields no CRC covers, which zipfile meets with
        # NotImplementedError, zlib.error or RuntimeError (password required).
        for where, offset, value in (("method 1", 10, 1), ("deflated", 10, 8),
                                     ("encrypted", 8, 0x01), ("version 9.9", 6, 99)):
            changed = bytearray(data)
            struct.pack_into("<H", changed, at + offset, value)
            yield f"{name}: central header {where}", bytes(changed)
    with np.load(io.BytesIO(data), allow_pickle=False) as archive:
        members = {name: archive[name] for name in archive.files}
    header = json.loads(str(members["header"]))
    for name in ("pages", "publishes", "requests"):
        rows = members[name]
        yield f"{name}: another dtype", _archive(**{**members, name: rows.astype(
            [(field, "<f4") for field in rows.dtype.names])})
        yield f"{name}: two-dimensional", _archive(**{**members, name: rows.reshape(1, -1)})
        yield f"{name}: pickled", _archive(**{**members, name: rows.astype(object)})
        yield f"{name}: missing", _archive(**{k: v for k, v in members.items() if k != name})
    yield "an extra member", _archive(**members, lifecycle=np.zeros(3))
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as archive:
        for name, member in members.items():
            archive.writestr(f"{name}.npy", b"raw rows" if name == "pages" else _npy(member))
    yield "pages: not an npy member", buffer.getvalue()
    yield "header: not JSON", _archive(**{**members, "header": np.array("{not json")})
    yield "header: a number", _archive(**{**members, "header": np.array(7)})
    config = header["config"]
    for label, changed in (
        ("header: a config field missing", {k: v for k, v in config.items() if k != "server_count"}),
        ("header: an unknown config field", {**config, "shards": 2}),
    ):
        text = json.dumps({**header, "config": changed})
        yield label, _archive(**{**members, "header": np.array(text)})
    yield "header: no config", _archive(**{**members, "header": np.array('{"label": "news"}')})


def _central_headers(data: bytes):
    """``(name, offset)`` of each member's central directory header."""
    with zipfile.ZipFile(io.BytesIO(data)) as archive:
        at = archive.start_dir
        for info in archive.infolist():
            yield info.filename, at
            at += 46 + sum(struct.unpack("<HHH", data[at + 28 : at + 34]))


def _npy(array) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


def test_damaged_trace_entries_regenerate(tmp_path, caplog):
    """Every damaged entry — not an archive, cut short, a flipped byte in
    any member, a zip header naming compression or encryption, a member of
    the wrong dtype or shape, pickled, not npy, missing or extra, a header
    that is not the config — ends in one WARNING and a
    regeneration of the same trace, rewritten byte for byte: never an
    exception, never a shorter trace, never an unpickled object."""
    cache = ArtifactCache(str(tmp_path))
    want = trace_digest(cached_trace(cache, "news", SCALE, SEED))
    path = cache.path("trace", {"trace": "news", "scale": SCALE, "seed": SEED})
    with open(path, "rb") as handle:
        stored = handle.read()
    cases = 0
    for label, damaged in _damaged_entries(stored):
        assert damaged != stored, label
        with open(path, "wb") as handle:
            handle.write(damaged)
        misses = cache.misses
        caplog.clear()
        assert trace_digest(cached_trace(cache, "news", SCALE, SEED)) == want, label
        assert cache.misses == misses + 1, label
        warnings = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
        assert len(warnings) == 1 and warnings[0].startswith("corrupt trace artifact"), label
        with open(path, "rb") as handle:
            assert handle.read() == stored, label
        cases += 1
    assert cases == 2 + 16 + 4 * 4 + 4 * 4 + 3 * 4 + 7


def test_a_bare_npy_is_refused_before_it_is_opened():
    """``np.load`` hands back an ndarray for npy bytes; an ndarray is no
    context manager, which CPython before 3.11 reports as an
    AttributeError that the store would not catch."""
    with pytest.raises(ValueError, match="not an npz archive"):
        Workload.from_bytes(_npy(np.arange(3)))


def test_run_cell_same_result_with_and_without_cache(tmp_path):
    key = CellKey("news", "sg2", 0.05)
    plain = runner.run_cell(key, scale=SCALE, seed=SEED)
    runner.clear_caches()
    cold = runner.run_cell(key, scale=SCALE, seed=SEED, artifact_dir=str(tmp_path))
    runner.clear_caches()
    warm = runner.run_cell(key, scale=SCALE, seed=SEED, artifact_dir=str(tmp_path))

    def stripped(result):
        payload = dataclasses.asdict(result)
        payload.pop("wall_seconds")
        payload.pop("profile")
        return payload

    assert stripped(plain) == stripped(cold) == stripped(warm)
    # Both artifact kinds landed on disk: a trace as an archive, a cell as JSON.
    kinds = sorted(os.listdir(tmp_path))
    assert kinds == ["cell", "trace"]
    for kind in kinds:
        suffix = ".npz" if kind == "trace" else ".json"
        assert all(name.endswith(suffix) for name in os.listdir(tmp_path / kind)), kind


def test_default_artifact_dir_used(tmp_path):
    runner.set_default_artifact_dir(str(tmp_path))
    runner.run_cell(CellKey("news", "gdstar", 0.05), scale=SCALE, seed=SEED)
    assert os.path.isdir(tmp_path / "trace")


@pytest.mark.parametrize(
    "command",
    [
        ["chaos", "--strategies", "gdstar"],
        ["trace-stats"],
        ["generate-trace", "--output", "{tmp}/trace.json"],
        ["calibrate-beta", "--prefix", "0.3"],
    ],
    ids=lambda command: command[0],
)
def test_every_command_offering_the_flag_uses_the_cache(tmp_path, capsys, monkeypatch, command):
    """``--artifact-cache DIR`` stores the trace on the first invocation
    and the second loads that entry instead of generating."""
    from repro.cli import main
    from repro.experiments import artifacts

    store = tmp_path / "store"
    argv = [part.format(tmp=tmp_path) for part in command]
    argv += ["--scale", str(SCALE), "--seed", str(SEED), "--artifact-cache", str(store)]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert len(os.listdir(store / "trace")) == 1

    def regenerated(*args, **kwargs):
        raise AssertionError("the stored trace entry was not used")

    runner.clear_caches()
    monkeypatch.setattr(artifacts, "make_trace", regenerated)
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_workload_bytes_round_trip_equality():
    """Workload.to_bytes/from_bytes is lossless."""
    workload = make_trace("news", scale=SCALE, seed=SEED)
    clone = Workload.from_bytes(workload.to_bytes())
    assert clone == workload
    assert clone.config == workload.config
    assert clone.pages == workload.pages
    assert clone.label == workload.label
    for table in ("publishes", "requests"):
        rows = getattr(clone, table).rows
        assert rows.dtype == getattr(workload, table).rows.dtype
        assert rows.tobytes() == getattr(workload, table).rows.tobytes()
    # And the round trip is a fixed point at the byte level.
    assert clone.to_bytes() == workload.to_bytes()
