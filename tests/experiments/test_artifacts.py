"""Tests for the on-disk artifact cache and its runner/CLI wiring."""

import dataclasses
import json
import os

import pytest

from repro.experiments import artifacts, runner
from repro.experiments.artifacts import (
    FORMAT_VERSION,
    ArtifactCache,
    cached_match_table,
    cached_topology,
    cached_trace,
)
from repro.experiments.spec import CellKey
from repro.network.topology import Topology, build_topology
from repro.pubsub.matching import TraceMatchCounts
from repro.sim.rng import RandomStreams
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


def test_match_table_and_topology_round_trip(tmp_path):
    cache = ArtifactCache(str(tmp_path))
    workload = make_trace("news", scale=SCALE, seed=SEED)
    table = cached_match_table(cache, workload, "news", SCALE, SEED, 1.0, 1.0)
    again = cached_match_table(cache, workload, "news", SCALE, SEED, 1.0, 1.0)
    assert table._table == again._table
    topology = cached_topology(cache, workload.config.server_count, SEED)
    reloaded = cached_topology(cache, workload.config.server_count, SEED)
    assert topology.fetch_costs() == reloaded.fetch_costs()
    assert cache.hits == 2


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
    assert bumped.load_text("trace", params) is None
    cached_trace(bumped, "news", SCALE, SEED)
    assert bumped.misses == 1 and bumped.hits == 0
    # Both versions' entries now coexist; neither shadows the other.
    assert bumped.load_text("trace", params) is not None
    monkeypatch.undo()
    assert cache.load_text("trace", params) is not None


def test_corrupt_entry_regenerated(tmp_path):
    cache = ArtifactCache(str(tmp_path))
    cached_trace(cache, "news", SCALE, SEED)
    path = cache.path("trace", {"trace": "news", "scale": SCALE, "seed": SEED})
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("{not json")
    workload = cached_trace(cache, "news", SCALE, SEED)
    assert workload.request_count > 0
    assert cache.misses == 2
    # The regenerated entry replaced the corrupt one.
    with open(path, "r", encoding="utf-8") as handle:
        json.loads(handle.read())


def _damaged_entries(text: str):
    """The stored trace damaged every way a file on disk can be."""
    yield "not UTF-8", b"\xff\xfe\x00garbage"
    encoded = text.encode("utf-8")
    for step in range(16):
        yield f"cut at {step}/16", encoded[: len(encoded) * step // 16]
    # Still valid JSON, but one column a row short of the other two.
    payload = json.loads(text)
    payload["requests"]["server_id"].pop()
    yield "ragged", json.dumps(payload).encode("utf-8")
    payload["requests"]["server_id"] = payload["requests"]["server_id"][:1]
    yield "one-row column", json.dumps(payload).encode("utf-8")


def test_damaged_trace_entries_regenerate(tmp_path, caplog):
    """Undecodable, truncated and ragged entries each end in a
    regeneration of the same trace — never an exception, never a
    shorter trace."""
    cache = ArtifactCache(str(tmp_path))
    want = trace_digest(cached_trace(cache, "news", SCALE, SEED))
    path = cache.path("trace", {"trace": "news", "scale": SCALE, "seed": SEED})
    with open(path, "r", encoding="utf-8") as handle:
        stored = handle.read()
    for label, damaged in _damaged_entries(stored):
        with open(path, "wb") as handle:
            handle.write(damaged)
        misses = cache.misses
        caplog.clear()
        assert trace_digest(cached_trace(cache, "news", SCALE, SEED)) == want, label
        assert cache.misses == misses + 1, label
        assert "corrupt trace artifact" in caplog.text, label
        with open(path, "r", encoding="utf-8") as handle:
            assert handle.read() == stored, label


def test_pre_columnar_trace_file_is_named(tmp_path):
    """A version-1 file (one dict per event) fails with one line that
    says what it is, not ``TypeError: list indices ...``."""
    workload = make_trace("news", scale=SCALE, seed=SEED)
    payload = json.loads(workload.to_json())
    payload["requests"] = [dataclasses.asdict(r) for r in workload.requests[:5]]
    with pytest.raises(ValueError, match="pre-columnar layout"):
        Workload.from_json(json.dumps(payload))


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
    # All four artifact kinds landed on disk.
    kinds = sorted(os.listdir(tmp_path))
    assert kinds == ["cell", "match-table", "topology", "trace"]


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


def test_workload_json_round_trip_equality():
    """Workload.to_json/from_json is lossless."""
    workload = make_trace("news", scale=SCALE, seed=SEED)
    clone = Workload.from_json(workload.to_json())
    assert clone.config == workload.config
    assert clone.pages == workload.pages
    assert clone.publishes == workload.publishes
    assert clone.requests == workload.requests
    assert clone.label == workload.label
    # And the round trip is a fixed point at the text level.
    assert clone.to_json() == workload.to_json()


def test_match_table_json_round_trip():
    table = TraceMatchCounts({1: {0: 3, 2: 1}, 7: {4: 2}})
    clone = TraceMatchCounts.from_json(table.to_json())
    assert clone._table == table._table


def test_topology_json_round_trip():
    topology = build_topology(12, RandomStreams(5).stream("topology"), extra_nodes=6)
    clone = Topology.from_json(topology.to_json())
    assert clone.publisher_node == topology.publisher_node
    assert clone.proxy_nodes == topology.proxy_nodes
    assert clone.fetch_costs() == topology.fetch_costs()
    assert list(clone.graph.edges()) == list(topology.graph.edges())
