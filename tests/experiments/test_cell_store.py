"""Cell results as the artifact store's fourth kind.

Each test is one way a stored cell could ship a wrong number — a key
that misses something the result depends on, a lossy round trip, an
observed run served from disk, a damaged entry half-read — or one way
the store could cost a run that did not ask for it.
"""

import dataclasses
import json
import logging
import os
import shutil

import pytest

import repro
from repro.experiments import artifacts, runner
from repro.experiments.artifacts import (
    FORMAT_VERSION,
    ArtifactCache,
    cell_params,
    code_fingerprint,
)
from repro.experiments.spec import CellKey, ExperimentGrid
from repro.faults.spec import OverloadSpec
from repro.obs.recorder import Observer
from repro.system.config import PushingScheme, SimulationConfig
from repro.system.cooperation import CooperativeSimulation
from repro.system.metrics import SimulationResult
from repro.system.simulator import Simulation
from repro.workload.churn import ChurnSpec
from repro.workload.trace import Workload
from tests.system.test_layer_matrix import (
    LAYERS,
    churned,  # noqa: F401 - fixture
    config_for,
    workload,  # noqa: F401 - fixture
)
from tests.system.test_replay_fastpath import stripped as comparable

SCALE = 0.03
SEED = 7
KEY = CellKey("news", "sg2", 0.05)
NINE = ("gdstar", "sub", "sg1", "sg2", "sr", "dm", "dc-fp", "dc-ap", "dc-lap")


@pytest.fixture(autouse=True)
def fresh_memo():
    runner.clear_caches()
    yield
    runner.clear_caches()
    runner.set_default_artifact_dir(None)


def shape(value):
    """The container and scalar types of a result, all the way down."""
    if dataclasses.is_dataclass(value):
        return type(value), {
            spec.name: shape(getattr(value, spec.name))
            for spec in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return dict, [(shape(key), shape(item)) for key, item in value.items()]
    if isinstance(value, (list, tuple)):
        return type(value), [shape(item) for item in value]
    return type(value)


def tree_bytes(root):
    found = {}
    for directory, _, names in os.walk(root):
        for name in names:
            path = os.path.join(directory, name)
            with open(path, "rb") as handle:
                found[os.path.relpath(path, root)] = handle.read()
    return found


def forbidden(*args, **kwargs):
    raise AssertionError("a warm cell reached replay or input generation")


# -- (i) lossless round trip ------------------------------------------------


def assert_round_trips(result):
    clone = SimulationResult.from_json(result.to_json())
    assert dataclasses.asdict(clone) == dataclasses.asdict(result)
    assert shape(clone) == shape(result)
    assert clone.to_json() == result.to_json()


def test_vanilla_result_round_trips():
    result = runner.run_cell(KEY, scale=SCALE, seed=SEED)
    assert len(dataclasses.fields(result)) == len(json.loads(result.to_json()))
    assert result.wall_seconds > 0 and result.per_proxy[0].bucketed_requests
    assert_round_trips(result)


def test_all_layers_result_round_trips(churned):
    result = CooperativeSimulation(churned, config_for(set(LAYERS))).run()
    # Every layer's block is non-trivial, so no field round-trips as a default.
    assert result.proxy_crashes and result.notifications_sent
    assert result.lifecycle_events and result.overload_pulls_rejected
    assert result.peer_fetch_pages and result.time_to_warm_seconds
    assert_round_trips(result)


def test_profile_round_trips():
    result = runner.run_cell(KEY, scale=SCALE, seed=SEED)
    result.profile = {"engine.step": {"calls": 3, "seconds": 0.25}}
    assert_round_trips(result)


# -- (ii) a warm grid replays nothing ----------------------------------------


def test_warm_grid_loads_every_cell(tmp_path, monkeypatch):
    grid = ExperimentGrid(traces=("news", "alternative"), strategies=NINE)
    store = str(tmp_path)
    cold = runner.run_grid(grid, scale=SCALE, seed=SEED, artifact_dir=store)
    assert runner.cell_store(store).misses == 18
    stored = tree_bytes(store)
    assert sum(name.startswith("cell" + os.sep) for name in stored) == 18

    runner.clear_caches()
    monkeypatch.setattr(Simulation, "run", forbidden)
    monkeypatch.setattr(artifacts, "make_trace", forbidden)
    monkeypatch.setattr(runner, "make_trace", forbidden)
    monkeypatch.setattr(Workload, "from_json", forbidden)
    warm = runner.run_grid(grid, scale=SCALE, seed=SEED, artifact_dir=store)

    assert list(warm.results) == list(cold.results)
    for key, result in cold.results.items():
        assert comparable(warm.results[key]) == comparable(result), key
        assert warm.results[key].wall_seconds == result.wall_seconds
    counts = runner.cell_store(store)
    assert (counts.hits, counts.misses) == (18, 0)
    assert tree_bytes(store) == stored


def test_loaded_and_replayed_cells_say_which(tmp_path, caplog):
    with caplog.at_level(logging.INFO, logger="repro.experiments.runner"):
        runner.run_cell(KEY, scale=SCALE, seed=SEED, artifact_dir=str(tmp_path))
        cold = [record.getMessage() for record in caplog.records]
        caplog.clear()
        result = runner.run_cell(KEY, scale=SCALE, seed=SEED, artifact_dir=str(tmp_path))
        warm = [record.getMessage() for record in caplog.records]
    assert cold == [f"cell news/sg2 cap=0.05 sq=1.00 (scale={SCALE} seed={SEED})"]
    assert warm == [
        f"cell {KEY} loaded from store "
        f"(replayed in {result.wall_seconds:.3f} s when stored)"
    ]


# -- (iii) the key is the call -----------------------------------------------


def params_for(
    key=KEY, scale=SCALE, seed=SEED, churn=None, streaming=False, **config
):
    config = {
        "strategy": key.strategy,
        "strategy_options": {"beta": 2.0},
        "capacity_fraction": key.capacity,
        "subscription_quality": key.sq,
        "pushing": PushingScheme(key.pushing),
        "seed": seed,
        **config,
    }
    return cell_params(key, scale, seed, SimulationConfig(**config), churn, streaming)


VARIATIONS = {
    "trace": dict(key=dataclasses.replace(KEY, trace="alternative")),
    "strategy": dict(key=dataclasses.replace(KEY, strategy="sg1")),
    "capacity": dict(key=dataclasses.replace(KEY, capacity=0.1)),
    "sq": dict(key=dataclasses.replace(KEY, sq=0.5)),
    "pushing": dict(key=dataclasses.replace(KEY, pushing="always")),
    "scale": dict(scale=0.04),
    "seed": dict(seed=8),
    "beta": dict(strategy_options={"beta": 1.0}),
    "notified_fraction": dict(notified_fraction=0.5),
    "strategy option": dict(strategy_options={"beta": 2.0, "push_fraction": 0.3}),
    "churn": dict(churn=ChurnSpec(churn_rate=2.0)),
    "churn field": dict(churn=ChurnSpec(churn_rate=2.0, lease_duration=60.0)),
    "overload": dict(overload=OverloadSpec(service_rate=0.01)),
    "workers": dict(workers=2),
    "streaming": dict(streaming=True),
    "invariant checks": dict(invariant_check_interval=100),
    "latency": dict(per_hop_latency=0.05),
}


def test_every_part_of_the_call_moves_the_key(tmp_path):
    cache = ArtifactCache(str(tmp_path))
    base = cache.path("cell", params_for())
    assert os.path.dirname(base) == str(tmp_path / "cell")
    paths = {name: cache.path("cell", params_for(**change))
             for name, change in VARIATIONS.items()}
    paths["FORMAT_VERSION"] = ArtifactCache(
        str(tmp_path), format_version=FORMAT_VERSION + 1
    ).path("cell", params_for())
    assert len({base, *paths.values()}) == len(paths) + 1, paths
    # ... and nothing else does: the same call, built again, is the same key.
    assert cache.path("cell", params_for()) == base
    assert cache.path("cell", params_for(churn=None, streaming=False, workers=1)) == base


def test_run_cell_arguments_reach_the_key(tmp_path):
    """The key is built from run_cell's own arguments, not a subset."""
    store = str(tmp_path)
    key = dataclasses.replace(KEY, strategy="dc-fp")
    calls = [
        {},
        dict(beta=1.0),
        dict(notified_fraction=0.5),
        dict(strategy_options={"push_fraction": 0.3}),
        dict(churn=ChurnSpec(churn_rate=2.0)),
        dict(overload=OverloadSpec(service_rate=0.01)),
    ]
    for count, call in enumerate(calls, start=1):
        runner.run_cell(key, scale=SCALE, seed=SEED, artifact_dir=store, **call)
        assert len(os.listdir(tmp_path / "cell")) == count, call
    assert runner.cell_store(store).hits == 0


def test_one_source_byte_moves_the_fingerprint(tmp_path, monkeypatch):
    package = os.path.dirname(repro.__file__)
    copy = str(tmp_path / "repro")
    shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
    assert code_fingerprint(copy) == code_fingerprint()
    with open(os.path.join(copy, "core", "sub.py"), "a", encoding="utf-8") as handle:
        handle.write("#")
    code_fingerprint.cache_clear()
    edited = code_fingerprint(copy)
    assert edited != code_fingerprint()
    # A new or renamed module counts too; a stray non-source file does not.
    os.rename(os.path.join(copy, "core", "sub.py"), os.path.join(copy, "core", "sub2.py"))
    open(os.path.join(copy, "notes.txt"), "w").close()
    code_fingerprint.cache_clear()
    assert code_fingerprint(copy) not in (edited, code_fingerprint())
    # The fingerprint is part of the key.
    cache = ArtifactCache(str(tmp_path))
    base = cache.path("cell", params_for())
    monkeypatch.setattr(artifacts, "code_fingerprint", lambda: edited)
    assert cache.path("cell", params_for()) != base


def test_unkeyable_call_is_replayed_and_not_stored(tmp_path):
    """A beta the strategy computes with but JSON cannot write."""
    from fractions import Fraction

    want = runner.run_cell(KEY, scale=SCALE, seed=SEED, beta=2.0)
    for _ in range(2):
        got = runner.run_cell(
            KEY, scale=SCALE, seed=SEED, beta=Fraction(2), artifact_dir=str(tmp_path)
        )
        assert comparable(got) == comparable(want)
    assert not os.path.exists(tmp_path / "cell")
    counts = runner.cell_store(str(tmp_path))
    assert (counts.hits, counts.misses) == (0, 0)


# -- (iv) observed runs always replay -----------------------------------------


def test_observer_bypasses_the_cell_store(tmp_path, monkeypatch):
    store = str(tmp_path)
    runs = []
    run = Simulation.run
    monkeypatch.setattr(Simulation, "run", lambda self: runs.append(1) or run(self))

    observed = runner.run_cell(
        KEY, scale=SCALE, seed=SEED, artifact_dir=store, observer=Observer()
    )
    assert runs == [1] and not os.path.exists(tmp_path / "cell")  # no store

    plain = runner.run_cell(KEY, scale=SCALE, seed=SEED, artifact_dir=store)
    stored = tree_bytes(store)
    assert runs == [1, 1] and len(os.listdir(tmp_path / "cell")) == 1

    again = runner.run_cell(
        KEY, scale=SCALE, seed=SEED, artifact_dir=store, observer=Observer()
    )
    assert runs == [1, 1, 1]  # no load: the entry exists and was not used
    assert tree_bytes(store) == stored
    assert comparable(observed) == comparable(plain) == comparable(again)
    assert runner.cell_store(store).hits == 0


# -- (v) a damaged entry is replayed over -------------------------------------


def damaged_cells(text):
    yield "not UTF-8", b"\xff\xfe\x00garbage"
    encoded = text.encode("utf-8")
    for step in range(8):
        yield f"cut at {step}/8", encoded[: len(encoded) * step // 8]

    def edited(label, edit):
        payload = json.loads(text)
        edit(payload)
        return label, json.dumps(payload).encode("utf-8")

    yield edited("missing field", lambda p: p.pop("hits"))
    yield edited("extra field", lambda p: p.update(hit_count=1))
    yield edited("string for an int", lambda p: p.update(hits=str(p["hits"])))
    yield edited("float for an int", lambda p: p.update(hits=float(p["hits"])))
    yield edited("bool for an int", lambda p: p.update(stale_hits=False))
    yield edited("int for a string", lambda p: p.update(strategy=3))
    yield edited("scalar for a list", lambda p: p.update(hourly_hits=7))
    yield edited("null for a list", lambda p: p.update(hourly_hits=None))
    yield edited("string in a list", lambda p: p["hourly_hits"].__setitem__(0, "0"))
    yield edited("object for a dict's items",
                 lambda p: p["per_proxy"][0].update(bucketed_hits={"0": 1}))
    yield edited("proxy missing a field", lambda p: p["per_proxy"][0].pop("hits"))
    yield edited("proxy is a list", lambda p: p["per_proxy"].__setitem__(0, [1, 2]))
    yield edited("not an object", lambda p: p.clear())
    yield "a list", b"[1, 2, 3]"


def test_damaged_cell_entries_are_replayed_and_repaired(tmp_path, caplog):
    store = str(tmp_path)
    want = runner.run_cell(KEY, scale=SCALE, seed=SEED, artifact_dir=store)
    (name,) = os.listdir(tmp_path / "cell")
    path = str(tmp_path / "cell" / name)
    with open(path, "r", encoding="utf-8") as handle:
        stored = handle.read()
    counts = runner.cell_store(store)
    for label, damaged in damaged_cells(stored):
        with open(path, "wb") as handle:
            handle.write(damaged)
        misses = counts.misses
        caplog.clear()
        got = runner.run_cell(KEY, scale=SCALE, seed=SEED, artifact_dir=store)
        assert comparable(got) == comparable(want), label
        assert counts.misses == misses + 1, label
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1 and path in warnings[0].getMessage(), label
        assert "corrupt cell artifact" in warnings[0].getMessage(), label
        with open(path, "r", encoding="utf-8") as handle:
            repaired = SimulationResult.from_json(handle.read())
        assert comparable(repaired) == comparable(want), label
    hits = counts.hits
    runner.run_cell(KEY, scale=SCALE, seed=SEED, artifact_dir=store)
    assert counts.hits == hits + 1


# -- (vi) no store, no cell code ---------------------------------------------


def test_without_an_artifact_dir_no_cell_code_runs(monkeypatch):
    code_fingerprint.cache_clear()
    monkeypatch.setattr(runner, "cell_params", forbidden)
    monkeypatch.setattr(runner, "cached_cell", forbidden)
    monkeypatch.setattr(SimulationResult, "to_json", forbidden)
    runner.run_cell(KEY, scale=SCALE, seed=SEED, artifact_dir=None)
    runner.run_grid(ExperimentGrid(strategies=("gdstar", "sub")), scale=SCALE, seed=SEED)
    assert code_fingerprint.cache_info().misses == 0
    assert runner.cell_store.cache_info().currsize == 0


# -- an unusable store never costs the result ---------------------------------


def test_failed_write_warns_and_returns_the_artifact(tmp_path, caplog):
    """The store root is a regular file: every write fails, every artifact
    and the finished replay are returned all the same."""
    root = tmp_path / "afile"
    root.write_text("not a directory")
    want = runner.run_cell(KEY, scale=SCALE, seed=SEED)
    runner.clear_caches()
    got = runner.run_cell(KEY, scale=SCALE, seed=SEED, artifact_dir=str(root))
    assert comparable(got) == comparable(want)
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 4  # trace, match table, topology, cell
    assert all(w.startswith("cannot store ") and str(root) in w for w in warnings)
    assert root.read_text() == "not a directory"


def test_disk_full_keeps_the_replay(tmp_path, monkeypatch, caplog):
    def full(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(artifacts.tempfile, "mkstemp", full)
    cache = ArtifactCache(str(tmp_path))
    made = cache.get_or_create("cell", {"n": 1}, lambda: [1, 2], json.dumps, json.loads)
    assert made == [1, 2] and cache.misses == 1
    assert "cannot store cell artifact" in caplog.text
    assert "No space left on device" in caplog.text


@pytest.mark.parametrize("beneath", [False, True], ids=["a file", "beneath a file"])
def test_cli_rejects_an_unusable_store_in_one_line(tmp_path, capsys, beneath):
    from repro.cli import main

    root = tmp_path / "afile"
    root.write_text("not a directory")
    target = str(root / "store") if beneath else str(root)
    code = main(["run", "--scale", str(SCALE), "--artifact-cache", target])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"cannot use --artifact-cache {target}: ")
