"""The profiler: one call under cProfile, folded per ``repro`` package."""

import os
import sys

import pytest

from repro.obs import profile_call
from repro.obs.profile import package_of, render
from repro.system.config import SimulationConfig
from repro.system.simulator import Simulation
from repro.workload.presets import make_trace

#: A package of ours that does not exist: code compiled under this path
#: is profiled as ``demo``.
DEMO = os.path.join(os.sep, "src", "repro", "demo")


def _module(name, source):
    namespace = {}
    exec(compile(source, os.path.join(DEMO, name), "exec"), namespace)
    return namespace


def test_package_of():
    assert package_of(os.path.join(DEMO, "a.py")) == "demo"
    assert package_of(os.path.join(os.sep, "src", "repro", "cli.py")) == "cli"
    assert package_of(os.path.join(os.sep, "usr", "lib", "heapq.py")) is None
    assert package_of("~") is None


def test_record_accumulates():
    """Every function of a package adds its calls to the package's row."""
    first = _module("a.py", "def f():\n    return 1\n")["f"]
    second = _module("b.py", "def g():\n    return 2\n")["g"]

    def calls():
        return [first(), first(), second(), second(), second()]

    _, profile, _ = profile_call(calls)
    assert profile["demo"]["calls"] == 5


def test_library_time_goes_to_the_calling_package():
    """A builtin has no package of ours: its self time is the caller's,
    and its calls are not counted as the caller's calls."""
    busy = _module("c.py", "def busy():\n    return sorted(range(200_000), key=abs)\n")["busy"]
    _, profile, _ = profile_call(busy)
    assert profile["demo"]["calls"] == 1
    assert profile["demo"]["seconds"] > 0
    assert set(profile) <= {"demo", "other"}


def test_summary_shape():
    result, profile, processes = profile_call(_module("d.py", "def f(x):\n    return x\n")["f"], 3)
    assert result == 3
    assert processes == 1
    assert list(profile) == sorted(profile)
    assert all(set(entry) == {"calls", "seconds"} for entry in profile.values())


def test_profile_call_returns_the_result():
    def add(a, b):
        return a + b

    assert profile_call(add, 2, b=3)[0] == 5


def test_profile_call_stops_profiling_on_exception():
    def boom():
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError, match="boom"):
        profile_call(boom)
    assert sys.getprofile() is None


def test_a_run_is_folded_per_package():
    workload = make_trace("news", scale=0.01, seed=3)
    simulation = Simulation(workload, SimulationConfig(strategy="sg2", seed=3))
    result, profile, _ = profile_call(simulation.run)
    assert result.requests == workload.request_count
    assert {"cache", "core", "sim", "system"} <= set(profile)
    assert profile["core"]["calls"] >= workload.request_count  # one policy call each


def test_render_sorts_slowest_first():
    lines = render(
        {"fast": {"calls": 1, "seconds": 0.001}, "slow": {"calls": 2, "seconds": 1.0}}
    ).splitlines()
    assert lines[0].split() == ["package", "calls", "seconds", "share"]
    assert lines[1].split()[:2] == ["slow", "2"]
    assert lines[2].split()[:2] == ["fast", "1"]
    assert lines[3] == "(1 process)"
    assert render({"a": {"calls": 1, "seconds": 1.0}}, 2).splitlines()[-1] == "(2 processes)"


def test_render_empty():
    assert render({}) == "(no profile samples)"


def test_a_sharded_cell_is_profiled_in_every_process(monkeypatch):
    """Forced to two shards, the profile sums the parent's fold and the
    forked worker's: its policy calls are the one-process profile's."""
    from repro.experiments import runner
    from repro.experiments.spec import CellKey

    cell = CellKey("news", "sg2", 0.05)
    monkeypatch.setattr(runner, "MIN_SHARD_REQUESTS", 1)
    profiles = {}
    try:
        for cpus in (1, 2):
            monkeypatch.setattr(runner, "usable_cpus", lambda cpus=cpus: cpus)
            runner.clear_caches()
            _, profile, processes = profile_call(
                runner.run_cell, cell, scale=0.03, seed=7, artifact_dir=None
            )
            profiles[processes] = profile
    finally:
        runner.clear_caches()
    assert sorted(profiles) == [1, 2]
    one, two = profiles[1]["core"]["calls"], profiles[2]["core"]["calls"]
    assert abs(two - one) <= 0.01 * one, (one, two)
