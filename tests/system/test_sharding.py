"""Tests for the sharded multi-process simulation.

The invariant: a sharded run is bit-identical to ``workers=1`` in
every :class:`SimulationResult` field except ``wall_seconds`` and
``profile`` — for every strategy, both pushing schemes, streaming and
materialized traces.
"""

import dataclasses
import os
import subprocess
import sys
import threading
import time
from types import SimpleNamespace

import pytest

import repro

from repro.faults.spec import ChaosSpec, OverloadSpec
from repro.obs.recorder import Observer
from repro.system.config import PushingScheme, SimulationConfig
from repro.system.sharding import (
    RemoteTraceback,
    fork_map,
    merge_shard_results,
    plan_shards,
    run_sharded,
    shard_eligibility,
)
from repro.system.simulator import Simulation
from repro.workload.presets import make_trace
from repro.workload.streaming import make_streaming_trace


def _strip(result) -> dict:
    payload = dataclasses.asdict(result)
    payload.pop("wall_seconds")
    payload.pop("profile")
    return payload


@pytest.fixture(scope="module")
def trace():
    return make_trace("news", scale=0.04, seed=9)


@pytest.mark.parametrize("strategy", ["gdstar", "sub", "sg2"])
@pytest.mark.parametrize(
    "pushing", [PushingScheme.ALWAYS, PushingScheme.WHEN_NECESSARY]
)
def test_sharded_equals_single(trace, strategy, pushing):
    config = SimulationConfig(strategy=strategy, pushing=pushing, seed=9)
    single = _strip(Simulation(trace, config).run())
    for workers in (2, 4):
        sharded = run_sharded(
            trace, dataclasses.replace(config, workers=workers)
        )
        assert _strip(sharded) == single


def test_sharded_streaming_equals_single(trace):
    config = SimulationConfig(seed=9)
    single = _strip(Simulation(trace, config).run())
    streaming = make_streaming_trace("news", scale=0.04, seed=9)
    try:
        sharded = run_sharded(
            streaming, dataclasses.replace(config, workers=2)
        )
        assert _strip(sharded) == single
    finally:
        streaming.close()


def test_workers_one_is_the_plain_simulation(trace):
    config = SimulationConfig(seed=9)
    assert _strip(run_sharded(trace, config)) == _strip(
        Simulation(trace, config).run()
    )


# -- decline rules -----------------------------------------------------------


def test_eligibility_declines_cross_shard_state(trace):
    assert shard_eligibility(trace, SimulationConfig(seed=9)) is None
    assert "fault" in shard_eligibility(
        trace, SimulationConfig(seed=9, chaos=ChaosSpec())
    )
    assert "overload" in shard_eligibility(
        trace, SimulationConfig(seed=9, overload=OverloadSpec(service_rate=5.0))
    )
    assert "observer" in shard_eligibility(
        trace, SimulationConfig(seed=9), Observer()
    )


def test_chaos_config_falls_back_to_single_process(trace):
    config = SimulationConfig(
        seed=9, workers=2, chaos=ChaosSpec(proxy_mtbf=4 * 3600.0)
    )
    single = Simulation(trace, dataclasses.replace(config, workers=1)).run()
    sharded = run_sharded(trace, config)
    assert _strip(sharded) == _strip(single)


# -- planning and merging units ----------------------------------------------


def test_plan_shards_balances_and_is_deterministic():
    weights = [10, 1, 9, 2]
    workload = SimpleNamespace(
        config=SimpleNamespace(server_count=len(weights)),
        pair_counts=lambda: {(7, server): weight for server, weight in enumerate(weights)},
    )
    shards = plan_shards(workload, 2)
    # LPT: 0(10)->bin0, 2(9)->bin1, 3(2)->bin1, 1(1)->bin0 - loads 11/11.
    assert shards == [[0, 1], [2, 3]]
    assert plan_shards(workload, 2) == shards


def test_plan_shards_never_exceeds_servers(trace):
    shards = plan_shards(trace, workers=1000)
    assert len(shards) <= trace.config.server_count
    flat = sorted(server for shard in shards for server in shard)
    assert flat == list(range(trace.config.server_count))


def test_merge_rejects_mismatched_metadata(trace):
    config = SimulationConfig(seed=9)
    result = Simulation(trace, config).run()
    other = dataclasses.replace(result, strategy="sub")
    with pytest.raises(ValueError, match="disagree"):
        merge_shard_results(
            [result, other], [[0], [1]], trace.config.server_count, 0.0
        )


#: ``run --workers 2`` whose shard 1 worker dies before sending a result.
_DYING_SHARD = """
import os, sys
from repro.system import sharding
run_shard = sharding._run_shard
def dying(index):
    if index == 1:
        os._exit(9)
    return run_shard(index)
# Picklable under the name it replaces, for a pool that pickles it.
dying.__module__, dying.__qualname__ = sharding.__name__, "_run_shard"
sharding._run_shard = dying
from repro.cli import main
sys.exit(main(["run", "--scale", "0.03", "--workers", "2", "--no-artifact-cache"]))
"""


def test_a_dead_shard_worker_ends_the_run_with_one_line():
    """A worker that dies (here ``os._exit(9)``) ends the run within a
    bound, with one line naming the shard and exit code 2."""
    started = time.monotonic()
    finished = subprocess.run(
        [sys.executable, "-c", _DYING_SHARD],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__))),
    )
    assert time.monotonic() - started < 60
    assert finished.returncode == 2, finished.stderr
    assert finished.stderr == "run failed: shard 1 of 2 died (exit code 9)\n"
    assert finished.stdout == ""


# -- fork_map: this process and its workers ----------------------------------


def test_fork_map_yields_every_task_once():
    got = list(fork_map(lambda index: index * index, 7, 3, str))
    assert sorted(got) == [(index, index * index) for index in range(7)]
    assert got[0] == (0, 0)  # this process's own task comes back first


def _worker_raises(index, argument):
    if index == 1:  # the first worker's first task
        raise ValueError(argument)
    return index


def test_a_worker_exception_carries_the_worker_traceback():
    with pytest.raises(ValueError, match="bad task") as raised:
        list(fork_map(lambda index: _worker_raises(index, "bad task"), 3, 2, str))
    cause = raised.value.__cause__
    assert isinstance(cause, RemoteTraceback)
    assert "_worker_raises" in str(cause) and "ValueError: bad task" in str(cause)


def test_an_exception_that_cannot_be_sent_still_says_what_failed():
    with pytest.raises(RuntimeError, match="task 1: ValueError.*cannot be sent") as raised:
        list(fork_map(lambda index: _worker_raises(index, threading.Lock()), 3, 2, str))
    assert "_worker_raises" in str(raised.value.__cause__)
