"""Tests for the sharded multi-process simulation.

The invariant: a sharded run is bit-identical to ``workers=1`` in
every :class:`SimulationResult` field except ``wall_seconds`` and
``profile`` — for every strategy, both pushing schemes, streaming and
materialized traces.
"""

import dataclasses

import pytest

from repro.faults.spec import ChaosSpec, OverloadSpec
from repro.obs.recorder import Observer
from repro.system.config import PushingScheme, SimulationConfig
from repro.system.sharding import (
    _pack_units,
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


def test_pack_units_balances_and_is_deterministic():
    units = [[0], [1], [2], [3]]
    weights = [10, 1, 9, 2]
    shards = _pack_units(units, weights, 2)
    # LPT: 0(10)->bin0, 2(9)->bin1, 3(2)->bin1, 1(1)->bin0 - loads 11/11.
    assert shards == [[0, 1], [2, 3]]
    assert _pack_units(units, weights, 2) == shards


def test_plan_shards_never_exceeds_servers(trace):
    shards = plan_shards(trace, SimulationConfig(seed=9), workers=1000)
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
