"""Tuple-for-tuple guard on ``Workload.replay_stream``.

Every form of the stream the replay driver consumes — the memoised
columns of an in-memory, churn-free trace and the lazy merge of a
churned or spooled one — must equal what
:func:`tests.system._reference.record_stream` builds from record
attribute reads, in the one record shape, in values and in order.  The
result digests would catch a difference too, but only as a changed
hash; this names the first differing tuple.
"""

import pytest

from repro.sim.rng import RandomStreams
from repro.system.config import SimulationConfig
from repro.system.simulator import Simulation
from repro.workload.churn import ChurnSpec
from repro.workload.presets import make_trace
from repro.workload.streaming import make_streaming_trace
from tests.system._reference import record_stream

TRACES = {
    "news@0.05/seed13": ("news", 0.05, 13),
    "alternative@0.1/seed11": ("alternative", 0.1, 11),
}


@pytest.fixture(scope="module", params=sorted(TRACES))
def trace(request):
    name, scale, seed = TRACES[request.param]
    return make_trace(name, scale=scale, seed=seed), seed


def replayed(simulation):
    return list(simulation.workload.replay_stream(simulation.match_table))


@pytest.mark.parametrize("sq", [1.0, 0.5])
def test_enriched_list_equals_record_reference(trace, sq):
    """The memo: every record carries its size and match data."""
    workload, seed = trace
    simulation = Simulation(
        workload, SimulationConfig(seed=seed, subscription_quality=sq)
    )
    got = replayed(simulation)
    assert len(got) == workload.publish_count + workload.request_count
    assert got == record_stream(simulation, lazy=False)


@pytest.mark.parametrize("preset", sorted(TRACES))
def test_spooled_stream_equals_record_reference(preset):
    """``run --streaming``: the lazy merge over memory-mapped tables."""
    name, scale, seed = TRACES[preset]
    spooled = make_streaming_trace(name, scale=scale, seed=seed)
    try:
        simulation = Simulation(spooled, SimulationConfig(seed=seed))
        got = replayed(simulation)
        assert len(got) == spooled.publish_count + spooled.request_count
        assert got == list(record_stream(simulation, lazy=True))
    finally:
        spooled.spool.close()


@pytest.mark.parametrize("sq", [1.0, 0.5])
def test_churned_stream_equals_record_reference(trace, sq):
    workload, seed = trace
    churned = workload.with_churn(
        ChurnSpec(churn_rate=0.5), RandomStreams(seed).stream("workload.churn")
    )
    simulation = Simulation(
        churned, SimulationConfig(seed=seed, subscription_quality=sq)
    )
    got = replayed(simulation)
    assert len(got) == (
        workload.publish_count + workload.request_count + len(churned.lifecycle)
    )
    assert got == list(record_stream(simulation, lazy=True))
