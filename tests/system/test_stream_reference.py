"""Tuple-for-tuple guard on ``Simulation._stream``.

The stream the replay driver consumes — the memoised columns of a
churn-free trace, enriched and bare, and the bare lazy merge of a
churned one — must equal
what :func:`tests.system._reference.record_stream` builds from record
attribute reads (the builder of the commit before the columnar trace),
in values and in order.  The result digests would catch a difference
too, but only as a changed hash; this names the first differing tuple.
"""

import pytest

from repro.sim.rng import RandomStreams
from repro.system.config import SimulationConfig
from repro.system.simulator import Simulation
from repro.workload.churn import ChurnSpec
from repro.workload.presets import make_trace
from tests.system._reference import record_stream

TRACES = {
    "news@0.05/seed13": ("news", 0.05, 13),
    "alternative@0.1/seed11": ("alternative", 0.1, 11),
}


@pytest.fixture(scope="module", params=sorted(TRACES))
def trace(request):
    name, scale, seed = TRACES[request.param]
    return make_trace(name, scale=scale, seed=seed), seed


@pytest.mark.parametrize("sq", [1.0, 0.5])
def test_enriched_list_equals_record_reference(trace, sq):
    workload, seed = trace
    simulation = Simulation(
        workload, SimulationConfig(seed=seed, subscription_quality=sq)
    )
    got = list(simulation._stream(enriched=True))
    want = record_stream(simulation, enriched=True, lazy=False)
    assert len(got) == workload.publish_count + workload.request_count
    assert got == want


def test_bare_in_memory_stream_equals_record_reference(trace):
    """What an observed (or otherwise staged) run of a churn-free trace
    replays: the first four memoised columns, no match column."""
    workload, seed = trace
    simulation = Simulation(workload, SimulationConfig(seed=seed))
    got = list(simulation._stream(enriched=False))
    want = record_stream(simulation, enriched=False, lazy=False)
    assert len(got) == workload.publish_count + workload.request_count
    assert got == want


@pytest.mark.parametrize("sq", [1.0, 0.5])
def test_bare_lazy_stream_equals_record_reference(trace, sq):
    workload, seed = trace
    churned = workload.with_churn(
        ChurnSpec(churn_rate=0.5), RandomStreams(seed).stream("workload.churn")
    )
    simulation = Simulation(
        churned, SimulationConfig(seed=seed, subscription_quality=sq)
    )
    got = list(simulation._stream(enriched=False))
    want = list(record_stream(simulation, enriched=False, lazy=True))
    assert len(got) == (
        workload.publish_count + workload.request_count + len(churned.lifecycle)
    )
    assert got == want
