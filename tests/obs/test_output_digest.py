"""Pinned bytes of everything an observed run writes.

Three observed runs — a plain cell, all five layers armed, and the
silent-staleness baseline — each reduced to the SHA-256 of its JSONL
trace, its per-window series JSONL and its Prometheus text.  Between
them the traces contain every member of ``EVENT_TYPES`` (asserted
below, so a new type cannot escape the pin), which makes this the guard
for any change to how the :class:`~repro.obs.recorder.Observer` turns a
hook call into a counter, a series sample and a trace line: key order,
metric names, help strings and which sink sees what are all in the
bytes.

The values were recorded at commit 66e0c28 (the parent of PR 19), from
unmodified source, before the observer's hooks were generated from a
table.

After an *intentional* change to the output formats, regenerate with::

    PYTHONPATH=src python -m tests.obs.test_output_digest
"""

import functools
import hashlib
import os
import tempfile
import re

import pytest

from repro.faults.spec import ChaosSpec, OverloadSpec
from repro.obs import EVENT_TYPES, EventTracer, MetricsRegistry, Observer, TimeSeriesCollector
from repro.sim.rng import RandomStreams
from repro.system.config import SimulationConfig
from repro.system.simulator import Simulation
from repro.workload.churn import ChurnSpec
from repro.workload.presets import make_trace

SCALE = 0.05
SEED = 13

DELIVERY = dict(
    delivery_loss_probability=0.2,
    delivery_duplicate_probability=0.1,
    delivery_reorder_delay=30.0,
    delivery_retry_limit=2,
)
CHAOS = ChaosSpec(
    proxy_mtbf=4 * 3600.0,
    proxy_mttr=1800.0,
    publisher_mtbf=6 * 3600.0,
    publisher_mttr=900.0,
    **DELIVERY,
)
CHURN = ChurnSpec(
    churn_rate=1.0,
    lease_duration=3 * 3600.0,
    renew_probability=0.6,
    confirmation_loss_probability=0.2,
)
#: A retry budget large enough that some retries are granted (``retry``)
#: before the rest are refused (``retry_denied``).
OVERLOAD = OverloadSpec(
    service_rate=0.005,
    queue_capacity=3,
    origin_capacity=0.002,
    origin_burst=2,
    breaker_threshold=4,
    breaker_cooldown=600.0,
    retry_budget=2000,
)

#: name -> (strategy, churned trace?, extra SimulationConfig fields, Simulation kwargs)
RUNS = {
    "plain": ("sg2", False, {}, {}),
    "layered": ("dc-lap", True, dict(chaos=CHAOS, overload=OVERLOAD), dict(neighbor_count=3)),
    "no-repair": ("sub", False, dict(chaos=ChaosSpec(delivery_repair=False, **DELIVERY)), {}),
}

#: Recorded at commit 66e0c28 (the parent of PR 19), before any source edit.
DIGESTS = {
    "layered": {
        "trace": "ca3d7fa829a46d3b6eb0ee100ee5ef61230f1abb77cddec03e435d1dfc9fc47e",
        "series": "bb1b8d598bed3dd611fbee5293beb69af8377c7fc5960f1bd9192ba376597842",
        "metrics": "63810b7ca10ca84538f1ad83c45d9db579b42cd26ef9c7505870a07033ec854e",
    },
    "no-repair": {
        "trace": "7c4c19d7bba1c56789b111e7883ca4b6ab32c3611b5269d4ad946ba7eaa19ef0",
        "series": "6405adae3f1102456dd8f86222d1c595028fe9332627ba31bc8875978a8527c0",
        "metrics": "db07e707d851afae8cd0d3199e4d3daa2be7cfcb1b686b5e9b980d479a6b01b3",
    },
    "plain": {
        "trace": "d9560b342a550eafd34581003d333921725e9300e38d38a515ceed15e717eda4",
        "series": "5a41c39713cdb2a62e61efe8e885d258c661c05362fc3d6134fdc02752eb73a6",
        "metrics": "0fa8fb68780487a55aaaf9580389e4958414d3d0121ee567160c5b251dfa079d",
    },
}


@functools.lru_cache(maxsize=None)
def _workload(churned: bool):
    if churned:
        return _workload(False).with_churn(CHURN, RandomStreams(SEED).stream("workload.churn"))
    return make_trace("news", scale=SCALE, seed=SEED)


@functools.lru_cache(maxsize=None)
def outputs(name):
    """``{"trace": ..., "series": ..., "metrics": ...}`` texts of one run."""
    strategy, churned, layers, extras = RUNS[name]
    registry = MetricsRegistry()
    with tempfile.TemporaryDirectory() as directory:
        trace = os.path.join(directory, "trace.jsonl")
        series = os.path.join(directory, "series.jsonl")
        observer = Observer(
            registry=registry,
            tracer=EventTracer(trace),
            timeseries=TimeSeriesCollector(3600.0, series),
        )
        config = SimulationConfig(
            strategy=strategy, capacity_fraction=0.05, seed=SEED, **layers
        )
        Simulation(_workload(churned), config, observer=observer, **extras).run()
        observer.close()
        return {
            "trace": _read(trace),
            "series": _read(series),
            "metrics": registry.render_prometheus(),
        }


def _read(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def digests(name):
    return {
        kind: hashlib.sha256(text.encode("utf-8")).hexdigest()
        for kind, text in outputs(name).items()
    }


@pytest.mark.parametrize("name", sorted(RUNS))
def test_observed_output_is_pinned(name):
    assert digests(name) == DIGESTS[name], (
        f"{name}: an observed run writes different bytes; if intentional, "
        f"regenerate with `python -m tests.obs.test_output_digest`"
    )


def test_the_pinned_traces_cover_the_taxonomy():
    seen = set()
    for name in RUNS:
        seen.update(re.findall(r'^\{"t":[^,]+,"type":"(\w+)"', outputs(name)["trace"], re.M))
    assert seen == set(EVENT_TYPES)


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    print("DIGESTS = {")
    for run in sorted(RUNS):
        print(f'    "{run}": {{')
        for kind, value in digests(run).items():
            print(f'        "{kind}": "{value}",')
        print("    },")
    print("}")
