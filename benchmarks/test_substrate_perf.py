"""Microbenchmarks of the substrates (true pytest-benchmark timings).

These are not paper experiments; they track the performance of the
pieces the simulator's wall-clock depends on: heap churn, workload
generation and end-to-end simulation rate.
"""

from repro.cache.heap import AddressableHeap
from repro.sim.rng import RandomStreams
from repro.system.config import SimulationConfig
from repro.system.simulator import run_simulation
from repro.workload import generate_workload, news_config


def test_heap_churn(benchmark):
    """Push/update/pop cycle over a 1000-key heap."""

    def churn():
        heap = AddressableHeap()
        for i in range(1000):
            heap.push(i, float(i % 97))
        for i in range(1000):
            heap.push(i, float((i * 31) % 89))
        while len(heap):
            heap.pop()

    benchmark(churn)


def test_workload_generation_rate(benchmark):
    """Generate a 5 %-scale trace from scratch."""

    def generate():
        return generate_workload(news_config(scale=0.05), RandomStreams(11))

    workload = benchmark(generate)
    assert workload.request_count > 0


def test_simulation_event_rate(benchmark, bench_seed):
    """Replay a 5 %-scale trace through SG2 (publishes + requests)."""
    workload = generate_workload(
        news_config(scale=0.05), RandomStreams(bench_seed), label="news"
    )
    config = SimulationConfig(strategy="sg2", capacity_fraction=0.05)

    def simulate():
        return run_simulation(workload, config)

    result = benchmark(simulate)
    events = workload.request_count + workload.publish_count
    benchmark.extra_info["events"] = events
    assert result.requests == workload.request_count
