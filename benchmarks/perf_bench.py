"""Replay/artifact-cache performance benchmark: ``python benchmarks/perf_bench.py``.

Two measurements, one JSON (``BENCH_perf.json``):

* **replay** — one simulation cell (strategy ``sg2``, news trace, 5 %
  capacity) through the replay driver (``Simulation.run``; the cell
  arms no layer, so this times the driver's inline arm), reported as
  events/sec over the static trace (publish + request records) under
  ``replay.fast`` — the key the recorded history already tracks.

* **grid_cache** — a small multi-strategy grid run twice against one
  on-disk artifact cache directory: *cold* (empty cache, generation +
  store) then *warm* (trace/table/topology loaded from disk).  The
  in-process memo is cleared before each timed run, so the delta is the
  disk cache's, not ``lru_cache``'s.

Timings are the **minimum** over ``--repeats`` runs; workload
generation happens once, outside the replay-timed region.  See
benchmarks/README.md for the output format.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from time import perf_counter
from typing import Dict, List, Optional

from repro.experiments import runner
from repro.experiments.spec import ExperimentGrid
from repro.network.topology import build_topology
from repro.pubsub.matching import TraceMatchCounts
from repro.sim.rng import RandomStreams
from repro.system.config import SimulationConfig
from repro.system.simulator import Simulation
from repro.workload.presets import make_trace
from repro.workload.subscriptions import build_match_counts

#: The benchmarked cell: the paper's strongest hybrid on the news trace.
STRATEGY = "sg2"
CAPACITY = 0.05

#: Strategies of the warm/cold grid leg.
GRID_STRATEGIES = ("gdstar", "sub", "sg2")


def _time_replay(workload, match_table, topology, seed: int,
                 repeats: int) -> Dict[str, object]:
    """Min-of-``repeats`` wall time of ``Simulation.run`` on the cell."""
    seconds: List[float] = []
    config = SimulationConfig(strategy=STRATEGY, capacity_fraction=CAPACITY, seed=seed)
    for _ in range(repeats):
        simulation = Simulation(workload, config, match_table, topology)
        start = perf_counter()
        simulation.run()
        seconds.append(perf_counter() - start)
    best = min(seconds)
    events = workload.publish_count + workload.request_count
    return {
        "seconds_per_run": best,
        "events_per_sec": events / best if best > 0 else None,
        "all_seconds": seconds,
    }


def _time_grid(scale: float, seed: int, artifact_dir: str) -> float:
    """One single-worker grid run against ``artifact_dir``, in seconds."""
    runner.clear_caches()
    grid = ExperimentGrid(
        traces=("news",), strategies=GRID_STRATEGIES, capacities=(CAPACITY,)
    )
    start = perf_counter()
    runner.run_grid(grid, scale=scale, seed=seed, artifact_dir=artifact_dir)
    return perf_counter() - start


def run_benchmark(
    scale: float,
    grid_scale: float,
    seed: int,
    repeats: int,
    cache_dir: Optional[str] = None,
) -> Dict[str, object]:
    """Time both legs and assemble the BENCH_perf.json payload."""
    workload = make_trace("news", scale=scale, seed=seed)
    match_table = TraceMatchCounts(
        build_match_counts(
            workload.request_pairs(),
            1.0,
            RandomStreams(seed).stream("subscriptions"),
        )
    )
    topology = build_topology(
        workload.config.server_count,
        RandomStreams(seed).stream("topology"),
        model="waxman",
        extra_nodes=20,
    )

    replay = _time_replay(workload, match_table, topology, seed, repeats)

    owns_cache_dir = cache_dir is None
    if owns_cache_dir:
        cache_dir = tempfile.mkdtemp(prefix="repro-perf-cache-")
    try:
        cold_seconds = _time_grid(grid_scale, seed, cache_dir)
        warm_seconds = _time_grid(grid_scale, seed, cache_dir)
    finally:
        runner.clear_caches()
        if owns_cache_dir:
            shutil.rmtree(cache_dir, ignore_errors=True)

    payload: Dict[str, object] = {
        "benchmark": "replay_perf",
        "strategy": STRATEGY,
        "trace": "news",
        "capacity": CAPACITY,
        "scale": scale,
        "seed": seed,
        "repeats": repeats,
        "publishes": workload.publish_count,
        "requests": workload.request_count,
        "events": workload.publish_count + workload.request_count,
        "replay": {"fast": replay},
        "grid_cache": {
            "strategies": list(GRID_STRATEGIES),
            "cells": len(GRID_STRATEGIES),
            "scale": grid_scale,
            "cold_seconds": cold_seconds,
            "warm_seconds": warm_seconds,
            "warm_speedup": (
                cold_seconds / warm_seconds if warm_seconds > 0 else None
            ),
        },
    }
    return payload


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_perf.json", help="output JSON path")
    parser.add_argument(
        "--scale", type=float, default=0.05, help="replay-leg workload scale"
    )
    parser.add_argument(
        "--grid-scale", type=float, default=0.03, help="grid-leg workload scale"
    )
    parser.add_argument("--seed", type=int, default=7, help="root random seed")
    parser.add_argument("--repeats", type=int, default=3, help="replay runs")
    parser.add_argument(
        "--cache-dir", default=None,
        help="artifact-cache directory for the grid leg "
             "(default: a fresh temporary directory, removed afterwards)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny run for CI (overrides --scale/--grid-scale/--repeats)",
    )
    args = parser.parse_args(argv)
    scale, grid_scale, repeats = args.scale, args.grid_scale, args.repeats
    if args.smoke:
        scale, grid_scale, repeats = 0.02, 0.02, 1

    payload = run_benchmark(
        scale, grid_scale, seed=args.seed, repeats=repeats, cache_dir=args.cache_dir
    )
    if args.smoke:
        # Smoke runs land in the benchmark history under their own name
        # so the regression gate never compares a tiny CI-runner sample
        # against the committed full-scale trajectory.
        payload["benchmark"] = "replay_perf_smoke"
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")

    print(f"wrote {args.out}  (scale={scale} seed={args.seed} repeats={repeats})")
    entry = payload["replay"]["fast"]
    print(
        f"  replay: {entry['seconds_per_run']:.4f} s/run "
        f"({entry['events_per_sec']:,.0f} events/s)"
    )
    grid = payload["grid_cache"]
    print(
        f"  grid: cold {grid['cold_seconds']:.3f}s -> warm "
        f"{grid['warm_seconds']:.3f}s ({grid['warm_speedup']:.2f}x)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
