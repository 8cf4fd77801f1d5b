"""Extension ablation — cooperative proxies (beyond the paper).

On a miss, a proxy asks its k nearest peers before the publisher.  The
local hit ratio is unchanged by construction; the measured quantities
are origin-traffic offload and the modelled response time, as a
function of k, on top of the GD* baseline and the best combined scheme.
"""

from repro.experiments.report import render_table
from repro.experiments.runner import trace_for
from repro.system.config import SimulationConfig
from repro.system.cooperation import run_cooperative_simulation

SCALE = 0.1
SEED = 7
NEIGHBORS = (0, 2, 5, 10)


def test_cooperative_offload():
    workload = trace_for("news", SCALE, SEED)
    rows = {}
    for strategy in ("gdstar", "sg2"):
        config = SimulationConfig(strategy=strategy, capacity_fraction=0.05)
        offloads = []
        for k in NEIGHBORS:
            result = run_cooperative_simulation(workload, config, neighbor_count=k)
            misses = result.fetch_pages + result.peer_fetch_pages
            share = result.peer_fetch_pages / misses if misses else 0.0
            offloads.append(100.0 * share)
        rows[strategy] = offloads

    print("\n" + render_table(
        "Extension — share of misses served by peers (%) vs k (NEWS, 5 %)",
        [f"k={k}" for k in NEIGHBORS],
        rows,
    ))
    for strategy, offloads in rows.items():
        assert offloads[0] == 0.0
        assert offloads == sorted(offloads), strategy  # monotone in k
