"""The chaos experiment: strategy resilience under fault injection.

Beyond the paper's fair-weather comparison, this experiment replays the
same trace, the same topology **and the same fault schedule** (both are
pure functions of the seed) for each strategy, and asks how gracefully
each one degrades:

* **availability** — the fraction of requests served at all, with the
  origin retry budget as the only safety net during publisher outages;
* **time-to-warm** — how quickly a crashed proxy's cold cache climbs
  back to its pre-crash hit ratio, where push-time placement (SUB and
  the Dual-* hybrids) can re-warm caches *before* users ask, while
  pull-only strategies (GD*) must take every post-crash miss;
* the **recovery curve** — hit ratio bucketed by time since recovery.

The default fault mix is deliberately harsh (every proxy eligible to
crash about daily, a couple of origin outages over the week, occasional
degraded links) so the differences are visible at report scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.experiments.report import render_series, render_table
from repro.experiments.runner import paper_beta, preset_trace
from repro.faults.spec import ChaosSpec
from repro.obs.log import get_logger
from repro.obs.recorder import Observer
from repro.system.config import SimulationConfig
from repro.system.metrics import SimulationResult
from repro.system.simulator import Simulation

logger = get_logger(__name__)

#: Strategies compared under chaos: the paper's best pull-only method,
#: the push-only baseline, and the two strongest hybrids.
CHAOS_STRATEGIES = ("gdstar", "sub", "sg2", "dc-lap")

#: One week of harsh weather: proxies crash about once a day for about
#: an hour, the origin goes dark about twice for about half an hour,
#: and links spend a few percent of the time degraded.
DEFAULT_CHAOS = ChaosSpec(
    proxy_mtbf=86_400.0,
    proxy_mttr=3_600.0,
    crash_fraction=0.5,
    publisher_mtbf=259_200.0,
    publisher_mttr=1_800.0,
    degraded_mtbf=172_800.0,
    degraded_mttr=3_600.0,
    degraded_latency_multiplier=4.0,
    degraded_loss_probability=0.02,
)


@dataclass
class ChaosResult:
    """Per-strategy resilience numbers plus renderings."""

    spec: ChaosSpec
    results: Dict[str, SimulationResult] = field(default_factory=dict)
    text: str = ""

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text


def run_chaos(
    strategies: Sequence[str] = CHAOS_STRATEGIES,
    trace: str = "news",
    capacity: float = 0.05,
    scale: float = 1.0,
    seed: int = 7,
    spec: Optional[ChaosSpec] = None,
    observer: Optional[Observer] = None,
) -> ChaosResult:
    """Run every strategy under one identical fault schedule.

    The schedule is generated inside each :class:`Simulation` from the
    dedicated fault streams of the shared seed, so every strategy sees
    the same crash times, the same outages and the same degraded
    windows — the comparison isolates the *strategy's* contribution to
    resilience.

    One ``observer`` (if given) is shared across the sequential
    strategy runs: each run re-binds the tracer context with its
    strategy tag, while registry counters accumulate across the whole
    comparison.
    """
    if spec is None:
        spec = DEFAULT_CHAOS
    workload = preset_trace(trace, scale, seed)
    outcome = ChaosResult(spec=spec)
    for strategy in strategies:
        config = SimulationConfig(
            strategy=strategy,
            strategy_options={"beta": paper_beta(trace, strategy, capacity)},
            capacity_fraction=capacity,
            seed=seed,
            chaos=spec,
        )
        logger.info("chaos run: strategy=%s trace=%s", strategy, trace)
        outcome.results[strategy] = Simulation(
            workload, config, observer=observer
        ).run()
    outcome.text = _render(outcome, trace, capacity)
    return outcome


def _render(outcome: ChaosResult, trace: str, capacity: float) -> str:
    columns = [
        "H %",
        "avail %",
        "failed",
        "degraded",
        "crashes",
        "warm s",
        "unwarmed",
    ]
    delivery_active = any(
        result.notifications_sent > 0 for result in outcome.results.values()
    )
    if delivery_active:
        columns += ["lost", "retrans", "stale srv", "repairs"]
    rows: Dict[str, List[Optional[float]]] = {}
    for strategy, result in outcome.results.items():
        rows[strategy] = [
            100.0 * result.hit_ratio,
            100.0 * result.availability,
            float(result.failed_requests),
            float(result.degraded_requests),
            float(result.proxy_crashes),
            result.mean_time_to_warm,
            float(result.unwarmed_recoveries),
        ]
        if delivery_active:
            rows[strategy] += [
                float(result.notifications_lost),
                float(result.notifications_retransmitted),
                float(result.stale_hits_served),
                float(result.repair_fetches),
            ]
    parts = [
        render_table(
            f"Chaos — resilience by strategy ({trace.upper()}, "
            f"cap={capacity:.0%})",
            columns,
            rows,
        )
    ]
    curves = {
        strategy: result.recovery_hit_ratio_curve()
        for strategy, result in outcome.results.items()
    }
    if any(any(curve) for curve in curves.values()):
        parts.append(
            render_series(
                "Post-recovery hit ratio by time since restart "
                f"(bin={next(iter(outcome.results.values())).recovery_bin_seconds:.0f}s)",
                curves,
                maximum=1.0,
            )
        )
    availability = {
        strategy: result.hourly_availability()
        for strategy, result in outcome.results.items()
    }
    parts.append(
        render_series("Hourly availability", availability, maximum=1.0)
    )
    return "\n\n".join(parts)
