"""Subscription-churn benchmark: ``python benchmarks/churn_bench.py``.

Sweeps the subscription-lifecycle pressure — explicit churn rate ×
mean lease duration — for the dual-cache hybrids (DC-AP, DC-LAP)
against the GD* baseline, with a mildly lossy delivery layer engaged so
the retransmit traffic the lifecycle protocol rides on stays visible.
Each strategy also runs one churn-free baseline cell, so the cost of
churn (hit-ratio erosion, suppressed pushes, repair work) reads
directly off the table.  Writes ``BENCH_churn.json``; see
benchmarks/README.md for the output format.

The trace, seed and capacity are fixed so numbers are comparable
across commits.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Tuple

from repro.faults.spec import ChaosSpec
from repro.sim.rng import RandomStreams
from repro.system.config import SimulationConfig
from repro.system.simulator import run_simulation
from repro.workload.churn import ChurnSpec
from repro.workload.presets import make_trace

HOUR = 3600.0

#: The strategies the sweep compares: both dual-cache hybrids and the
#: access-time baseline they embed.
STRATEGIES = ("dc-ap", "dc-lap", "gdstar")
CAPACITY = 0.05
#: Mild notification loss + one retry: enough for retransmit traffic
#: to move with churn without drowning the sweep in permanent losses.
CHAOS = ChaosSpec(delivery_loss_probability=0.1, delivery_retry_limit=1)
#: Handshake loss keeps the confirmation/abandonment path warm.
CONFIRM_LOSS = 0.2

CHURN_RATES = (0.0, 2.0, 6.0)  # explicit cycles/subscriber/day
LEASE_DURATIONS = (1 * HOUR, 3 * HOUR, 6 * HOUR)
SMOKE_CHURN_RATES = (2.0,)
SMOKE_LEASE_DURATIONS = (3 * HOUR,)


def _cell(result) -> Dict[str, object]:
    """The per-run metrics one sweep point records."""
    return {
        "hit_ratio": result.hit_ratio,
        "availability": result.availability,
        "notifications_sent": result.notifications_sent,
        "notifications_retransmitted": result.notifications_retransmitted,
        "notifications_lost": result.notifications_lost,
        "delivery_ratio": result.notification_delivery_ratio,
        "pushes_suppressed_no_lease": result.pushes_suppressed_no_lease,
        "leases_granted": result.leases_granted,
        "leases_renewed": result.leases_renewed,
        "leases_expired": result.leases_expired,
        "handshake_losses": result.handshake_losses,
        "handshakes_abandoned": result.handshakes_abandoned,
        "repolls": result.lease_repolls + result.handshake_repairs,
        "lease_repair_ratio": result.lease_repair_ratio,
        "churn_stale_serves": result.churn_stale_serves,
        "active_leases_end": result.active_leases_end,
    }


def run_benchmark(
    scale: float,
    seed: int,
    churn_rates: Tuple[float, ...],
    lease_durations: Tuple[float, ...],
) -> Dict[str, object]:
    """Sweep the churn grid and assemble the BENCH_churn.json payload."""
    workload = make_trace("news", scale=scale, seed=seed)
    payload: Dict[str, object] = {
        "benchmark": "subscription_churn",
        "trace": "news",
        "capacity": CAPACITY,
        "scale": scale,
        "seed": seed,
        "confirmation_loss": CONFIRM_LOSS,
        "delivery_loss": CHAOS.delivery_loss_probability,
        "churn_rates": list(churn_rates),
        "lease_durations": list(lease_durations),
        "requests": workload.request_count,
        "strategies": {},
    }
    # One churned trace per grid point, shared by every strategy: the
    # stream depends on the spec and the seed, not on who replays it.
    churned = {
        (churn_rate, lease): workload.with_churn(
            ChurnSpec(
                churn_rate=churn_rate,
                lease_duration=lease,
                confirmation_loss_probability=CONFIRM_LOSS,
            ),
            RandomStreams(seed).stream("workload.churn"),
        )
        for churn_rate in churn_rates
        for lease in lease_durations
    }
    for strategy in STRATEGIES:
        config = SimulationConfig(
            strategy=strategy,
            capacity_fraction=CAPACITY,
            seed=seed,
            chaos=CHAOS,
        )
        baseline = run_simulation(workload, config)
        points: List[Dict[str, object]] = [
            {
                "churn_rate": churn_rate,
                "lease_duration": lease,
                **_cell(run_simulation(trace, config)),
            }
            for (churn_rate, lease), trace in churned.items()
        ]
        payload["strategies"][strategy] = {
            "baseline": _cell(baseline),
            "points": points,
        }
    return payload


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default="BENCH_churn.json", help="output JSON path"
    )
    parser.add_argument("--scale", type=float, default=0.1, help="workload scale")
    parser.add_argument("--seed", type=int, default=7, help="root random seed")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="single-cell sweep at tiny scale for CI (overrides --scale)",
    )
    args = parser.parse_args(argv)
    scale = args.scale
    churn_rates: Tuple[float, ...] = CHURN_RATES
    lease_durations: Tuple[float, ...] = LEASE_DURATIONS
    if args.smoke:
        scale = 0.03
        churn_rates = SMOKE_CHURN_RATES
        lease_durations = SMOKE_LEASE_DURATIONS

    payload = run_benchmark(
        scale, seed=args.seed,
        churn_rates=churn_rates, lease_durations=lease_durations,
    )
    # Every field is a model count or ratio, exact for a seed: a previous
    # payload for the same sweep must be reproduced to the last digit.
    try:
        with open(args.out, "r", encoding="utf-8") as handle:
            previous = json.load(handle)
    except (OSError, ValueError):
        previous = None
    sweep = ("scale", "seed", "churn_rates", "lease_durations")
    if (
        previous
        and all(previous.get(key) == payload[key] for key in sweep)
        and previous != json.loads(json.dumps(payload))
    ):
        print(f"{args.out}: results differ from the recorded sweep", file=sys.stderr)
        return 1
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")

    print(f"wrote {args.out}  (scale={scale} seed={args.seed})")
    header = (
        f"  {'strategy':>8s} {'churn/d':>7s} {'lease h':>7s} {'hit %':>7s} "
        f"{'retx':>6s} {'suppr':>6s} {'repolls':>7s}"
    )
    print(header)
    for strategy, entry in payload["strategies"].items():
        base = entry["baseline"]
        print(
            f"  {strategy:>8s} {'off':>7s} {'-':>7s} "
            f"{100 * base['hit_ratio']:>6.2f}% "
            f"{base['notifications_retransmitted']:>6d} "
            f"{base['pushes_suppressed_no_lease']:>6d} {0:>7d}"
        )
        for point in entry["points"]:
            print(
                f"  {strategy:>8s} {point['churn_rate']:>7.1f} "
                f"{point['lease_duration'] / HOUR:>7.1f} "
                f"{100 * point['hit_ratio']:>6.2f}% "
                f"{point['notifications_retransmitted']:>6d} "
                f"{point['pushes_suppressed_no_lease']:>6d} "
                f"{point['repolls']:>7d}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
