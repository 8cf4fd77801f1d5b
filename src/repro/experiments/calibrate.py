"""β calibration (§5.1).

The GD* parameter β balances long-term popularity against short-term
temporal correlation and "may be different from trace to trace"; the
paper notes that when β is learned on-line from past accesses it is
quite stable for a given trace.  This module provides that procedure:
evaluate a strategy on a *prefix* of the trace across the paper's β
grid and pick the best.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.system.config import SimulationConfig
from repro.system.simulator import run_simulation
from repro.workload.trace import Workload

#: The paper's β grid (§5.1: "varying β from 0.0625 to 4").
DEFAULT_BETAS = (0.0625, 0.125, 0.25, 0.5, 1.0, 2.0, 4.0)
#: The GD*-framework strategies the paper tunes β for.
CALIBRATED_STRATEGIES = ("gdstar", "sg1", "sg2")


def trace_prefix(workload: Workload, fraction: float) -> Workload:
    """The first ``fraction`` of a workload, by time.

    Publish and request streams are truncated at the cut-off (both
    tables are time-sorted, so each cut is one binary search) and the
    prefix is a valid (shorter-horizon) workload of its own.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    if fraction == 1.0:
        return workload
    cutoff = workload.config.horizon * fraction
    config = dataclasses.replace(workload.config, horizon=cutoff)
    publishes, requests = (
        table[: int(np.searchsorted(table.rows["time"], cutoff, side="right"))]
        for table in (workload.publishes, workload.requests)
    )
    return Workload(
        config=config,
        pages=workload.pages,
        publishes=publishes,
        requests=requests,
        label=workload.label,
    )


@dataclass
class CalibrationResult:
    """Outcome of a β calibration run."""

    strategy: str
    best_beta: float
    #: beta -> hit ratio on the calibration prefix.
    prefix_scores: Dict[float, float]


def calibrate_beta(
    workload: Workload,
    strategy: str,
    capacity_fraction: float,
    prefix_fraction: float,
) -> CalibrationResult:
    """Pick the β of :data:`DEFAULT_BETAS` maximizing the hit ratio on a
    trace prefix (the simulation runs at ``SimulationConfig``'s seed).

    Args:
        workload: the full trace; calibration only sees its prefix.
        strategy: a GD*-framework strategy name ("gdstar", "sg1", ...).
        capacity_fraction: cache capacity setting.
        prefix_fraction: share of the horizon used for calibration.
    """
    prefix = trace_prefix(workload, prefix_fraction)
    scores: Dict[float, float] = {}
    for beta in DEFAULT_BETAS:
        config = SimulationConfig(
            strategy=strategy,
            strategy_options={"beta": float(beta)},
            capacity_fraction=capacity_fraction,
        )
        scores[float(beta)] = run_simulation(prefix, config).hit_ratio
    best_beta = max(scores, key=lambda beta: (scores[beta], -beta))
    return CalibrationResult(strategy=strategy, best_beta=best_beta, prefix_scores=scores)


def calibrate_all(
    workload: Workload, capacity_fraction: float, prefix_fraction: float
) -> Dict[str, CalibrationResult]:
    """Calibrate every GD*-framework strategy the paper tunes."""
    return {
        strategy: calibrate_beta(workload, strategy, capacity_fraction, prefix_fraction)
        for strategy in CALIBRATED_STRATEGIES
    }
