"""β calibration (§5.1).

The GD* parameter β balances long-term popularity against short-term
temporal correlation and "may be different from trace to trace"; the
paper notes that when β is learned on-line from past accesses it is
quite stable for a given trace.  This module provides that procedure:
evaluate a strategy on a *prefix* of the trace across a β grid, pick
the best, and (optionally) verify the choice holds on the remainder.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.system.config import SimulationConfig
from repro.system.simulator import run_simulation
from repro.workload.trace import Workload

#: The paper's β grid (§5.1: "varying β from 0.0625 to 4").
DEFAULT_BETAS = (0.0625, 0.125, 0.25, 0.5, 1.0, 2.0, 4.0)


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
    #: hit ratio of the chosen beta on the full trace (when verified).
    verified_hit_ratio: Optional[float] = None


def calibrate_beta(
    workload: Workload,
    strategy: str,
    capacity_fraction: float = 0.05,
    betas: Sequence[float] = DEFAULT_BETAS,
    prefix_fraction: float = 0.25,
    verify: bool = False,
    seed: int = 7,
) -> CalibrationResult:
    """Pick the β maximizing the hit ratio on a trace prefix.

    Args:
        workload: the full trace; calibration only sees its prefix.
        strategy: a GD*-framework strategy name ("gdstar", "sg1", ...).
        capacity_fraction: cache capacity setting.
        betas: the candidate grid.
        prefix_fraction: share of the horizon used for calibration.
        verify: also run the chosen β on the full trace.
        seed: simulation seed (subscription noise, topology).
    """
    prefix = trace_prefix(workload, prefix_fraction)
    scores: Dict[float, float] = {}
    for beta in betas:
        config = SimulationConfig(
            strategy=strategy,
            strategy_options={"beta": float(beta)},
            capacity_fraction=capacity_fraction,
            seed=seed,
        )
        scores[float(beta)] = run_simulation(prefix, config).hit_ratio
    best_beta = max(scores, key=lambda beta: (scores[beta], -beta))
    verified = None
    if verify:
        config = SimulationConfig(
            strategy=strategy,
            strategy_options={"beta": best_beta},
            capacity_fraction=capacity_fraction,
            seed=seed,
        )
        verified = run_simulation(workload, config).hit_ratio
    return CalibrationResult(
        strategy=strategy,
        best_beta=best_beta,
        prefix_scores=scores,
        verified_hit_ratio=verified,
    )


def calibrate_all(
    workload: Workload,
    strategies: Sequence[str] = ("gdstar", "sg1", "sg2"),
    capacity_fraction: float = 0.05,
    betas: Sequence[float] = DEFAULT_BETAS,
    prefix_fraction: float = 0.25,
    seed: int = 7,
) -> Dict[str, CalibrationResult]:
    """Calibrate every GD*-framework strategy the paper tunes."""
    return {
        strategy: calibrate_beta(
            workload,
            strategy,
            capacity_fraction=capacity_fraction,
            betas=betas,
            prefix_fraction=prefix_fraction,
            seed=seed,
        )
        for strategy in strategies
    }
