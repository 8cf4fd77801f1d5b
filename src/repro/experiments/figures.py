"""Per-figure experiment definitions (§5.2–§5.6).

Each function runs the grid behind one figure of the paper and returns
a :class:`FigureResult` with the structured numbers plus a text
rendering whose rows/series mirror the figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.system.config import PushingScheme
from repro.experiments.report import render_series, render_table
from repro.experiments.runner import run_cell, run_grid
from repro.experiments.spec import CellKey, ExperimentGrid

#: The strategy line-up of Fig. 4/5 (§5.3, §5.4).
MAIN_STRATEGIES = ("gdstar", "sub", "sg1", "sg2", "sr", "dc-lap")
#: The Dual-* line-up of Fig. 3 (§5.2).
DUAL_STRATEGIES = ("gdstar", "dm", "dc-fp", "dc-ap", "dc-lap")
#: The three capacity settings of §5.1.
CAPACITIES = (0.01, 0.05, 0.10)
#: The subscription-quality sweep of Fig. 5 (§5.4).
SQS = (0.25, 0.5, 0.75, 1.0)


@dataclass
class FigureResult:
    """Structured data plus rendering for one figure."""

    name: str
    #: row label -> series of values (figure-specific meaning).
    data: Dict[str, List[float]] = field(default_factory=dict)
    text: str = ""

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text


def figure3(scale: float = 1.0, seed: int = 7) -> FigureResult:
    """Fig. 3: Dual-Methods vs Dual-Caches hit ratios (NEWS).

    Rows are strategies, columns the 1 %/5 %/10 % capacity settings.
    """
    grid = ExperimentGrid(
        traces=("news",), strategies=DUAL_STRATEGIES, capacities=CAPACITIES
    )
    outcome = run_grid(grid, scale=scale, seed=seed)
    data = {
        strategy: [
            100.0 * outcome.hit_ratio(strategy=strategy, capacity=capacity)
            for capacity in CAPACITIES
        ]
        for strategy in DUAL_STRATEGIES
    }
    text = render_table(
        "Figure 3 — hit ratio (%) of Dual-Methods and Dual-Caches (NEWS)",
        [f"{int(c * 100)}%" for c in CAPACITIES],
        data,
    )
    return FigureResult(name="figure3", data=data, text=text)


def figure4(scale: float = 1.0, seed: int = 7) -> Dict[str, FigureResult]:
    """Fig. 4a/4b: hit ratios of all methods, SQ = 1, both traces."""
    results = {}
    for trace in ("news", "alternative"):
        grid = ExperimentGrid(
            traces=(trace,), strategies=MAIN_STRATEGIES, capacities=CAPACITIES
        )
        outcome = run_grid(grid, scale=scale, seed=seed)
        data = {
            strategy: [
                100.0 * outcome.hit_ratio(strategy=strategy, capacity=capacity)
                for capacity in CAPACITIES
            ]
            for strategy in MAIN_STRATEGIES
        }
        panel = "a" if trace == "news" else "b"
        text = render_table(
            f"Figure 4{panel} — hit ratio (%) of all methods "
            f"(SQ = 1, {trace.upper()})",
            [f"{int(c * 100)}%" for c in CAPACITIES],
            data,
        )
        results[trace] = FigureResult(name=f"figure4{panel}", data=data, text=text)
    return results


def figure5(scale: float = 1.0, seed: int = 7) -> Dict[str, FigureResult]:
    """Fig. 5a/5b: hit ratio vs subscription quality (capacity 5 %)."""
    results = {}
    for trace in ("news", "alternative"):
        grid = ExperimentGrid(
            traces=(trace,),
            strategies=MAIN_STRATEGIES,
            capacities=(0.05,),
            sqs=SQS,
        )
        outcome = run_grid(grid, scale=scale, seed=seed)
        data = {
            strategy: [
                100.0 * outcome.hit_ratio(strategy=strategy, sq=sq)
                for sq in SQS
            ]
            for strategy in MAIN_STRATEGIES
        }
        panel = "a" if trace == "news" else "b"
        text = render_table(
            f"Figure 5{panel} — hit ratio (%) vs SQ (capacity 5 %, "
            f"{trace.upper()})",
            [f"SQ={sq:g}" for sq in SQS],
            data,
        )
        results[trace] = FigureResult(name=f"figure5{panel}", data=data, text=text)
    return results


def figure6(scale: float = 1.0, seed: int = 7) -> Dict[str, FigureResult]:
    """Fig. 6a/6b: hourly hit ratio of SG2, SUB, GD* (SQ = 1, 5 %)."""
    results = {}
    for trace in ("news", "alternative"):
        data: Dict[str, List[float]] = {}
        for strategy in ("sg2", "sub", "gdstar"):
            result = run_cell(
                CellKey(trace=trace, strategy=strategy, capacity=0.05),
                scale=scale,
                seed=seed,
            )
            data[strategy] = [100.0 * h for h in result.hourly_hit_ratio()]
        panel = "a" if trace == "news" else "b"
        text = render_series(
            f"Figure 6{panel} — average H hourly (SQ = 1, capacity 5 %, "
            f"{trace.upper()})",
            data,
            maximum=100.0,
            sample_every=2,
        )
        results[trace] = FigureResult(name=f"figure6{panel}", data=data, text=text)
    return results


def figure7(scale: float = 1.0, seed: int = 7) -> Dict[str, FigureResult]:
    """Fig. 7a/7b: hourly traffic under the two pushing schemes (NEWS).

    Traffic counts pages moved publisher→proxies (pushes + fetches).
    """
    results = {}
    for scheme in (PushingScheme.ALWAYS, PushingScheme.WHEN_NECESSARY):
        data: Dict[str, List[float]] = {}
        for strategy in ("sub", "sg2", "gdstar"):
            result = run_cell(
                CellKey(
                    trace="news",
                    strategy=strategy,
                    capacity=0.05,
                    pushing=scheme.value,
                ),
                scale=scale,
                seed=seed,
            )
            data[strategy] = [float(x) for x in result.hourly_traffic_pages()]
        panel = "a" if scheme is PushingScheme.ALWAYS else "b"
        text = render_series(
            f"Figure 7{panel} — traffic in pages/hour "
            f"({scheme.value} pushing, SQ = 1, capacity 5 %, NEWS)",
            data,
            sample_every=2,
        )
        results[scheme.value] = FigureResult(
            name=f"figure7{panel}", data=data, text=text
        )
    return results


#: The capacity setting of the β sweep.
SWEEP_CAPACITY = 0.05


def beta_sweep(scale: float = 1.0, seed: int = 7, trace: str = "news") -> FigureResult:
    """§5.1's β calibration: GD*, SG1, SG2 over the paper's β grid
    (0.0625 to 4) at :data:`SWEEP_CAPACITY`."""
    from repro.experiments.calibrate import CALIBRATED_STRATEGIES, DEFAULT_BETAS

    data: Dict[str, List[float]] = {}
    for strategy in CALIBRATED_STRATEGIES:
        row = []
        for beta in DEFAULT_BETAS:
            result = run_cell(
                CellKey(trace=trace, strategy=strategy, capacity=SWEEP_CAPACITY),
                scale=scale,
                seed=seed,
                beta=beta,
            )
            row.append(100.0 * result.hit_ratio)
        data[strategy] = row
    text = render_table(
        f"β sweep — hit ratio (%) vs β ({trace.upper()}, capacity "
        f"{SWEEP_CAPACITY:.0%})",
        [f"β={beta:g}" for beta in DEFAULT_BETAS],
        data,
    )
    return FigureResult(name="beta_sweep", data=data, text=text)
