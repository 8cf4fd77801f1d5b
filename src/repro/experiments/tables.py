"""Table 2: relative hit-ratio improvement over GD* (§5.3).

The paper reports, at the 5 % capacity setting and SQ = 1, the relative
improvement of every strategy over the GD* baseline for both Zipf α
values.  The headline claim is that the ALTERNATIVE trace (α = 1.0)
benefits roughly twice as much as NEWS (α = 1.5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.experiments.report import render_table
from repro.experiments.runner import run_grid
from repro.experiments.spec import ExperimentGrid

#: The capacity setting of Table 2.
TABLE2_CAPACITY = 0.05
#: Column order of the paper's Table 2.
TABLE2_STRATEGIES = ("sub", "sg1", "sg2", "sr", "dm", "dc-fp", "dc-lap")

#: The paper's reported values (%), for side-by-side comparison.
PAPER_TABLE2 = {
    1.5: {"sub": 6, "sg1": 34, "sg2": 50, "sr": 54, "dm": 17, "dc-fp": 37, "dc-lap": 40},
    1.0: {"sub": 47, "sg1": 84, "sg2": 133, "sr": 133, "dm": 34, "dc-fp": 93, "dc-lap": 96},
}


@dataclass
class Table2Result:
    """Measured relative improvements, keyed by α then strategy."""

    improvements: Dict[float, Dict[str, float]] = field(default_factory=dict)
    text: str = ""

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text


def table2(scale: float = 1.0, seed: int = 7) -> Table2Result:
    """Regenerate Table 2 (relative improvement over GD*, %)."""
    alphas = {"news": 1.5, "alternative": 1.0}
    improvements: Dict[float, Dict[str, float]] = {}
    for trace, alpha in alphas.items():
        grid = ExperimentGrid(
            traces=(trace,),
            strategies=("gdstar",) + TABLE2_STRATEGIES,
            capacities=(TABLE2_CAPACITY,),
        )
        outcome = run_grid(grid, scale=scale, seed=seed)
        improvements[alpha] = {
            strategy: 100.0
            * (outcome.relative_improvement(strategy=strategy) or 0.0)
            for strategy in TABLE2_STRATEGIES
        }

    rows: Dict[str, List[float]] = {}
    for alpha in (1.5, 1.0):
        rows[f"α={alpha} (measured)"] = [
            improvements[alpha][s] for s in TABLE2_STRATEGIES
        ]
        rows[f"α={alpha} (paper)"] = [
            float(PAPER_TABLE2[alpha][s]) for s in TABLE2_STRATEGIES
        ]
    text = render_table(
        f"Table 2 — relative improvement over GD* (%) (capacity = "
        f"{TABLE2_CAPACITY:.0%}, SQ = 1)",
        [s.upper() for s in TABLE2_STRATEGIES],
        rows,
        value_format="{:6.0f}",
    )
    return Table2Result(improvements=improvements, text=text)
