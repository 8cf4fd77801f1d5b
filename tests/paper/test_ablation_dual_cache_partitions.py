"""Ablations on the dual-cache design choices (§3.3).

The paper fixes DC-FP at a 50/50 partition and bounds DC-LAP to
[25 %, 75 %]; these sweeps measure how sensitive the dual-cache family
is to those choices.
"""

from repro.experiments.report import render_table
from repro.experiments.runner import run_cell
from repro.experiments.spec import CellKey

SCALE = 0.1
SEED = 7


def test_dcfp_partition_sweep():
    fractions = (0.25, 0.5, 0.75)
    row = [
        100.0 * run_cell(
            CellKey("news", "dc-fp", 0.05),
            scale=SCALE,
            seed=SEED,
            strategy_options={"push_fraction": fraction},
        ).hit_ratio
        for fraction in fractions
    ]
    print("\n" + render_table(
        "Ablation — DC-FP push-cache fraction (NEWS, 5 %)",
        [f"{f:.0%}" for f in fractions],
        {"dc-fp": row},
    ))
    assert all(0.0 <= value <= 100.0 for value in row)


def test_dclap_bound_sweep():
    bounds = ((0.05, 0.95), (0.25, 0.75), (0.4, 0.6))
    row = [
        100.0 * run_cell(
            CellKey("news", "dc-lap", 0.05),
            scale=SCALE,
            seed=SEED,
            strategy_options={"lower_fraction": lower, "upper_fraction": upper},
        ).hit_ratio
        for lower, upper in bounds
    ]
    print("\n" + render_table(
        "Ablation — DC-LAP partition bounds (NEWS, 5 %)",
        [f"[{low:.0%},{high:.0%}]" for low, high in bounds],
        {"dc-lap": row},
    ))
    # Wider bounds let the partition adapt at least as well as the
    # tightest setting (within noise).
    assert row[0] >= row[2] - 5.0
