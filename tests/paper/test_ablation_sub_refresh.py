"""Ablation — SUB's self-refresh bracketing (see DESIGN.md).

The paper's SUB candidate rule ("pages whose values are LESS than the
new page's") read literally means a pushed new version can never
displace the cache's own stale copy of the same page (identical value).
The default implementation allows self-refresh; ``refresh_on_push=
False`` applies the literal rule.  The two settings bracket the paper's
reported SUB behaviour: refresh is an upper bound, frozen a lower one.
"""

from repro.experiments.report import render_table
from repro.experiments.runner import run_cell
from repro.experiments.spec import CellKey

SCALE = 0.1
SEED = 7


def test_sub_refresh_bracketing():
    refresh = 100.0 * run_cell(
        CellKey("news", "sub", 0.05), scale=SCALE, seed=SEED
    ).hit_ratio
    frozen = 100.0 * run_cell(
        CellKey("news", "sub", 0.05),
        scale=SCALE,
        seed=SEED,
        strategy_options={"refresh_on_push": False},
    ).hit_ratio
    baseline = 100.0 * run_cell(
        CellKey("news", "gdstar", 0.05), scale=SCALE, seed=SEED
    ).hit_ratio
    print("\n" + render_table(
        "Ablation — SUB self-refresh semantics (NEWS, 5 %)",
        ["refresh (default)", "frozen (literal)", "gdstar"],
        {"H (%)": [refresh, frozen, baseline]},
    ))
    # Refresh dominates frozen: staleness can only hurt.
    assert refresh >= frozen
    # The paper's SUB (+6 % over GD*) lies between the two settings.
    assert frozen <= baseline * 1.06 <= refresh + 5.0
