"""Figure 3 — hit ratios of Dual-Methods and Dual-Caches (NEWS, §5.2).

Paper shape: every Dual-* approach beats GD*, and DC-LAP is the best of
the family at every capacity setting (with DC-AP/DC-LAP only marginally
ahead of DC-FP).
"""

from repro.experiments.figures import CAPACITIES, figure3

SCALE = 0.1
SEED = 7


def test_figure3_dual_strategies():
    result = figure3(scale=SCALE, seed=SEED)
    print("\n" + result.text)

    data = result.data
    assert set(data) == {"gdstar", "dm", "dc-fp", "dc-ap", "dc-lap"}
    for values in data.values():
        assert len(values) == len(CAPACITIES)
        assert all(0.0 <= v <= 100.0 for v in values)
    assert "Figure 3" in result.text
    # Shape check: the adaptive dual caches beat the baseline at the
    # 5 % and 10 % capacity settings.
    for capacity_index in (1, 2):
        assert data["dc-ap"][capacity_index] > data["gdstar"][capacity_index]
        assert data["dc-lap"][capacity_index] > data["gdstar"][capacity_index]
        assert data["dm"][capacity_index] > data["gdstar"][capacity_index]
    # Hit ratio grows with capacity for every strategy.
    for series in data.values():
        assert series[0] <= series[1] + 2.0
        assert series[1] <= series[2] + 2.0
