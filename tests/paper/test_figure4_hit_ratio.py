"""Figure 4a/4b — hit ratios of all methods at SQ = 1 (§5.3).

Paper shape: subscription-informed strategies beat GD* (except SUB at
1 % on NEWS); SG2/SR are the best; ranks are stable across capacities.
"""

from repro.experiments.figures import CAPACITIES, MAIN_STRATEGIES, figure4

SCALE = 0.1
SEED = 7


def test_figure4_all_methods():
    panels = figure4(scale=SCALE, seed=SEED)
    for panel in panels.values():
        print("\n" + panel.text)

    assert set(panels) == {"news", "alternative"}
    for trace, panel in panels.items():
        data = panel.data
        assert set(data) == set(MAIN_STRATEGIES)
        for values in data.values():
            assert len(values) == len(CAPACITIES)
        # SG2 and SR beat the GD* baseline at 5 % and 10 % capacity.
        for capacity_index in (1, 2):
            assert data["sg2"][capacity_index] > data["gdstar"][capacity_index]
            assert data["sr"][capacity_index] > data["gdstar"][capacity_index]
        # SG1 does not beat SG2 (the s+a blend keeps spent pages).
        assert data["sg1"][1] <= data["sg2"][1] + 1.0
