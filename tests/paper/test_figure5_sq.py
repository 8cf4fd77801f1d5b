"""Figure 5a/5b — influence of subscription quality (§5.4).

Paper shape: GD* is flat in SQ (it ignores subscriptions); SR is the
most sensitive — its advantage at SQ = 1 erodes as SQ decreases; the
subscription-informed schemes still beat GD* at SQ = 0.25.
"""

from repro.experiments.figures import SQS, figure5

SCALE = 0.1
SEED = 7


def test_figure5_subscription_quality():
    panels = figure5(scale=SCALE, seed=SEED)
    for panel in panels.values():
        print("\n" + panel.text)

    for panel in panels.values():
        data = panel.data
        for values in data.values():
            assert len(values) == len(SQS)
        # GD* does not use subscription information at all.
        assert max(data["gdstar"]) - min(data["gdstar"]) < 1e-9
        # SR loses hit ratio as SQ drops (columns are SQ=0.25..1).
        assert data["sr"][0] < data["sr"][-1]
        # The best subscription schemes still help at SQ = 0.25.
        assert max(data["sg1"][0], data["sg2"][0], data["dc-lap"][0]) > data[
            "gdstar"
        ][0]
