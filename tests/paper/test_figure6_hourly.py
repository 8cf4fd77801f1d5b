"""Figure 6a/6b — hourly hit ratio over the 7 days (§5.5).

Paper shape: SUB starts high (proactive pushing) and decays because its
static subscription information cannot adapt; SG2 stays high by
combining subscriptions with the access pattern; GD* is stable after
warm-up.
"""

import numpy as np

from repro.experiments.figures import figure6

SCALE = 0.1
SEED = 7


def daily_means(series):
    values = np.asarray(series, dtype=float)
    return [values[day * 24 : (day + 1) * 24].mean() for day in range(7)]


def test_figure6_hourly_hit_ratio():
    panels = figure6(scale=SCALE, seed=SEED)
    for panel in panels.values():
        print("\n" + panel.text)

    for panel in panels.values():
        assert set(panel.data) == {"sg2", "sub", "gdstar"}
        for series in panel.data.values():
            assert len(series) == 169  # 7 days + boundary hour
            assert all(0.0 <= v <= 100.0 for v in series)
        sub_days = daily_means(panel.data["sub"])
        sg2_days = daily_means(panel.data["sg2"])
        gd_days = daily_means(panel.data["gdstar"])
        # SUB decays: its last day is clearly below its first day.
        assert sub_days[6] < sub_days[0]
        # SG2 tracks or beats SUB late in the trace.
        assert sg2_days[6] >= sub_days[6] - 2.0
        # SG2 beats GD* throughout.
        assert np.mean(sg2_days) > np.mean(gd_days)
