"""§7 future-work extension: requests not driven by notifications.

The paper's model assumes every request follows a notification; its
stated future work is the mixed scenario.  ``notified_fraction`` makes
only a sampled share of requests visible to the subscription system, so
the remaining demand has no subscription footprint.  Shape expectation:
the subscription-informed schemes degrade toward GD* as the fraction
drops, while GD* itself is unaffected.

Measured finding: the degradation is steep — below ~50 % coverage SG2
falls *under* GD*, because its value-gated placement discards pages
whose (invisible) demand it cannot price.  A strategy counting on
subscription knowledge is actively harmed when most requests arrive
from outside the notification service, which sharpens the paper's
closing caveat.
"""

from repro.experiments.report import render_table
from repro.experiments.runner import run_cell
from repro.experiments.spec import CellKey

SCALE = 0.1
SEED = 7
FRACTIONS = (1.0, 0.5, 0.25)


def test_nonsubscriber_traffic_extension():
    rows = {
        strategy: [
            100.0 * run_cell(
                CellKey("news", strategy, 0.05),
                scale=SCALE,
                seed=SEED,
                notified_fraction=fraction,
            ).hit_ratio
            for fraction in FRACTIONS
        ]
        for strategy in ("gdstar", "sg2")
    }
    print("\n" + render_table(
        "Ablation — fraction of notification-driven requests (NEWS, 5 %)",
        [f"{fraction:.0%}" for fraction in FRACTIONS],
        rows,
    ))

    # GD* ignores subscriptions entirely.
    assert max(rows["gdstar"]) - min(rows["gdstar"]) < 1e-9
    # SG2's advantage erodes monotonically as coverage drops...
    assert rows["sg2"][0] >= rows["sg2"][1] >= rows["sg2"][2] - 1.0
    # ...starting from a clear win at full coverage.
    assert rows["sg2"][0] > rows["gdstar"][0]
