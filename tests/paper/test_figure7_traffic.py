"""Figure 7a/7b — traffic under the two pushing schemes (§5.6, NEWS).

Paper shape: GD*'s traffic is identical across pushing schemes (it is
the baseline); SUB carries the most traffic; Pushing-When-Necessary
reduces SUB's traffic relative to Always-Pushing; SG2's overhead stays
comparable to GD*.
"""

from repro.experiments.figures import figure7

SCALE = 0.1
SEED = 7


def test_figure7_pushing_schemes():
    panels = figure7(scale=SCALE, seed=SEED)
    for panel in panels.values():
        print("\n" + panel.text)

    assert set(panels) == {"always", "when-necessary"}
    always = panels["always"].data
    necessary = panels["when-necessary"].data
    # GD* is pushing-scheme-independent, hour by hour.
    assert always["gdstar"] == necessary["gdstar"]
    # Pushing-When-Necessary strictly reduces SUB's total traffic.
    assert sum(necessary["sub"]) < sum(always["sub"])
    # Push-enabled schemes carry more traffic than the fetch-only baseline.
    assert sum(always["sub"]) > sum(always["gdstar"])
    assert sum(always["sg2"]) > sum(always["gdstar"])
    # SG2's overhead stays within a small factor of the baseline.
    assert sum(necessary["sg2"]) < 4.0 * sum(necessary["gdstar"])
