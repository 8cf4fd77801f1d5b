"""§5.1 — the β calibration sweep for GD*, SG1 and SG2.

The paper varies β from 0.0625 to 4 and picks the best setting per
trace/strategy.  Shape check: the sweep runs, produces finite hit
ratios everywhere, and the spread across β is modest (β balances
long-term popularity vs short-term correlation; it tunes rather than
makes the strategies).
"""

from repro.experiments.figures import beta_sweep

SCALE = 0.1
SEED = 7
BETAS = (0.0625, 0.25, 0.5, 1.0, 2.0, 4.0)


def test_beta_calibration_sweep():
    result = beta_sweep(scale=SCALE, seed=SEED, betas=BETAS)
    print("\n" + result.text)

    assert set(result.data) == {"gdstar", "sg1", "sg2"}
    for strategy, series in result.data.items():
        assert len(series) == len(BETAS)
        assert all(0.0 <= value <= 100.0 for value in series), strategy
        best, worst = max(series), min(series)
        assert best - worst < 30.0, f"{strategy} unreasonably sensitive to beta"
