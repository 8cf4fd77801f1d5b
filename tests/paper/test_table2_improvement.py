"""Table 2 — relative improvement over GD* at 5 % capacity (§5.3).

Paper shape: every strategy gains over GD* on both traces, and the
ALTERNATIVE trace (α = 1.0) gains roughly twice as much as NEWS
(α = 1.5) — pushing helps non-homogeneous request streams more.
"""

from repro.experiments.tables import TABLE2_STRATEGIES, table2

SCALE = 0.1
SEED = 7


def test_table2_relative_improvement():
    result = table2(scale=SCALE, seed=SEED)
    print("\n" + result.text)

    assert set(result.improvements) == {1.5, 1.0}
    for per_alpha in result.improvements.values():
        assert set(per_alpha) == set(TABLE2_STRATEGIES)
    assert "Table 2" in result.text
    assert "paper" in result.text
    news = result.improvements[1.5]
    alternative = result.improvements[1.0]
    # Combined schemes improve on both traces.
    for strategy in ("sg1", "sg2", "sr", "dm"):
        assert news[strategy] > 0.0, strategy
        assert alternative[strategy] > 0.0, strategy
    # The flatter-popularity trace benefits more (the paper's headline).
    assert alternative["sg2"] > news["sg2"]
    assert alternative["sr"] > news["sr"]
    # SG2/SR lead the single-cache family on both traces.
    assert news["sg2"] >= news["sg1"] - 2.0
    assert alternative["sg2"] >= alternative["sg1"] - 2.0
