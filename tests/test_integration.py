"""End-to-end integration tests across all subsystems.

These tests exercise the whole pipeline — workload generation,
subscription tables, topology, simulation — and check the paper's
headline qualitative claims at a reduced scale.
"""

import pytest

from repro.experiments.runner import run_cell
from repro.experiments.spec import CellKey
from repro.sim.rng import RandomStreams
from repro.system.config import PushingScheme, SimulationConfig
from repro.system.simulator import run_simulation
from repro.workload.presets import make_trace

SCALE = 0.1
SEED = 7


@pytest.fixture(scope="module")
def news():
    return make_trace("news", scale=SCALE, seed=SEED)


@pytest.fixture(scope="module")
def results(news):
    out = {}
    for strategy in ["gdstar", "sub", "sg1", "sg2", "sr", "dm", "dc-fp", "dc-lap"]:
        out[strategy] = run_simulation(
            news, SimulationConfig(strategy=strategy, capacity_fraction=0.05)
        )
    return out


def test_all_strategies_complete(results, news):
    for result in results.values():
        assert result.requests == news.request_count


def test_claim_combined_schemes_beat_baseline(results):
    """Headline claim: push+access schemes beat access-only GD*."""
    baseline = results["gdstar"].hit_ratio
    for strategy in ["sg1", "sg2", "sr", "dm"]:
        assert results[strategy].hit_ratio > baseline, strategy


def test_claim_sg2_and_sr_are_top_performers(results):
    """§5.3: SG2 and SR provide the highest hit ratios."""
    ranked = sorted(results, key=lambda s: -results[s].hit_ratio)
    assert set(ranked[:3]) >= {"sg2", "sr"}


def test_claim_sg1_below_sg2(results):
    """§5.3: the s+a blend is worse than the s−a remaining-demand."""
    assert results["sg1"].hit_ratio < results["sg2"].hit_ratio


def test_claim_sub_decays_over_time(results):
    """§5.5 / Fig. 6: SUB's hit ratio drops with time."""
    hourly = results["sub"].hourly_hit_ratio()
    first_day = sum(hourly[0:24]) / 24
    last_day = sum(hourly[144:168]) / 24
    assert last_day < first_day


def test_claim_gdstar_traffic_is_lowest(results):
    """Pushing adds traffic; GD* pays only for misses."""
    for strategy, result in results.items():
        if strategy == "gdstar":
            continue
        assert result.traffic_pages >= results["gdstar"].traffic_pages * 0.9


def test_claim_alternative_gains_exceed_news():
    """Table 2: α = 1.0 benefits more from pushing than α = 1.5."""
    gains = {}
    for trace in ["news", "alternative"]:
        gd = run_cell(CellKey(trace, "gdstar", 0.05), scale=SCALE, seed=SEED)
        sg2 = run_cell(CellKey(trace, "sg2", 0.05), scale=SCALE, seed=SEED)
        gains[trace] = sg2.hit_ratio / gd.hit_ratio - 1.0
    assert gains["alternative"] > gains["news"]


def test_claim_hit_ratio_grows_with_capacity(news):
    ratios = []
    for capacity in [0.01, 0.05, 0.10]:
        result = run_simulation(
            news, SimulationConfig(strategy="sg2", capacity_fraction=capacity)
        )
        ratios.append(result.hit_ratio)
    assert ratios[0] < ratios[1] <= ratios[2] + 0.02


def test_claim_sq_degrades_subscription_schemes(news):
    """Fig. 5: lower subscription quality hurts SR the most; GD* not at all."""
    def run(strategy, sq):
        return run_simulation(
            news,
            SimulationConfig(
                strategy=strategy, capacity_fraction=0.05, subscription_quality=sq
            ),
        ).hit_ratio

    assert run("gdstar", 0.25) == pytest.approx(run("gdstar", 1.0))
    assert run("sr", 0.25) < run("sr", 1.0)


def test_pushing_when_necessary_reduces_always_traffic(news):
    always = run_simulation(
        news,
        SimulationConfig(
            strategy="sub", capacity_fraction=0.05, pushing=PushingScheme.ALWAYS
        ),
    )
    necessary = run_simulation(
        news,
        SimulationConfig(
            strategy="sub",
            capacity_fraction=0.05,
            pushing=PushingScheme.WHEN_NECESSARY,
        ),
    )
    assert necessary.push_transfers < always.push_transfers
    assert necessary.hit_ratio == always.hit_ratio


def test_traffic_ledger_consistency(results):
    """Publisher-side and proxy-side accounting must agree."""
    for result in results.values():
        proxy_fetches = sum(stats.pages_fetched for stats in result.per_proxy)
        assert proxy_fetches == result.fetch_pages


def test_workload_reuse_across_sq_levels(news):
    """One trace, several subscription tables — the Fig. 5 pattern."""
    from repro.pubsub.matching import TraceMatchCounts
    from repro.workload.subscriptions import build_match_counts

    for sq in (0.25, 1.0):
        table = TraceMatchCounts(
            build_match_counts(
                news.request_pairs(), sq, RandomStreams(1).stream("subs")
            )
        )
        result = run_simulation(
            news,
            SimulationConfig(strategy="sg2", capacity_fraction=0.05),
            match_table=table,
        )
        assert result.requests == news.request_count
