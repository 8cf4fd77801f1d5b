"""Pinned whole-result digests.

``tests/test_golden.py`` pins three integers for four strategies; this
module pins *every* :class:`SimulationResult` field (minus the two
timing artefacts) for all nine paper strategies on both traces under
both pushing schemes, plus one cooperative and one chaos+churn run
(its case id still says "hybrid", the engine that recorded it and that
the replay driver's staged arm replaced).  The digests were recorded before the placement-path
rewrite of PR 13, so any change to eviction order, tie-breaking
(including the sequence renumbering a rolled-back conditional eviction
performs) or float operation order shows up here.

After an *intentional* model change, regenerate with::

    PYTHONPATH=src python -m tests.system.test_result_digest
"""

import dataclasses
import functools
import hashlib
import json

import pytest

from repro.faults.spec import ChaosSpec
from repro.sim.rng import RandomStreams
from repro.system.config import PushingScheme, SimulationConfig
from repro.system.cooperation import run_cooperative_simulation
from repro.system.simulator import run_simulation
from repro.workload.churn import ChurnSpec
from repro.workload.presets import make_trace

STRATEGIES = (
    "gdstar", "sub", "sg1", "sg2", "sr", "dm", "dc-fp", "dc-ap", "dc-lap",
)
#: trace -> (scale, seed)
TRACES = {"news": (0.05, 13), "alternative": (0.1, 11)}

CHAOS = ChaosSpec(
    proxy_mtbf=43_200.0,
    proxy_mttr=3_600.0,
    crash_fraction=1.0,
    delivery_loss_probability=0.1,
    delivery_retry_limit=1,
)
CHURN = ChurnSpec(
    churn_rate=4.0,
    lease_duration=3 * 3600.0,
    renew_probability=0.6,
    confirmation_loss_probability=0.2,
)

#: Recorded at commit 7d37624 (the parent of PR 13), before any source edit.
DIGESTS = {
    "alternative.dc-ap.always": "b41d39c3c0a77be7c6115826024c1c8ac7d8a047b882c85ccf81d81aa37668a8",
    "alternative.dc-ap.when-necessary": "c18ea9e89c1333c892da3321447c75e351cf45c6a879350bd7532a7b2be2f372",
    "alternative.dc-fp.always": "412bcdec7a2c7e68dc7c9f808f613a1e26a4f607be4e4574ddbea7286022077d",
    "alternative.dc-fp.when-necessary": "2c0ec305990fea58742bef636acba08dc603e7124fd060c5351eaa25a8fd5836",
    "alternative.dc-lap.always": "b8c4a815f94946cf8a960590db62805f2f20fb33ebdfa5a7fd3810634f9db2d6",
    "alternative.dc-lap.when-necessary": "79e4dab9aae96c536817009ef969270522b5ff222e21bf715592c21b474df91e",
    "alternative.dm.always": "c57963fb163d877c3687fd9dce9b78196701f4c9f6729522d86444d3f8d77527",
    "alternative.dm.when-necessary": "4d2b042bf8598dc4d80e9860b267b06a2519eb79ad161f4f65006bd9d54e8c20",
    "alternative.gdstar.always": "90ede51da99fecc097c973209663e2adc454a40e62ffb558e72659fc180826d7",
    "alternative.gdstar.when-necessary": "b996adedb1bf721d3f18687b5342d88f206350eddeb7adfb8ec1f30bb30f16da",
    "alternative.sg1.always": "e9c0a4b5e24df7c02eb416609b1d8af98f89948d7a3402edb0a2cea594a4ceb4",
    "alternative.sg1.when-necessary": "12c6d5a088f6fc3427cbbd1b1d0d96f6af891a59d7618ddb91b0f52421bd79d9",
    "alternative.sg2.always": "5858d50bcde89f581d41bb57444012673afa6d3a6cfedd5cb132ead1fe07e1ca",
    "alternative.sg2.when-necessary": "763d1d877b915d3e56d1178ba4c7ffe12b971c726dc87cb8ef41233936b61aa2",
    "alternative.sr.always": "db9a4affb05715528494a7a5281ef8ff7499da3535906fbe5e17a5617af3b01b",
    "alternative.sr.when-necessary": "4d7c76e331555e0725d3823fd1e7b9b6cc3183a7e94ff983c751cf2be024700d",
    "alternative.sub.always": "ebd4957240314ee9037920a088a36fd7f2a1f2d8f4cef5c97a79cf2b31c62d08",
    "alternative.sub.when-necessary": "3ec876172bfd5bba01d47197a04735e0c4205ce24695ebc1dd485b9b23e81835",
    "news.dc-ap.always": "40beff328cce949ba1d6bdb52329564b316217eefc8fdb5f05ab125a829533c9",
    "news.dc-ap.when-necessary": "c6b5c7d1b6355234501f6fc90198947386d32aab300d94bdd03f59f7d0611a2b",
    "news.dc-fp.always": "cfee90a65f786208ea857ab83b0c78a7ecc3b27dddd7ec9db5426c6ce704ee2a",
    "news.dc-fp.when-necessary": "782bbc47d51e520f3e93dc5dc8066d2729c8aa34c1ecb1364bfe4ea30305bae7",
    "news.dc-lap.always": "c668cdacdedcbc40394a89935e2ac1b7b757ba4b5597eba45ff8ba1604289107",
    "news.dc-lap.cooperative": "8dbdddec16e73abf01417709535e6127eb7c3b34948393ad89c0494cdf855948",
    "news.dc-lap.when-necessary": "0473f632c45256f95218be75eb5fce7e63daa2be615afa61e1d0cba9e464ab79",
    "news.dm.always": "94fa10dad5330525252cf067019beffc5e5312f7b427f3290e7af60203841be6",
    "news.dm.when-necessary": "fe833ae3f219c45027810e64344651e9e3af4ae4e98ea92e98e755b927f0cde8",
    "news.gdstar.always": "0a4576ad4ba631fc6d971f88a27c68fa44b90ae738eb0792abdd3b4e33877945",
    "news.gdstar.when-necessary": "c82a3ab09fdf5b95f52e1f1ef47153c374b634c1c9c41ec6e2cc36df1f478802",
    "news.sg1.always": "738e5bef2401ee8a7e9c8ef9e1e160f03759a9ed8c6d28026196bd9870f56566",
    "news.sg1.when-necessary": "008ff06f33412783b0710734c240a90988a463f738f77d77a26facf79d828691",
    "news.sg2.always": "2f547163b87eaa84c6f3da0aea7c14085e7322646f723e032c3f4080bb21a097",
    "news.sg2.chaos-churn-hybrid": "af7e1e872149f83e974b18cbef4c85b7e05e7aecf99541fab8c80d56b35de07c",
    "news.sg2.when-necessary": "93fb874288a94d119419208ccf9ea1d37734fdd3325a5b86882a0f09aa0b3f39",
    "news.sr.always": "61ccd790b0657024500dbd0252813588c4b6c1cadbca3b71ef52c3b22c58c57b",
    "news.sr.when-necessary": "39072c863890c4c969f27f1a577396feabd37f6ceddadbf2239c05610afba230",
    "news.sub.always": "a675474ce623bb69edfc393e24f9222e81bd418c90a38782fbf086dfc239050d",
    "news.sub.when-necessary": "accf2ef73dcd26efb52e8e371b55c28f1cd4483e0807b94c036f989c093decb7",
}


def digest(result) -> str:
    fields = dataclasses.asdict(result)
    del fields["wall_seconds"], fields["profile"]
    return hashlib.sha256(json.dumps(fields, sort_keys=True).encode()).hexdigest()


@functools.lru_cache(maxsize=None)
def _workload(trace):
    scale, seed = TRACES[trace]
    return make_trace(trace, scale=scale, seed=seed)


def _grid_cell(trace, strategy, pushing):
    config = SimulationConfig(
        strategy=strategy,
        capacity_fraction=0.05,
        seed=TRACES[trace][1],
        pushing=PushingScheme(pushing),
    )
    return run_simulation(_workload(trace), config)


def _cooperative():
    config = SimulationConfig(strategy="dc-lap", capacity_fraction=0.05, seed=13)
    return run_cooperative_simulation(_workload("news"), config, neighbor_count=2)


def _chaos_churn():
    churned = _workload("news").with_churn(
        CHURN, RandomStreams(13).stream("workload.churn")
    )
    config = SimulationConfig(
        strategy="sg2", capacity_fraction=0.05, seed=13, chaos=CHAOS
    )
    return run_simulation(churned, config)


CASES = {
    f"{trace}.{strategy}.{pushing}": (_grid_cell, (trace, strategy, pushing))
    for trace in TRACES
    for strategy in STRATEGIES
    for pushing in ("when-necessary", "always")
}
CASES["news.dc-lap.cooperative"] = (_cooperative, ())
CASES["news.sg2.chaos-churn-hybrid"] = (_chaos_churn, ())


@pytest.mark.parametrize("case", sorted(CASES))
def test_result_digest_is_pinned(case):
    run, args = CASES[case]
    assert digest(run(*args)) == DIGESTS[case], (
        f"{case}: SimulationResult changed; if intentional, regenerate with "
        f"`python -m tests.system.test_result_digest`"
    )


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    print("DIGESTS = {")
    for case in sorted(CASES):
        run, args = CASES[case]
        print(f'    "{case}": "{digest(run(*args))}",')
    print("}")
