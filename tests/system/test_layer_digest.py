"""Pinned whole-result digests of every layer combination.

``tests/system/test_layer_matrix.py`` compares the replay driver with
an oracle that shares the production loop and wrappers, so it checks
the driver and not the layers; ``tests/system/test_result_digest.py`` pins every
result field but arms a layer in only two of its 38 cases and never
overload.  This module closes the gap: the driver run of each of the 32
``COMBINATIONS`` x ``config_for`` cells of the matrix (imported, not
copied) plus its two streaming rows, reduced to the same ``digest()``.
Any change to what a layer wrapper counts, draws or serves shows here.

The values were recorded at commit 6e2ed96 (the parent of PR 16), from
unmodified source, before the request and publish paths were rebuilt
as stage tuples.

After an *intentional* model change, regenerate with::

    PYTHONPATH=src python -m tests.system.test_layer_digest
"""

import functools

import pytest

from repro.sim.rng import RandomStreams
from repro.system.cooperation import CooperativeSimulation
from repro.system.simulator import Simulation
from repro.workload import generate_workload, news_config
from repro.workload.streaming import generate_streaming_workload
from tests.system.test_layer_matrix import (
    CHURN,
    COMBINATIONS,
    SCALE,
    SEED,
    config_for,
)
from tests.system.test_result_digest import digest

STREAMING = {
    "streaming.inline": frozenset(),
    "streaming.staged": frozenset({"chaos", "delivery", "churn"}),
}

#: Recorded at commit 6e2ed96 (the parent of PR 16), before any source edit.
DIGESTS = {
    "chaos": "9101020b1ef5f8108c81d9da3be30186ac1015408d6a59bcb220ed822b6d3dc3",
    "chaos+churn": "0198274095710e06415d7c31e26f7f7c62757e5a8ca99c0fc25b4e2a62653afb",
    "chaos+churn+cooperation": "a3ecb8487d322eee10b4ce1db4162905e62dbc7c2cdf620e884e83a95608255d",
    "chaos+churn+cooperation+delivery": "e88fdc29f74192a7c6dc697102a556ddb6e4e1070488ed0868ea7c9d8302e754",
    "chaos+churn+cooperation+delivery+overload": "9d4cc01ecaa612620663f1649f520d941bf4be0e16442148b9224dfb3e8f8c25",
    "chaos+churn+cooperation+overload": "b937b49b397b66101e44374b1ab419bf7a4d97e7087f0c6f4335e10a4d62400d",
    "chaos+churn+delivery": "a2433cc139b2ea9edca51a449b105bf88b37c07976e243f64709dd992904c159",
    "chaos+churn+delivery+overload": "e75a745f6a73f9cf101f3f38b04b921e373fa5be25a10e19fa247294146596d8",
    "chaos+churn+overload": "36d128a99170409e590f5b33a6c3ec32bcecf3adc682220d7eeff74d27c579d1",
    "chaos+cooperation": "3d185ebdc0b684fc6286c95a58db8581d7b632b7ce723217b28c924d5c715b67",
    "chaos+cooperation+delivery": "57271916dd0964cc4e6f314e36bc5691d78e31ceb2d230b40249244f7fd8558c",
    "chaos+cooperation+delivery+overload": "e37df99b544194371977dca4e7166a44c6917cd165f3f950afd1a73655eafa7b",
    "chaos+cooperation+overload": "3fbe2070bf935afeefa2a5612e163aac90bd812c070b3126e9db8a4d207ef342",
    "chaos+delivery": "2be4da9b179ecdb75de10162f4983d0ef7152d4ae5cbc531dc97cd3e63dbd272",
    "chaos+delivery+overload": "21c1e78765a6c4611f4506520a364567ba73078e4769b5757abdf59b84ea2187",
    "chaos+overload": "500370cc16137f814205f75bbbda948c2358b10000ec01be9c5e93258b625d48",
    "churn": "680bafca14f3f3da91fefef1d1f4792c372357e99b87e9885cee57607af40faa",
    "churn+cooperation": "05a18366c371252620931002e2b17283b9ef677848965041270de52b2cf97813",
    "churn+cooperation+delivery": "12b8a5acc4526ea46daa18b6686463442812d7bf5b13947e1cb962889fa38afe",
    "churn+cooperation+delivery+overload": "d7da7eeec421659467bcb03bdf6449cf9288576f8c968e8d482fdce62a961325",
    "churn+cooperation+overload": "21fff96354502030d137379eea826a9fea67e4df261d37e6eb5610991a214356",
    "churn+delivery": "55da95444dd1fc8af18792c94912533b433ffb065f3e975ddca1fe53da4fcb8f",
    "churn+delivery+overload": "9b2810d3e1b900ae73a5b8e9028a36e019b464795007be2c4fecf5984f5b37ed",
    "churn+overload": "b7d95a98407079edebf0ad626191675170152f8e65a671faa2b2defa4aa1fd82",
    "cooperation": "68a7d0029e6e10261efc940c0f0d355e3d00cdc34f1f2f6b7930f641891f7a52",
    "cooperation+delivery": "076451ccc41e548de725427f810d1bc7a717ca5c8d2c5d597e6e924a5a9b74c7",
    "cooperation+delivery+overload": "88b5442e8a7a13fc0bd30f0f2cd5bd3154f2a3218967790f140c5e6bd37c6c47",
    "cooperation+overload": "ddde704b7b911f0ba4aa2e638b902f9c6ae05e58fe4aa192101942b679ee67a8",
    "delivery": "a0837578f5c4795ed56e61d5ad9da13efdfde64aa521649258bb89fc663e7474",
    "delivery+overload": "15676dabccd788f523875fb1a5672b64085d2809694a09130bafcbef9fb8bc06",
    "none": "d5d20a9bb479e9782b70599f4dbcd18f4fe6eadc73e6812ec0f1c5aba9c22906",
    "overload": "e1d66314f61078389cede6f05abb107fb233a76ab78c3c21ad6e42cbc1c5d298",
    "streaming.inline": "d5d20a9bb479e9782b70599f4dbcd18f4fe6eadc73e6812ec0f1c5aba9c22906",
    "streaming.staged": "a2433cc139b2ea9edca51a449b105bf88b37c07976e243f64709dd992904c159",
}


def case_id(on) -> str:
    return "+".join(sorted(on)) or "none"


def _churn_rng():
    return RandomStreams(SEED).stream("workload.churn")


@functools.lru_cache(maxsize=None)
def _workload(churned: bool):
    if churned:
        return _workload(False).with_churn(CHURN, _churn_rng())
    return generate_workload(news_config(scale=SCALE), RandomStreams(SEED), label="news")


def _materialised(on):
    engine = CooperativeSimulation if "cooperation" in on else Simulation
    return engine(_workload("churn" in on), config_for(on)).run()


def _streaming(on):
    streaming = generate_streaming_workload(
        news_config(scale=SCALE), RandomStreams(SEED), label="news"
    )
    try:
        trace = streaming.with_churn(CHURN, _churn_rng()) if "churn" in on else streaming
        return Simulation(trace, config_for(on)).run()
    finally:
        streaming.spool.close()


CASES = {case_id(on): (_materialised, on) for on in COMBINATIONS}
CASES.update({name: (_streaming, on) for name, on in STREAMING.items()})


@pytest.mark.parametrize("case", sorted(CASES))
def test_layer_digest_is_pinned(case):
    run, on = CASES[case]
    assert digest(run(on)) == DIGESTS[case], (
        f"{case}: SimulationResult changed; if intentional, regenerate with "
        f"`python -m tests.system.test_layer_digest`"
    )


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    print("DIGESTS = {")
    for case in sorted(CASES):
        run, on = CASES[case]
        print(f'    "{case}": "{digest(run(on))}",')
    print("}")
