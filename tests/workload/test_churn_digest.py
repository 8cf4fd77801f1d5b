"""Pinned SHA-256 digests of whole generated lifecycle streams.

The digests and per-kind counts were recorded from unmodified source on
the commit *before* the lifecycle stream became a columnar table (one
``LifecycleRecord`` object per event, sorted through a Python key
function).  The generator must keep producing the same five columns bit
for bit and in the same order, so every churned ``result_digest`` and
layer digest downstream stays valid.
"""

import hashlib

import pytest

from repro.sim.rng import RandomStreams
from repro.workload.churn import LIFECYCLE_KINDS, ChurnSpec, churn_statistics
from repro.workload.presets import make_trace


def churn_digest(lifecycle) -> str:
    """SHA-256 over the five columns of every event (floats through ``repr``)."""
    digest = hashlib.sha256()
    for e in lifecycle:
        digest.update(
            f"{e.time!r} {e.server_id} {e.page_id} {e.kind} {e.lease!r}\n".encode()
        )
    return digest.hexdigest()


PINNED = [
    (
        "news@0.05/seed13/default-spec",
        ("news", 0.05, 13),
        ChurnSpec(),
        "d9d32dca07b7d0482d49ecc8f83d49aa74a9ace2360589665eaf44dea4b5c6aa",
        {"subscribe": 1754, "renew": 6014, "unsubscribe": 0},
    ),
    (
        "news@0.1/seed7/layered-cell-spec",
        ("news", 0.1, 7),
        ChurnSpec(churn_rate=2.0, lease_duration=10800),
        "8a1f57e5d11e7a596ae9460ee9fdc011c176f4dea10b49e0a6fc291ebd2ddfe0",
        {"subscribe": 12617, "renew": 21767, "unsubscribe": 6875},
    ),
    (
        "alternative@0.1/seed11/no-unsubscribes",
        ("alternative", 0.1, 11),
        ChurnSpec(churn_rate=0.0, renew_probability=0.5),
        "2753a4c95f36f0f45f8fde329a884dbf8fc06ba9b8b3b0d82b83584381b6e4e3",
        {"subscribe": 12904, "renew": 12271, "unsubscribe": 0},
    ),
]


@pytest.mark.parametrize(
    "trace,spec,expected,counts",
    [case[1:] for case in PINNED],
    ids=[case[0] for case in PINNED],
)
def test_churn_digest_is_pinned(trace, spec, expected, counts):
    name, scale, seed = trace
    workload = make_trace(name, scale=scale, seed=seed).with_churn(
        spec, RandomStreams(seed).stream("workload.churn")
    )
    stats = churn_statistics(workload.lifecycle)
    assert {kind: stats[kind] for kind in LIFECYCLE_KINDS} == counts
    assert stats["events"] == sum(counts.values()) == len(workload.lifecycle)
    assert churn_digest(workload.lifecycle) == expected
