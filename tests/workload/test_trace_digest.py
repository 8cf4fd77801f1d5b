"""Pinned SHA-256 digests of whole generated traces.

The digests were recorded on the commit *before* the per-page interior
of the generator was vectorised; the generator must keep producing the
same pages, publishes and requests bit for bit, so every golden number,
artifact-cache key and ``result_digest`` downstream stays valid.
"""

import dataclasses
import hashlib
import struct

import pytest

from repro.sim.rng import RandomStreams
from repro.workload.presets import alternative_config, news_config
from repro.workload.trace import generate_workload


def trace_digest(workload) -> str:
    """SHA-256 over every page, publish and request (floats as IEEE bytes)."""
    digest = hashlib.sha256()
    for page in workload.pages:
        digest.update(
            struct.pack(
                "<qqqqqddq",
                page.page_id,
                page.size,
                page.rank,
                page.popularity_class,
                page.request_count,
                page.first_publish,
                page.modification_interval,
                page.version_count,
            )
        )
    for event in workload.publishes:
        digest.update(struct.pack("<dqq", event.time, event.page_id, event.version))
    for record in workload.requests:
        digest.update(
            struct.pack("<dqq", record.time, record.server_id, record.page_id)
        )
    return digest.hexdigest()


PINNED = [
    (
        "news@0.05/seed13",
        news_config(0.05),
        13,
        "03b21a5b74000027c0766cdce0414e98657a9ad548d4ffb9fac18c62b8e5aea8",
    ),
    (
        "alternative@0.1/seed11",
        alternative_config(0.1),
        11,
        "dea2a60ed2907dfec07c131f2fd6aecb5078721ede121ee2c30e433eadb8d319",
    ),
    (
        "news@0.05/seed5/age-from-first-publish",
        dataclasses.replace(news_config(0.05), age_from_latest_version=False),
        5,
        "eb893ccabbf4b4b2cb59ab9006ed1a131cd9e43cb5eaf78216348b61048d5472",
    ),
]


@pytest.mark.parametrize(
    "config,seed,expected",
    [case[1:] for case in PINNED],
    ids=[case[0] for case in PINNED],
)
def test_trace_digest_is_pinned(config, seed, expected):
    workload = generate_workload(config, RandomStreams(seed))
    assert trace_digest(workload) == expected
