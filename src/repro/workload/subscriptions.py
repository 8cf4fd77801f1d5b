"""Subscription generation from request counts (§4.3, eq. 7).

The simulator only needs the *number* of subscriptions matching page i
at server j.  The paper assumes requests are driven by notifications,
defines the subscription quality ``SQ_{i,j}`` as requests/subscriptions
and inverts it:

    S_{i,j} = P_{i,j} / SQ_{i,j}                            (eq. 7)

where ``SQ_{i,j}`` is drawn around the target quality SQ — uniform in
``[2·SQ − 1, 1]`` when SQ > 0.5 and in ``(0, 2·SQ]`` when SQ ≤ 0.5 — so
SQ = 1 is the ideal case where subscriptions predict requests exactly.

An extension hook for the paper's future-work scenario (§7) is
included: ``notified_fraction < 1`` makes only a sampled subset of
requests visible to the subscription system, modelling users who reach
pages outside the notification service.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Mapping, Tuple, Union

import numpy as np

#: Lower bound for the sampled per-(page, server) quality when SQ <= 0.5,
#: preventing the division in eq. 7 from exploding.
MIN_QUALITY = 0.05


def sample_quality(
    sq: float, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Per-(page, server) subscription qualities around target ``sq``."""
    if not 0.0 < sq <= 1.0:
        raise ValueError(f"SQ must be in (0, 1], got {sq}")
    if sq > 0.5:
        low, high = 2.0 * sq - 1.0, 1.0
    else:
        low, high = MIN_QUALITY, 2.0 * sq
    low = max(low, MIN_QUALITY)
    if high <= low:
        return np.full(count, low)
    return rng.uniform(low, high, size=count)


def build_match_counts(
    request_pairs: Union[
        Iterable[Tuple[int, int]], Mapping[Tuple[int, int], int]
    ],
    sq: float,
    rng: np.random.Generator,
    notified_fraction: float = 1.0,
) -> Dict[int, Dict[int, int]]:
    """Eq. 7: match-count table from (page_id, server_id) request pairs.

    Args:
        request_pairs: one (page_id, server_id) per request in the
            trace, or — equivalently — a mapping from each distinct
            pair to its request count (what
            :meth:`Workload.pair_counts
            <repro.workload.trace.Workload.pair_counts>` hands out,
            since only the counts matter here).  Both forms yield
            bit-identical tables.
        sq: target subscription quality in (0, 1].
        rng: random stream for the per-pair quality draws.
        notified_fraction: fraction of requests assumed to be driven by
            notifications (1.0 reproduces the paper; lower values model
            the §7 future-work scenario where some requests arrive from
            outside the notification service and therefore leave no
            subscription footprint).

    Returns:
        ``table[page_id][server_id] = S_{i,j}`` with zero entries omitted.
    """
    if not 0.0 <= notified_fraction <= 1.0:
        raise ValueError(
            f"notified_fraction must be in [0, 1], got {notified_fraction}"
        )
    requests: Dict[Tuple[int, int], int] = defaultdict(int)
    if isinstance(request_pairs, Mapping):
        for (page_id, server_id), count in request_pairs.items():
            requests[(int(page_id), int(server_id))] += int(count)
    else:
        for page_id, server_id in request_pairs:
            requests[(int(page_id), int(server_id))] += 1

    keys = sorted(requests)
    if notified_fraction < 1.0:
        visible: Dict[Tuple[int, int], int] = {}
        for key in keys:
            seen = int(rng.binomial(requests[key], notified_fraction))
            if seen:
                visible[key] = seen
        requests = visible
        keys = sorted(requests)

    qualities = sample_quality(sq, len(keys), rng)
    table: Dict[int, Dict[int, int]] = defaultdict(dict)
    for (page_id, server_id), quality in zip(keys, qualities):
        count = int(round(requests[(page_id, server_id)] / quality))
        table[page_id][server_id] = max(1, count)
    return dict(table)


def table_statistics(table: Dict[int, Dict[int, int]]) -> Dict[str, float]:
    """Summary statistics of a match-count table (used in reports)."""
    counts = [
        count for per_server in table.values() for count in per_server.values()
    ]
    if not counts:
        return {"pairs": 0, "total": 0, "mean": 0.0, "max": 0}
    array = np.asarray(counts)
    return {
        "pairs": int(array.size),
        "total": int(array.sum()),
        "mean": float(array.mean()),
        "max": int(array.max()),
    }
