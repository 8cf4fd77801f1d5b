"""Reference (loop) implementations of the per-page workload interior.

These are the bodies ``repro.workload.servers`` / ``repro.workload.requests``
had before they were vectorised, kept verbatim as the oracle the
columnar code is compared against (``test_reference_oracle.py``): same
values *and* same RNG consumption, so the two leave a generator in the
same state.  Not used by the package.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np

from repro.workload.churn import (
    LIFECYCLE_KINDS,
    MAX_EVENTS_PER_SUBSCRIBER,
    ChurnSpec,
    LifecycleRecord,
)
from repro.workload.config import DAY, HOUR
from repro.workload.servers import pool_size


def sample_ages(
    count: int,
    max_age: float,
    gamma: float,
    rng: np.random.Generator,
    time_unit: float = HOUR,
) -> np.ndarray:
    if max_age < 0:
        raise ValueError(f"max_age must be >= 0, got {max_age}")
    if count == 0:
        return np.zeros(0)
    if max_age == 0.0:
        return np.zeros(count)
    scaled_max = max_age / time_unit
    uniforms = rng.uniform(size=count)
    if abs(gamma) < 1e-12:
        ages = uniforms * scaled_max
    elif abs(gamma - 1.0) < 1e-12:
        ages = np.expm1(uniforms * np.log1p(scaled_max))
    else:
        exponent = 1.0 - gamma
        top = (1.0 + scaled_max) ** exponent
        inner = 1.0 - uniforms * (1.0 - top)
        ages = inner ** (1.0 / exponent) - 1.0
    return np.clip(ages * time_unit, 0.0, max_age)


def request_times_for_page(
    count: int,
    first_publish: float,
    horizon: float,
    gamma: float,
    rng: np.random.Generator,
) -> np.ndarray:
    window = horizon - first_publish
    if window <= 0 or count == 0:
        return np.zeros(0)
    ages = sample_ages(count, window, gamma, rng)
    times = first_publish + ages
    times.sort()
    return times


def request_times_for_versions(
    count: int,
    version_times: np.ndarray,
    horizon: float,
    gamma: float,
    rng: np.random.Generator,
    story_decay: bool = True,
    story_decay_mode: str = "exponential",
    story_decay_exponent: float = 1.0,
    story_halflife_hours: float = 24.0,
) -> np.ndarray:
    version_times = np.asarray(version_times, dtype=np.float64)
    live = version_times[version_times < horizon]
    if count == 0 or len(live) == 0:
        return np.zeros(0)
    if story_decay and len(live) > 1:
        story_age = (live - live[0]) / HOUR
        if story_decay_mode == "exponential":
            weights = np.exp2(-story_age / story_halflife_hours)
        else:
            weights = (1.0 + story_age) ** (-max(story_decay_exponent, 0.0))
        weights /= weights.sum()
        picks = rng.choice(len(live), size=count, p=weights)
    else:
        picks = rng.integers(len(live), size=count)
    per_version = np.bincount(picks, minlength=len(live))
    chunks = []
    for index, version_count in enumerate(per_version):
        if version_count == 0:
            continue
        window = horizon - live[index]
        ages = sample_ages(int(version_count), window, gamma, rng)
        chunks.append(live[index] + ages)
    times = np.concatenate(chunks)
    times.sort()
    return times


def daily_pools(
    pool: np.ndarray,
    day_count: int,
    server_count: int,
    overlap: float,
    rng: np.random.Generator,
) -> List[np.ndarray]:
    pools = [pool]
    size = len(pool)
    for _ in range(1, day_count):
        current = pools[-1]
        keep_count = int(round(overlap * size))
        keep_count = min(keep_count, size)
        outside = np.setdiff1d(np.arange(server_count), current, assume_unique=False)
        swap_count = min(size - keep_count, len(outside))
        kept = rng.choice(current, size=size - swap_count, replace=False)
        if swap_count:
            fresh = rng.choice(outside, size=swap_count, replace=False)
            pools.append(np.concatenate([kept, fresh]))
        else:
            pools.append(current)
    return pools


def assign_servers(
    request_times: np.ndarray,
    first_publish: float,
    popularity: float,
    max_popularity: float,
    server_count: int,
    overlap: float,
    rng: np.random.Generator,
    exponent: float = 0.5,
) -> np.ndarray:
    if len(request_times) == 0:
        return np.zeros(0, dtype=np.int64)
    size = pool_size(popularity, max_popularity, server_count, exponent)
    day_index = ((request_times - first_publish) // DAY).astype(np.int64)
    day_index = np.maximum(day_index, 0)
    day_count = int(day_index.max()) + 1
    first_pool = rng.choice(server_count, size=size, replace=False)
    pools = daily_pools(first_pool, day_count, server_count, overlap, rng)
    assignments = np.empty(len(request_times), dtype=np.int64)
    for position, day in enumerate(day_index):
        pool = pools[day]
        assignments[position] = pool[int(rng.integers(len(pool)))]
    return assignments


# -- churn: the record-based generator, as it was before the lifecycle
#    stream became a table (one ``LifecycleRecord`` per event, sorted
#    through a Python key function).  ``test_churn_reference.py`` holds
#    the columnar generator equal to it record for record.

_KIND_ORDER = {kind: index for index, kind in enumerate(LIFECYCLE_KINDS)}


def _sort_key(record: LifecycleRecord) -> Tuple[float, int, int, int]:
    return (
        record.time,
        record.server_id,
        record.page_id,
        _KIND_ORDER.get(record.kind, len(LIFECYCLE_KINDS)),
    )


def generate_churn(
    pairs: Iterable[Tuple[int, int]],
    horizon: float,
    spec: ChurnSpec,
    rng: np.random.Generator,
) -> List[LifecycleRecord]:
    """Generate the lifecycle event stream for a set of subscribers.

    Args:
        pairs: the ``(page_id, server_id)`` subscription cells (one
            lease timeline each); deduplicated and sorted internally so
            generation is independent of input order.
        horizon: simulation horizon in seconds.
        spec: churn parameters.
        rng: the dedicated ``"workload.churn"`` stream.

    Returns:
        Lifecycle events sorted by ``(time, server_id, page_id, kind)``
        — the exact order the replay processes them in.
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    events: List[LifecycleRecord] = []
    unsubscribe_mean = (
        DAY / spec.churn_rate if spec.churn_rate > 0.0 else float("inf")
    )

    def draw_lease() -> float:
        return max(spec.lease_min, float(rng.exponential(spec.lease_duration)))

    for page_id, server_id in sorted(set((int(p), int(s)) for p, s in pairs)):
        emitted = 0
        now = 0.0
        lease = draw_lease()
        events.append(
            LifecycleRecord(
                time=now,
                server_id=server_id,
                page_id=page_id,
                kind="subscribe",
                lease=lease,
            )
        )
        emitted += 1
        expiry = now + lease
        while emitted < MAX_EVENTS_PER_SUBSCRIBER:
            if unsubscribe_mean != float("inf"):
                next_unsub = now + float(rng.exponential(unsubscribe_mean))
            else:
                next_unsub = float("inf")
            if next_unsub < expiry and next_unsub < horizon:
                # Explicit churn: the subscriber walks away mid-lease...
                events.append(
                    LifecycleRecord(
                        time=next_unsub,
                        server_id=server_id,
                        page_id=page_id,
                        kind="unsubscribe",
                    )
                )
                emitted += 1
                comeback = next_unsub + float(
                    rng.exponential(spec.resubscribe_delay)
                )
                if comeback >= horizon:
                    break
                # ... and comes back with a fresh lease later.
                lease = draw_lease()
                events.append(
                    LifecycleRecord(
                        time=comeback,
                        server_id=server_id,
                        page_id=page_id,
                        kind="subscribe",
                        lease=lease,
                    )
                )
                emitted += 1
                now = comeback
                expiry = now + lease
                continue
            if expiry >= horizon:
                break
            if float(rng.random()) < spec.renew_probability:
                # Renew shortly before the wire; the renewal's lease
                # clock starts at the renewal, so expiry always grows
                # (lease_min bounds the lead from below).
                renew_at = max(now, expiry - 0.1 * min(lease, spec.lease_min))
                lease = draw_lease()
                events.append(
                    LifecycleRecord(
                        time=renew_at,
                        server_id=server_id,
                        page_id=page_id,
                        kind="renew",
                        lease=lease,
                    )
                )
                emitted += 1
                now = renew_at
                expiry = renew_at + lease
            else:
                # Silent lapse: no event at expiry — the subscriber
                # simply stops being covered and re-subscribes later.
                comeback = expiry + float(rng.exponential(spec.resubscribe_delay))
                if comeback >= horizon:
                    break
                lease = draw_lease()
                events.append(
                    LifecycleRecord(
                        time=comeback,
                        server_id=server_id,
                        page_id=page_id,
                        kind="subscribe",
                        lease=lease,
                    )
                )
                emitted += 1
                now = comeback
                expiry = comeback + lease
    events.sort(key=_sort_key)
    return events
