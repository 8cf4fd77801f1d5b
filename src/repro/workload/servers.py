"""Splitting requests across proxy servers (§4.2, eq. 6).

Frequently referenced pages are accessed by more organizations, so the
maximum number of servers requesting page i in one day is

    S_i = ceil(server_count · (P_i / P_max)^0.5)            (eq. 6)

where P_i is the page's popularity (its request count here).  For the
first day a page is requested, S_i servers are drawn uniformly as its
candidate pool; on each following day 40 % of the pool is replaced by
servers currently outside it (60 % overlap).  Every request on a day is
assigned uniformly to that day's pool.
"""

from __future__ import annotations

import numpy as np

from repro.workload.config import DAY


def pool_size(
    popularity: float, max_popularity: float, server_count: int, exponent: float = 0.5
) -> int:
    """Eq. 6: per-day candidate pool size for a page (at least 1)."""
    if max_popularity <= 0:
        return 1
    size = server_count * (popularity / max_popularity) ** exponent
    return max(1, min(server_count, int(np.ceil(size))))


def daily_pools(
    pool: np.ndarray,
    day_count: int,
    server_count: int,
    overlap: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Evolve a page's candidate pool over ``day_count`` days.

    Returns a ``(day_count, |pool|)`` array, one row per day.  Day d+1
    keeps ``round(overlap·|pool|)`` members of day d's pool and refills
    with servers outside it.  When the pool already covers all servers
    there is nothing to swap in, so the pool persists.
    """
    size = len(pool)
    pools = np.empty((day_count, size), dtype=np.int64)
    pools[0] = pool
    keep_count = min(int(round(overlap * size)), size)
    for day in range(1, day_count):
        current = pools[day - 1]
        absent = np.ones(server_count, dtype=bool)
        absent[current] = False
        outside = absent.nonzero()[0]
        swap_count = min(size - keep_count, len(outside))
        # Drawn even when nothing is swapped (the pool covers every
        # server): skipping it would shift every later draw of the stream.
        kept = rng.choice(current, size=size - swap_count, replace=False)
        if swap_count:
            fresh = rng.choice(outside, size=swap_count, replace=False)
            pools[day] = np.concatenate([kept, fresh])
        else:
            pools[day] = current
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
    """Server id for every request of one page.

    Days are counted from the page's first publication (a page's "first
    day requested" in the paper), so the pool rotation tracks the
    page's own lifetime rather than the global clock.
    """
    if len(request_times) == 0:
        return np.zeros(0, dtype=np.int64)
    size = pool_size(popularity, max_popularity, server_count, exponent)
    day_index = ((request_times - first_publish) // DAY).astype(np.int64)
    day_index = np.maximum(day_index, 0)
    day_count = int(day_index.max()) + 1
    first_pool = rng.choice(server_count, size=size, replace=False)
    pools = daily_pools(first_pool, day_count, server_count, overlap, rng)
    # One bounded draw per request, in time order, into that day's pool.
    draws = rng.integers(size, size=len(request_times))
    return pools[day_index, draws]
