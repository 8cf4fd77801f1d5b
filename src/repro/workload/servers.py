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
    times: np.ndarray,
    counts: np.ndarray,
    first_publish: np.ndarray,
    sizes: np.ndarray,
    server_count: int,
    overlap: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Server id for every request of a block of pages.

    Page i owns the next ``counts[i] >= 1`` entries of ``times``, sorted;
    its pool holds ``sizes[i]`` servers (:func:`pool_size`).  Days are
    counted from the page's first publication (a page's "first day
    requested" in the paper), so the pool rotation tracks the page's own
    lifetime rather than the global clock.  The draws stay per page:
    the first day's pool, :func:`daily_pools`, then one bounded draw per
    request, in time order, into that day's pool.
    """
    counts = np.asarray(counts, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    if len(times) == 0:
        return np.zeros(0, dtype=np.int64)
    first_row = np.cumsum(counts) - counts
    day_index = times - np.repeat(first_publish, counts)
    day_index //= DAY
    day_index = np.maximum(day_index.astype(np.int64), 0)
    day_counts = np.maximum.reduceat(day_index, first_row) + 1
    pools, draws = [], np.empty(len(times), dtype=np.int64)
    for row, count, size, day_count in zip(
        first_row.tolist(), counts.tolist(), sizes.tolist(), day_counts.tolist()
    ):
        first_pool = rng.choice(server_count, size=size, replace=False)
        pools.append(daily_pools(first_pool, day_count, server_count, overlap, rng))
        draws[row : row + count] = rng.integers(size, size=count)
    # Row r reads cell (day, draw) of its page's (days × size) pool table.
    cells = day_counts * sizes
    where = day_index
    where *= np.repeat(sizes, counts)
    where += np.repeat(np.cumsum(cells) - cells, counts)
    where += draws
    del draws
    return np.concatenate([pool.ravel() for pool in pools])[where]
