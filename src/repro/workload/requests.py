"""Request-time generation (§4.2).

Request times are correlated with page age: a page in popularity class
k is requested at age ``x`` (measured from its first publication) with
probability density proportional to ``(1 + x/1h)^(−γ_k)``, where γ_k is
larger for more popular classes — fresh pages dominate, but popular
pages keep a longer tail (the MSNBC observation).  Sampling uses the
analytic inverse CDF of the truncated power law, vectorized per page.
"""

from __future__ import annotations

import numpy as np

from repro.workload.config import HOUR


def _grouped_ages(
    uniforms: np.ndarray,
    windows: np.ndarray,
    counts: np.ndarray,
    gamma: float,
    time_unit: float,
) -> np.ndarray:
    """Inverse-CDF ages for consecutive groups of uniform draws.

    Group g is the next ``counts[g]`` entries of ``uniforms``, truncated
    at ``windows[g]``.  The per-group constants are computed as scalars
    and repeated: numpy's array pow differs from the scalar pow in the
    last ulp, and the trace is pinned to the scalar value.
    """
    scaled_max = windows / time_unit
    if abs(gamma) < 1e-12:
        ages = uniforms * np.repeat(scaled_max, counts)
    elif abs(gamma - 1.0) < 1e-12:
        # CDF(x) = ln(1+x)/ln(1+A)  =>  x = (1+A)^u − 1
        logs = [np.log1p(scaled) for scaled in scaled_max]
        ages = np.expm1(uniforms * np.repeat(logs, counts))
    else:
        # CDF(x) = (1 − (1+x)^(1−γ)) / (1 − (1+A)^(1−γ))
        exponent = 1.0 - gamma
        tops = [(1.0 + scaled) ** exponent for scaled in scaled_max]
        inner = 1.0 - uniforms * (1.0 - np.repeat(tops, counts))
        ages = inner ** (1.0 / exponent) - 1.0
    return np.clip(ages * time_unit, 0.0, np.repeat(windows, counts))


def sample_ages(
    count: int,
    max_age: float,
    gamma: float,
    rng: np.random.Generator,
    time_unit: float = HOUR,
) -> np.ndarray:
    """Draw ``count`` ages in [0, max_age] with density ∝ (1+x/u)^(−γ).

    Uses inverse-CDF sampling of the truncated distribution; the γ = 1
    logarithmic case is handled separately.  γ = 0 degenerates to
    uniform ages (no recency bias).
    """
    if max_age < 0:
        raise ValueError(f"max_age must be >= 0, got {max_age}")
    if count == 0:
        return np.zeros(0)
    if max_age == 0.0:
        return np.zeros(count)
    return _grouped_ages(
        rng.uniform(size=count), np.array([max_age]), [count], gamma, time_unit
    )


def request_times_for_page(
    count: int,
    first_publish: float,
    horizon: float,
    gamma: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sorted request times for one page.

    Requests can only happen after the page first exists; their ages
    follow the class's power-law decay up to the end of the horizon.
    """
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
    """Sorted request times measured from *version* publications.

    An updating news story keeps drawing traffic — each request picks a
    version and its age decays from that version's publication time
    (truncated at the horizon).  With ``story_decay`` the version is
    sampled with weight ``(1 + (t_v − t_0)/1h)^(−γ)``: interest in the
    *story* still fades with the page's overall age even while updates
    keep arriving, so early versions draw most of the traffic.  For
    never-modified pages this reduces to
    :func:`request_times_for_page`.
    """
    version_times = np.asarray(version_times, dtype=np.float64)
    live = version_times[version_times < horizon]
    if count == 0 or len(live) == 0:
        return np.zeros(0)
    if story_decay and len(live) > 1:
        story_age = (live - live[0]) / HOUR
        if story_decay_mode == "exponential":
            # Interest in a news story eventually dies: halve per
            # half-life even while updates keep arriving.
            weights = np.exp2(-story_age / story_halflife_hours)
        else:
            weights = (1.0 + story_age) ** (-max(story_decay_exponent, 0.0))
        weights /= weights.sum()
        picks = rng.choice(len(live), size=count, p=weights)
    else:
        picks = rng.integers(len(live), size=count)
    per_version = np.bincount(picks, minlength=len(live))
    used = per_version.nonzero()[0]
    counts = per_version[used]
    starts = live[used]
    # One draw for the whole page: the same doubles, in the same order,
    # as one draw per version in version order.
    ages = _grouped_ages(
        rng.uniform(size=count), horizon - starts, counts, gamma, HOUR
    )
    times = np.repeat(starts, counts) + ages
    times.sort()
    return times
