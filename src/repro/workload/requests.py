"""Request-time generation (§4.2).

Request times are correlated with page age: a page in popularity class
k is requested at age ``x`` (measured from the publication of the
version the request reads) with probability density proportional to
``(1 + x/1h)^(−γ_k)``, where γ_k is larger for more popular classes —
fresh pages dominate, but popular pages keep a longer tail (the MSNBC
observation).  Sampling uses the analytic inverse CDF of the truncated
power law, vectorized over a block of pages.
"""

from __future__ import annotations

import numpy as np

from repro.workload.config import HOUR


def _version_weights(
    versions: np.ndarray, mode: str, exponent: float, halflife_hours: float
) -> np.ndarray:
    """Story-decay pick weights, one row per page of ``versions`` (pages × L).

    Early versions draw most of the traffic: interest in the story fades
    with its overall age.
    """
    story_age = (versions - versions[:, :1]) / HOUR
    if mode == "exponential":
        # Interest in a news story eventually dies: halve per half-life
        # even while updates keep arriving.
        return np.exp2(-story_age / halflife_hours)
    return (1.0 + story_age) ** (-exponent)


def _ages(
    uniforms: np.ndarray, scaled: np.ndarray, version: np.ndarray, gamma: float
) -> np.ndarray:
    """Inverse-CDF ages, in hours, of rows reading versions ``version``.

    ``scaled`` is every version's window in hours.  The per-version
    constants are computed as scalars: numpy's array pow differs from
    the scalar pow in the last ulp, and the trace is pinned to the
    scalar value.  The outer pow takes one scalar exponent, so numpy's
    ``x**-1`` / ``x**2`` fast paths apply as they always did.
    """
    if abs(gamma) < 1e-12:
        return uniforms * scaled[version]
    if abs(gamma - 1.0) < 1e-12:
        # CDF(x) = ln(1+x)/ln(1+A)  =>  x = (1+A)^u − 1
        return np.expm1(uniforms * np.log1p(scaled)[version])
    # CDF(x) = (1 − (1+x)^(1−γ)) / (1 − (1+A)^(1−γ))
    exponent = 1.0 - gamma
    read = np.zeros(len(scaled), dtype=bool)
    read[version] = True
    tops = np.empty(len(scaled))
    tops[read] = [(1.0 + window) ** exponent for window in scaled[read]]
    inner = 1.0 - tops[version]
    inner *= uniforms
    np.subtract(1.0, inner, out=inner)
    ages = inner ** (1.0 / exponent)
    ages -= 1.0
    return ages


def request_times(
    counts: np.ndarray,
    version_counts: np.ndarray,
    versions: np.ndarray,
    gammas: np.ndarray,
    horizon: float,
    rng: np.random.Generator,
    story_decay: bool = True,
    story_decay_mode: str = "exponential",
    story_decay_exponent: float = 1.0,
    story_halflife_hours: float = 24.0,
) -> np.ndarray:
    """Request times of a block of pages: page by page, each page's sorted.

    Page i has ``counts[i]`` requests, age exponent ``gammas[i]`` and
    the next ``version_counts[i] >= 1`` entries of ``versions`` (its
    publications before ``horizon``, in time order).  Each request picks
    a version — with ``story_decay`` by weight (:func:`_version_weights`),
    else uniformly — and its age decays from that version's publication
    time, truncated at the horizon.

    The draws are those of one page at a time, in order: a pick by
    weight ``w`` is ``rng.choice(L, size=count, p=p)``, ``p = w / sum(w)``,
    which is ``cdf.searchsorted(rng.random(count), side="right")`` with
    ``cdf = cumsum(p) / cumsum(p)[-1]``; a single version draws nothing;
    then ``count`` age doubles, the i-th going to the i-th request in
    version order.  So the block is one ``rng.random`` run of doubles,
    split only where a uniform pick among several versions
    (``rng.integers(L, size=count)``) is drawn in place.
    """
    counts = np.asarray(counts, dtype=np.int64)
    version_counts = np.asarray(version_counts, dtype=np.int64)
    versions = np.asarray(versions, dtype=np.float64)
    gammas = np.asarray(gammas, dtype=np.float64)
    if not (versions <= horizon).all():
        raise ValueError("a version published after the horizon has no requests")
    first_version = np.cumsum(version_counts) - version_counts
    first_row = np.cumsum(counts) - counts
    by_weight = (version_counts > 1) & story_decay
    in_place = np.flatnonzero((version_counts > 1) & (not story_decay)).tolist()
    doubles = counts * (1 + by_weight)
    first_double = np.cumsum(doubles) - doubles

    runs, drawn, integer_picks = [], 0, {}
    for page in in_place:
        runs.append(rng.random(int(first_double[page]) - drawn))
        drawn = int(first_double[page])
        integer_picks[page] = rng.integers(
            int(version_counts[page]), size=int(counts[page])
        )
    runs.append(rng.random(int(doubles.sum()) - drawn))
    uniforms = runs[0] if len(runs) == 1 else np.concatenate(runs)
    del runs
    is_age = np.ones(len(uniforms), dtype=bool)

    # The version each row reads, as an index into ``versions``.
    version = np.repeat(first_version, counts)
    for page, picks in integer_picks.items():
        version[first_row[page] : first_row[page] + counts[page]] += picks
    for length in sorted(set(version_counts[by_weight].tolist())):
        group = np.flatnonzero(by_weight & (version_counts == length))
        weights = _version_weights(
            versions[first_version[group, None] + np.arange(length)],
            story_decay_mode,
            story_decay_exponent,
            story_halflife_hours,
        )
        if not ((weights >= 0.0) & (weights < np.inf)).all():
            raise ValueError(
                f"story weights must be finite and non-negative: mode "
                f"{story_decay_mode!r}, exponent {story_decay_exponent}, "
                f"half-life {story_halflife_hours} h"
            )
        # Row-wise, exactly what ``rng.choice`` does to each page's p.
        weights /= weights.sum(axis=1, keepdims=True)
        cdf = weights.cumsum(axis=1)
        cdf /= cdf[:, -1:]
        for row, double, count, page_cdf in zip(
            first_row[group].tolist(),
            first_double[group].tolist(),
            counts[group].tolist(),
            cdf,
        ):
            version[row : row + count] += page_cdf.searchsorted(
                uniforms[double : double + count], side="right"
            )
            is_age[double : double + count] = False
    # Each page's rows in version order: its version indices sort within
    # its own range, so one sort of the block sorts every page's.
    version.sort()

    # Rows are written in place, from age uniforms to ages to times.
    times = uniforms[is_age]
    del uniforms, is_age
    windows = horizon - versions
    scaled = windows / HOUR
    for gamma in set(gammas.tolist()):
        rows = np.repeat(gammas == gamma, counts)
        times[rows] = _ages(times[rows], scaled, version[rows], gamma)
    times *= HOUR
    np.clip(times, 0.0, windows[version], out=times)
    times += versions[version]
    for row, count in zip(first_row.tolist(), counts.tolist()):
        times[row : row + count].sort()
    return times
