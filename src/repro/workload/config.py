"""Workload configuration.

All §4 parameters in one dataclass, with the paper's values as
defaults.  :meth:`WorkloadConfig.scaled` shrinks a configuration
proportionally for tests and laptop benchmarks while preserving the
distributions that drive the results (Zipf α, size distribution,
modification-interval mix, pool overlap).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Tuple

#: Seconds per hour/day, used throughout the workload generator.
HOUR = 3600.0
DAY = 24 * HOUR


@dataclass(frozen=True)
class WorkloadConfig:
    """Parameters of the §4 news-delivery workload.

    Defaults reproduce the paper's full-size NEWS trace.
    """

    #: Simulation horizon in seconds (7 days in the paper).
    horizon: float = 7 * DAY
    #: Number of distinct pages (6 000 in the paper).
    distinct_pages: int = 6000
    #: How many distinct pages receive modified versions (2 400).
    modified_pages: int = 2400
    #: Total requests across all proxies over the horizon (~195 000,
    #: i.e. 1/1000 of MSNBC's ~25 M/day scaled to 100 proxies).
    total_requests: int = 195_000
    #: Number of proxy servers (100 in the paper).
    server_count: int = 100
    #: Zipf homogeneity α (1.5 for NEWS, 1.0 for ALTERNATIVE).
    zipf_alpha: float = 1.5

    # -- page sizes (log-normal, Barford & Crovella) ------------------------
    size_mu: float = 9.357
    size_sigma: float = 1.318
    #: Floor/ceiling on page sizes in bytes (keeps the tail sane).
    min_page_size: int = 128
    max_page_size: int = 8 * 1024 * 1024

    # -- modification intervals (§4.1 step-wise distribution) --------------
    #: Fraction of modification intervals below one hour.
    short_interval_fraction: float = 0.05
    #: Fraction of modification intervals above one day.
    long_interval_fraction: float = 0.05
    #: Bounds of the short/long steps (seconds).
    min_interval: float = 10 * 60.0
    max_interval: float = 3.5 * DAY

    # -- request dynamics (§4.2) ----------------------------------------------
    #: Number of popularity classes.
    class_count: int = 4
    #: Aggregate request-rate decay from one class to the next (~10x).
    class_rate_decay: float = 10.0
    #: Age-decay exponents per class, most popular first.  More popular
    #: pages have a stronger negative age correlation (§4.2).
    age_exponents: Tuple[float, ...] = (2.0, 1.5, 1.0, 0.5)

    # -- popularity/update coupling (§4.1; Padmanabhan & Qiu) ---------------
    #: Popular news pages are the frequently updated ones (the MSNBC
    #: study the workload is derived from observes that frequently
    #: accessed pages change often, and the paper motivates content
    #: distribution with "popular objects with high update
    #: frequencies").  Modified pages are sampled with probability
    #: ∝ (request_count + 1)^bias; 0.0 recovers the uniform choice.
    modified_popularity_bias: float = 1.0
    #: When True, the shortest modification intervals go to the most
    #: popular modified pages (rank correlation 1); when False the
    #: intervals are assigned at random.
    couple_intervals_to_popularity: bool = True
    #: When True, request ages are measured from a sampled version
    #: publication time instead of the first publication, so an
    #: updating story keeps drawing traffic over its whole life.
    age_from_latest_version: bool = True
    #: When True, the sampled version is weighted by the page's overall
    #: age (interest in the story fades even while updates continue);
    #: when False versions draw requests uniformly.
    story_decay: bool = True
    #: Story-fade shape: "exponential" (interest in a story dies off
    #: with half-life ``story_halflife_hours`` — news goes stale) or
    #: "power" (heavy-tailed fade with ``story_decay_exponent``).
    story_decay_mode: str = "exponential"
    #: Exponent of the power-law story fade ``(1 + story_age/1h)^(−e)``.
    story_decay_exponent: float = 1.0
    #: Half-life (hours) of the exponential story fade.
    story_halflife_hours: float = 24.0

    # -- server split (§4.2, eq. 6) ----------------------------------------------
    #: Exponent of the popularity->pool-size law (0.5 in eq. 6).
    pool_exponent: float = 0.5
    #: Day-to-day overlap of a page's server pool (60 % in the paper).
    pool_overlap: float = 0.6

    def __post_init__(self) -> None:
        # ``not low < x < inf`` fails NaN as well as every value out of range.
        for name, low in (
            ("horizon", 0.0),
            ("zipf_alpha", 0.0),
            ("class_rate_decay", 1.0),
            ("story_halflife_hours", 0.0),
        ):
            value = getattr(self, name)
            if not low < value < math.inf:
                raise ValueError(f"{name} must be finite and > {low}, got {value}")
        for name in (
            "story_decay_exponent",
            "modified_popularity_bias",
            "pool_exponent",
            "short_interval_fraction",
            "long_interval_fraction",
        ):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if self.distinct_pages < 1:
            raise ValueError("distinct_pages must be >= 1")
        if not 0 <= self.modified_pages <= self.distinct_pages:
            raise ValueError(
                f"modified_pages must be in [0, distinct_pages], got "
                f"{self.modified_pages}/{self.distinct_pages}"
            )
        if self.server_count < 1:
            raise ValueError("server_count must be >= 1")
        if self.total_requests < 0:
            raise ValueError("total_requests must be >= 0")
        if len(self.age_exponents) != self.class_count:
            raise ValueError(
                f"need one age exponent per class: "
                f"{len(self.age_exponents)} != {self.class_count}"
            )
        if not all(math.isfinite(gamma) for gamma in self.age_exponents):
            raise ValueError(f"age_exponents must be finite, got {self.age_exponents}")
        if not 0.0 <= self.pool_overlap <= 1.0:
            raise ValueError(f"pool_overlap must be in [0, 1], got {self.pool_overlap}")
        if self.story_decay_mode not in ("exponential", "power"):
            raise ValueError(
                f"story_decay_mode must be 'exponential' or 'power', got "
                f"{self.story_decay_mode!r}"
            )
        if not 0.0 < self.min_interval < HOUR:
            raise ValueError(f"min_interval must be in (0, 1 h), got {self.min_interval}")
        if not DAY < self.max_interval < math.inf:
            raise ValueError(
                f"max_interval must be finite and above one day, got {self.max_interval}"
            )
        fraction_sum = self.short_interval_fraction + self.long_interval_fraction
        if not fraction_sum < 1.0:
            raise ValueError(
                "short + long interval fractions must leave room for the "
                f"middle step, got {fraction_sum}"
            )

    def scaled(self, scale: float) -> "WorkloadConfig":
        """A proportionally smaller (or larger) configuration.

        Pages, requests and servers scale together so per-server and
        per-page request densities — which drive cache behaviour —
        stay comparable to the full-size workload.
        """
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        return dataclasses.replace(
            self,
            distinct_pages=max(10, int(round(self.distinct_pages * scale))),
            modified_pages=max(2, int(round(self.modified_pages * scale))),
            total_requests=max(100, int(round(self.total_requests * scale))),
            server_count=max(2, int(round(self.server_count * scale))),
        )
