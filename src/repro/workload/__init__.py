"""Synthetic publish/subscribe workload generation (§4 of the paper).

No real publish/subscribe traces exist (a key difficulty the paper
highlights), so the workload is synthesized from published observations
of MSNBC, one of the busiest news sites of the time (Padmanabhan & Qiu,
SIGCOMM 2000):

* ~30 000 pages published over 7 days, of which ~24 000 are modified
  versions of 2 400 out of 6 000 distinct pages
  (:mod:`repro.workload.publishing`);
* log-normal page sizes with µ = 9.357, σ = 1.318
  (:mod:`repro.workload.sizes`);
* Zipf popularity with α = 1.5 (NEWS) or α = 1.0 (ALTERNATIVE)
  (:mod:`repro.workload.popularity`);
* request times inversely correlated with page age, stronger for more
  popular pages, with four popularity classes whose aggregate request
  rates decay ~10× class-to-class (:mod:`repro.workload.requests`);
* requests split across 100 proxy servers through per-day candidate
  pools with 60 % day-to-day overlap, pool size ∝ √popularity
  (:mod:`repro.workload.servers`, eq. 6);
* subscription counts derived from request counts and the subscription
  quality SQ (:mod:`repro.workload.subscriptions`, eq. 7).

:func:`~repro.workload.trace.generate_workload` runs the full pipeline;
:mod:`repro.workload.presets` provides the paper's NEWS and ALTERNATIVE
configurations, with a ``scale`` knob for laptop-sized runs.
"""

from typing import TYPE_CHECKING

from repro import lazy_exports

if TYPE_CHECKING:
    from repro.workload.config import WorkloadConfig
    from repro.workload.trace import Workload, PageSpec, PublishRecord, RequestRecord, generate_workload
    from repro.workload.churn import ChurnSpec, LifecycleRecord, generate_churn, churn_statistics
    from repro.workload.subscriptions import build_match_counts
    from repro.workload.presets import news_config, alternative_config
    from repro.workload.validate import ValidationReport, validate_workload, validate_churn_spec

__all__ = [
    "WorkloadConfig",
    "Workload",
    "PageSpec",
    "PublishRecord",
    "RequestRecord",
    "generate_workload",
    "ChurnSpec",
    "LifecycleRecord",
    "generate_churn",
    "churn_statistics",
    "build_match_counts",
    "news_config",
    "alternative_config",
    "ValidationReport",
    "validate_workload",
    "validate_churn_spec",
]

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "config": ("WorkloadConfig",),
    "trace": ("Workload", "PageSpec", "PublishRecord", "RequestRecord", "generate_workload"),
    "churn": ("ChurnSpec", "LifecycleRecord", "generate_churn", "churn_statistics"),
    "subscriptions": ("build_match_counts",),
    "presets": ("news_config", "alternative_config"),
    "validate": ("ValidationReport", "validate_workload", "validate_churn_spec"),
})
