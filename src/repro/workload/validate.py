"""Workload validation: check a generated trace against §4's targets.

A reproduction lives or dies by its workload, so this module audits a
generated :class:`~repro.workload.trace.Workload` against the
statistics the paper (and the MSNBC study it derives from) specifies:

* total publish volume ≈ 30 k over 7 days,
* event-weighted modification-interval mix ≈ 5 % / 90 % / 5 %,
* log-normal size location (median ≈ e^µ),
* Zipf-shaped request concentration for the configured α,
* eq. 6 server-pool behaviour (popular pages reach more servers),
* request recency (most requests near a version's publication).

Each check yields a :class:`ValidationCheck`; the report renders as
text (``repro-pubsub trace-stats --validate``).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import List

import numpy as np

from repro.workload.config import DAY, HOUR
from repro.workload.trace import Workload


def validate_churn_spec(spec) -> None:
    """Reject degenerate churn parameters with a clear ``ValueError``.

    Called from ``ChurnSpec.__post_init__`` (duck-typed, so the check
    list stays importable without the churn module), guarding against
    silently-degenerate traces: a negative churn rate or a non-positive
    lease duration would not crash the generator, it would just produce
    a lifecycle stream that means nothing.  Every comparison is written
    so that NaN fails it.
    """
    if not spec.churn_rate >= 0:
        raise ValueError(
            f"churn_rate must be >= 0 (cycles/subscriber/day), got "
            f"{spec.churn_rate}"
        )
    if not spec.lease_duration > 0:
        raise ValueError(
            f"lease_duration must be positive seconds, got {spec.lease_duration}"
        )
    if not 0.0 <= spec.renew_probability <= 1.0:
        raise ValueError(
            f"renew_probability must be in [0, 1], got {spec.renew_probability}"
        )
    if not 0.0 <= spec.confirmation_loss_probability <= 1.0:
        raise ValueError(
            "confirmation_loss_probability must be in [0, 1], got "
            f"{spec.confirmation_loss_probability}"
        )


@dataclass(frozen=True)
class ValidationCheck:
    """One audited statistic."""

    name: str
    measured: float
    low: float
    high: float
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.low <= self.measured <= self.high

    def render(self) -> str:
        status = "ok " if self.ok else "FAIL"
        return (
            f"[{status}] {self.name:<38s} measured={self.measured:>12.3f} "
            f"target=[{self.low:g}, {self.high:g}] {self.note}"
        )


@dataclass
class ValidationReport:
    """All checks for one workload."""

    checks: List[ValidationCheck]

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    def render(self) -> str:
        lines = [check.render() for check in self.checks]
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(f"workload validation: {verdict}")
        return "\n".join(lines)


def validate_workload(workload: Workload) -> ValidationReport:
    """Audit ``workload`` against the §4 target statistics.

    Target windows scale with the configuration, so the same checks
    apply to shrunken test workloads and the full-size trace.
    """
    config = workload.config
    checks: List[ValidationCheck] = []
    scale = config.distinct_pages / 6000.0

    # Publish volume: the paper reports 30 147 for the full size.
    checks.append(
        ValidationCheck(
            name="publish volume (pages)",
            measured=float(workload.publish_count),
            low=18_000 * scale,
            high=45_000 * scale,
            note="(paper: 30147 full-size)",
        )
    )

    # Event-weighted modification-interval mix.
    short_events = 0
    long_events = 0
    total_events = 0
    for page in workload.pages:
        events = page.version_count - 1
        if events <= 0:
            continue
        total_events += events
        if page.modification_interval < HOUR:
            short_events += events
        elif page.modification_interval > DAY:
            long_events += events
    if total_events:
        checks.append(
            ValidationCheck(
                name="modification events with interval <1h",
                measured=short_events / total_events,
                low=0.01,
                high=0.20,
                note="(paper: 5%)",
            )
        )
        checks.append(
            ValidationCheck(
                name="modification events with interval >1d",
                measured=long_events / total_events,
                low=0.005,
                high=0.20,
                note="(paper: 5%)",
            )
        )

    # Log-normal size location.
    sizes = np.asarray([page.size for page in workload.pages], dtype=float)
    checks.append(
        ValidationCheck(
            name="median page size / e^mu",
            measured=float(np.median(sizes) / np.exp(config.size_mu)),
            low=0.6,
            high=1.6,
        )
    )

    # Zipf concentration: share of requests on the top 1% of pages.
    counts = np.sort([page.request_count for page in workload.pages])[::-1]
    if counts.sum():
        top = max(1, len(counts) // 100)
        share = counts[:top].sum() / counts.sum()
        if config.zipf_alpha >= 1.3:
            low, high = 0.35, 0.95
        else:
            low, high = 0.10, 0.75
        checks.append(
            ValidationCheck(
                name=f"top-1% request share (alpha={config.zipf_alpha:g})",
                measured=float(share),
                low=low,
                high=high,
            )
        )

    # Eq. 6: popular pages are requested by more servers.
    servers_by_page = defaultdict(set)
    for page_id, server_id in workload.pair_counts():
        servers_by_page[page_id].add(server_id)
    pages_by_count = sorted(workload.pages, key=lambda p: -p.request_count)
    head = pages_by_count[: max(1, len(pages_by_count) // 50)]
    tail = [p for p in pages_by_count if 0 < p.request_count <= 3]
    if head and tail:
        head_spread = float(
            np.mean([len(servers_by_page[p.page_id]) for p in head])
        )
        tail_spread = float(
            np.mean([len(servers_by_page[p.page_id]) for p in tail])
        )
        checks.append(
            ValidationCheck(
                name="server spread ratio (head/tail pages)",
                measured=head_spread / max(tail_spread, 0.01),
                low=1.5,
                high=float("inf"),
            )
        )

    # Request recency: median age from the current version.
    sampled_ages = []
    stride = max(1, workload.request_count // 4000)
    sample = workload.requests.rows[::stride]
    for when, page_id in zip(sample["time"].tolist(), sample["page_id"].tolist()):
        page = workload.pages[page_id]
        version = workload.version_at(page_id, when)
        version_time = page.first_publish + version * page.modification_interval
        sampled_ages.append(when - version_time)
    if sampled_ages:
        checks.append(
            ValidationCheck(
                name="median request age from version (h)",
                measured=float(np.median(sampled_ages) / HOUR),
                low=0.0,
                high=36.0,
            )
        )

    # Subscription lifecycle (only audited when the churn dimension is
    # attached): every request pair must start the run under a lease,
    # otherwise the lifecycle layer would miscount its first accesses
    # as silent expiries.
    if workload.lifecycle:
        from repro.workload.churn import SUBSCRIBE  # churn imports this module

        pairs = workload.pair_counts().keys()
        rows = workload.lifecycle.rows
        opening = rows[(rows["kind"] == SUBSCRIBE) & (rows["time"] == 0.0)]
        initial = set(zip(opening["page_id"].tolist(), opening["server_id"].tolist()))
        coverage = len(initial & pairs) / max(1, len(pairs))
        checks.append(
            ValidationCheck(
                name="lifecycle initial-lease coverage",
                measured=coverage,
                low=0.999,
                high=1.0,
                note="(every request pair starts leased)",
            )
        )

    return ValidationReport(checks=checks)
