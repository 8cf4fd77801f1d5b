"""Simulation configuration.

Bundles every §5.1 experiment knob: the strategy under test, the cache
capacity fraction, the subscription quality and the pushing scheme.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.faults.spec import ChaosSpec, OverloadSpec

#: Response-time model: latency of a local cache hit (seconds).  The
#: paper argues hit-ratio gains translate to response-time gains; this
#: simple model makes that translation measurable.
HIT_LATENCY = 0.01
#: Additional latency per network hop on a miss (seconds); a miss costs
#: ``HIT_LATENCY + PER_HOP_LATENCY * fetch_cost(proxy)``.
PER_HOP_LATENCY = 0.04


class PushingScheme(enum.Enum):
    """How content moves at push time (§5.6).

    ALWAYS: the publisher transfers every matched page to the proxy;
    bandwidth is wasted when the proxy declines to store it.

    WHEN_NECESSARY: the publisher first sends only meta-information;
    the proxy evaluates placement and content is transferred only when
    the answer is "will store it in cache".
    """

    ALWAYS = "always"
    WHEN_NECESSARY = "when-necessary"


@dataclass(frozen=True)
class SimulationConfig:
    """Parameters of one simulation run."""

    #: Strategy registry name ("gdstar", "sub", "sg2", "dc-lap", ...).
    strategy: str = "gdstar"
    #: Extra strategy kwargs (beta, push_fraction, bounds, ...).
    strategy_options: Dict[str, Any] = field(default_factory=dict)
    #: Cache capacity as a fraction of each server's unique requested
    #: bytes (the paper tests 0.01, 0.05 and 0.10).
    capacity_fraction: float = 0.05
    #: Target subscription quality SQ in (0, 1]; 1.0 is the ideal case.
    subscription_quality: float = 1.0
    #: Pushing scheme (§5.6); irrelevant for hit ratio, only traffic.
    pushing: PushingScheme = PushingScheme.WHEN_NECESSARY
    #: Root seed for subscription-table noise and the topology.
    seed: int = 7
    #: Fraction of requests assumed notification-driven (§7 extension).
    notified_fraction: float = 1.0
    #: Run the simulator's internal consistency checks every N events
    #: (0 disables; tests enable it).
    invariant_check_interval: int = 0
    #: Fault-injection parameters.  ``None`` (the default) disables the
    #: faults layer entirely; a :class:`~repro.faults.spec.ChaosSpec`
    #: whose rates are all zero yields an empty schedule, whose metrics
    #: are bit-identical to a run without the layer.
    chaos: Optional[ChaosSpec] = None
    #: Overload/backpressure parameters.  ``None`` (the default) keeps
    #: proxy and origin capacity infinite, as the paper assumes; a
    #: :class:`~repro.faults.spec.OverloadSpec` with every knob at its
    #: default is equally inert (``enabled`` is false) and bit-identical
    #: to a run without the layer.
    overload: Optional[OverloadSpec] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.capacity_fraction <= 1.0:
            raise ValueError(
                f"capacity_fraction must be in (0, 1], got {self.capacity_fraction}"
            )
        if not 0.0 < self.subscription_quality <= 1.0:
            raise ValueError(
                f"subscription_quality must be in (0, 1], got "
                f"{self.subscription_quality}"
            )
        if not 0.0 <= self.notified_fraction <= 1.0:
            raise ValueError(
                f"notified_fraction must be in [0, 1], got {self.notified_fraction}"
            )
        if not self.invariant_check_interval >= 0:
            raise ValueError("invariant_check_interval must be >= 0")
