"""Simulation configuration.

Bundles every §5.1 experiment knob: the strategy under test, the cache
capacity fraction, the subscription quality, the pushing scheme and the
topology parameters.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.faults.spec import ChaosSpec, OverloadSpec


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
    #: Topology model for fetch costs ("waxman" or "barabasi").
    topology_model: str = "waxman"
    #: Extra transit-only router nodes in the topology.
    topology_extra_nodes: int = 20
    #: Fraction of requests assumed notification-driven (§7 extension).
    notified_fraction: float = 1.0
    #: Run the simulator's internal consistency checks every N events
    #: (0 disables; tests enable it).
    invariant_check_interval: int = 0
    #: Response-time model: latency of a local cache hit (seconds).
    #: The paper argues hit-ratio gains translate to response-time
    #: gains; this simple model makes that translation measurable.
    hit_latency: float = 0.01
    #: Additional latency per network hop on a miss (seconds); a miss
    #: costs ``hit_latency + per_hop_latency * fetch_cost(proxy)``.
    per_hop_latency: float = 0.04
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
    #: Shard the proxies across this many ``multiprocessing`` workers
    #: (see :mod:`repro.system.sharding`).  1 (the default) runs the
    #: classic single-process simulation; higher values partition the
    #: proxy fleet, replay the shards in parallel and merge the
    #: per-proxy metrics — bit-identical to ``workers=1`` in every
    #: result field except ``wall_seconds``/``profile``.  Configurations
    #: whose state crosses shards (faults, overload, churn, observers,
    #: cooperation chains spanning shards) decline to a single process.
    workers: int = 1

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
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
        if self.invariant_check_interval < 0:
            raise ValueError("invariant_check_interval must be >= 0")
        if self.hit_latency < 0 or self.per_hop_latency < 0:
            raise ValueError("latencies must be >= 0")
