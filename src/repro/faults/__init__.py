"""Fault injection and graceful degradation.

The faults layer makes the reproduction's substrate unreliable on
purpose: proxies crash and restart cold, the publisher goes dark, and
links degrade — all on a deterministic schedule derived from dedicated
RNG streams, so chaos runs are exactly as reproducible as healthy ones.

Pipeline::

    ChaosSpec --(generate_fault_schedule)--> FaultSchedule
        --(FaultInjector, agenda callbacks)--> crash/recover/outage hooks
        --(RecoveryTracker)--> availability + time-to-warm metrics

Beyond the schedule-driven faults, two protocol layers draw per-message
faults from their own dedicated streams: reliable delivery uses
``"faults.delivery"`` and the subscription-lifecycle confirmation
handshake uses :data:`LIFECYCLE_STREAM` (``"faults.lifecycle"``).
Either stream is derived only when its layer is actually configured, so
adding one never perturbs the others — the bit-identity discipline.
"""

from typing import TYPE_CHECKING

from repro import lazy_exports

if TYPE_CHECKING:
    from repro.faults.generator import generate_fault_schedule
    from repro.faults.injector import FaultInjector
    from repro.faults.recovery import RecoveryReport, RecoveryTracker
    from repro.faults.schedule import EMPTY_SCHEDULE, DegradedWindow, FaultSchedule, Window
    from repro.faults.spec import ChaosSpec, OverloadSpec

#: Name of the RNG stream feeding subscription-handshake loss draws.
LIFECYCLE_STREAM = "faults.lifecycle"

#: Name of the RNG stream feeding overload-layer draws (breaker probe
#: jitter, retry-backoff jitter).  Derived only when an
#: :class:`OverloadSpec` actually needs randomness, so arming the
#: overload layer never perturbs the ``faults.*``, ``workload.churn``
#: or delivery streams — the same bit-identity discipline as
#: :data:`LIFECYCLE_STREAM`.
OVERLOAD_STREAM = "faults.overload"

__all__ = [
    "ChaosSpec",
    "DegradedWindow",
    "EMPTY_SCHEDULE",
    "FaultInjector",
    "FaultSchedule",
    "LIFECYCLE_STREAM",
    "OVERLOAD_STREAM",
    "OverloadSpec",
    "RecoveryReport",
    "RecoveryTracker",
    "Window",
    "generate_fault_schedule",
]

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "generator": ("generate_fault_schedule",),
    "injector": ("FaultInjector",),
    "recovery": ("RecoveryReport", "RecoveryTracker"),
    "schedule": ("EMPTY_SCHEDULE", "DegradedWindow", "FaultSchedule", "Window"),
    "spec": ("ChaosSpec", "OverloadSpec"),
})
