"""What the simulator keeps of the publish/subscribe service.

The paper evaluates its strategies on *match counts per proxy*, not on
a running broker (§4.3 needs only "the number of subscriptions matching
every page at every server"), so this package is two modules:

* :mod:`repro.pubsub.matching` — :class:`TraceMatchCounts`, eq. 7's
  table of per-(page, proxy) subscription counts, the one match-count
  provider a run consults;
* :mod:`repro.pubsub.routing` — :class:`SequenceTracker`, the
  receiver-side state of notification delivery (duplicates and gaps).
"""

from typing import TYPE_CHECKING

from repro import lazy_exports

if TYPE_CHECKING:
    from repro.pubsub.matching import TraceMatchCounts

__all__ = ["TraceMatchCounts"]

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "matching": ("TraceMatchCounts",),
})
