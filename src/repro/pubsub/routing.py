"""Receiver state of notification delivery.

Notifications (flow 3 of the paper's Figure 1) reach a proxy over a
channel that reliable delivery (:mod:`repro.system.delivery`) lets
lose, duplicate and reorder them; :class:`SequenceTracker` is what the
proxy keeps to tell those cases apart.
"""

from __future__ import annotations

from typing import Dict, Optional


class SequenceTracker:
    """Receiver-side sequence bookkeeping over an unreliable channel.

    Tracks, per page, the highest sequence number delivered so far and
    classifies each arriving notification:

    * ``"duplicate"`` — the sequence was already seen (a retransmission
      racing its ack, or a late reordered copy of an old version);
      the receiver must suppress it.
    * ``"gap"`` — the sequence jumps past the expected next one: at
      least one earlier notification was lost or is still in flight.
      With latest-version-wins semantics the arriving notification
      itself heals the gap, but the detection is what access-time
      staleness repair and the metrics are keyed off.
    * ``"new"`` — the expected in-order delivery.

    A first-ever delivery with ``sequence > 0`` counts as a gap: under
    the static subscription tables of a simulation run a matched proxy
    is matched for every version, so the missing prefix was lost (for
    example while the proxy was down).
    """

    __slots__ = ("_last", "duplicates", "gaps")

    def __init__(self) -> None:
        self._last: Dict[int, int] = {}
        self.duplicates = 0
        self.gaps = 0

    def observe(self, page_id: int, sequence: int) -> str:
        """Classify one arrival and update the per-page high-water mark."""
        last = self._last.get(page_id)
        if last is not None and sequence <= last:
            self.duplicates += 1
            return "duplicate"
        expected = 0 if last is None else last + 1
        self._last[page_id] = sequence
        if sequence > expected:
            self.gaps += 1
            return "gap"
        return "new"

    def last_seen(self, page_id: int) -> Optional[int]:
        """Highest sequence delivered for ``page_id``, or None."""
        return self._last.get(page_id)

    def learn(self, page_id: int, sequence: int) -> None:
        """Raise the high-water mark out of band (e.g. after a demand
        fetch taught the receiver the current version)."""
        last = self._last.get(page_id)
        if last is None or sequence > last:
            self._last[page_id] = sequence

    def reset(self) -> None:
        """Forget all per-page state (receiver restarted cold)."""
        self._last.clear()
