"""Proxy servers.

A proxy aggregates its local users' subscriptions, runs the placing and
caching modules (one :class:`~repro.core.policy.Policy` instance) over
its limited storage, and serves its users' requests — Fig. 2's
"A server" box.

Under the fault-injection layer a proxy can crash: it goes offline,
loses its in-memory cache, and later restarts **cold**.  The ``up``
flag is toggled by the :class:`~repro.faults.injector.FaultInjector`
via the simulator; a down proxy serves no requests and rejects pushes.
"""

from __future__ import annotations

from typing import Optional

from repro.core.policy import Policy, PushOutcome, RequestOutcome


class _Settled:
    """What a wrapper that did its own accounting returns: the replay
    loop, whose hit latency is ``0.0`` and whose rejected pushes
    transfer nothing while wrappers are armed, counts nothing for it."""

    __slots__ = ()
    hit = True
    stored = False


SETTLED = _Settled()


def _attribute_values(policy):
    """Every attribute value of ``policy``, dict- or slot-stored.

    Policies are (partially) ``__slots__``-laid-out, so ``vars()``
    alone no longer sees their caches; the slots of every class in the
    MRO are walked as well.
    """
    yield from vars(policy).values()
    for klass in type(policy).__mro__:
        for slot in getattr(klass, "__slots__", ()):
            if slot != "__dict__":
                try:
                    yield getattr(policy, slot)
                except AttributeError:
                    pass


def _storages(policy) -> list:
    """Every CacheStorage a policy owns, directly or as the ``storage``
    of a HeapCache.

    Deduplicated by identity, so a storage reachable twice (itself and
    through its HeapCache) is hooked once.
    """
    from repro.cache.storage import CacheStorage
    from repro.core._base import HeapCache

    found = {}
    for value in _attribute_values(policy):
        if isinstance(value, HeapCache):
            value = value.storage
        if isinstance(value, CacheStorage):
            found[id(value)] = value
    return list(found.values())


class ProxyServer:
    """One content-distribution proxy close to a group of subscribers."""

    def __init__(self, server_id: int, policy: Policy) -> None:
        self.server_id = int(server_id)
        self.policy = policy
        #: Whether the proxy process is currently running.
        self.up = True
        #: Number of crashes suffered so far.
        self.crash_count = 0
        #: Accumulated downtime (seconds) over completed outages.
        self.downtime_seconds = 0.0
        self._down_since: Optional[float] = None

    @property
    def stats(self):
        """The underlying policy's counters."""
        return self.policy.stats

    # -- fault model -------------------------------------------------------

    def crash(self, now: float) -> None:
        """The proxy process dies: offline, cache contents gone."""
        if not self.up:
            raise RuntimeError(f"proxy {self.server_id} is already down")
        self.up = False
        self.crash_count += 1
        self._down_since = now
        self.policy.drop_contents()

    def recover(self, now: float) -> None:
        """The proxy restarts — cold: storage was cleared at crash time."""
        if self.up:
            raise RuntimeError(f"proxy {self.server_id} is already up")
        self.up = True
        if self._down_since is not None:
            self.downtime_seconds += now - self._down_since
            self._down_since = None

    # -- request/publish handling ------------------------------------------

    def handle_publish(
        self, page_id: int, version: int, size: int, match_count: int, now: float
    ) -> PushOutcome:
        """A published page matched ``match_count`` local subscriptions."""
        return self.policy.on_publish(page_id, version, size, match_count, now)

    def handle_request(
        self, page_id: int, version: int, size: int, match_count: int, now: float
    ) -> RequestOutcome:
        """A local user requests the current ``version`` of a page."""
        return self.policy.on_request(page_id, version, size, match_count, now)

    def check_invariants(self) -> None:
        self.policy.check_invariants()

    # -- observability -------------------------------------------------------

    def observe(self, obs, handler_time) -> None:
        """Report this proxy's evictions and storage operations to ``obs``.

        The hooks fire below the handler layer, so they stamp events
        with ``handler_time()``, the simulation time of the handler
        currently running.  Unobserved proxies keep the policies' and
        storages' no-op class-level hooks.
        """
        server_id = self.server_id
        self.policy.evict_listener = lambda page_id, size, cause: obs.evict(
            handler_time(), page_id, server_id, size, cause
        )
        for storage in _storages(self.policy):
            storage.listener = lambda op, entry: obs.cache_op(
                op, entry.size, handler_time()
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "up" if self.up else "down"
        return f"ProxyServer(id={self.server_id}, policy={self.policy.name}, {state})"
