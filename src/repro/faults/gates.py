"""Chaos's wrappers around a proxy's publish and request calls, armed
by a fault schedule.

The **fault gate** suppresses a push the origin cannot send (it is
down; the page is fetched on demand later) or, without the delivery
protocol, a down proxy cannot receive.  The **failover** sends a down
proxy's request directly to the origin at origin cost: an unserved,
degraded request, or failed when the origin's retries run out.  The
wrappers touch state outside their proxy: the one schedule's origin
outages, and origin fetches whose degraded links draw from the
``"faults.loss"`` stream every proxy shares.
"""

from __future__ import annotations

from repro.system.proxy import SETTLED


def fault_wrappers(sim, env):
    """Chaos's wrappers for each proxy of ``sim``: ``wrap(proxy,
    on_publish, on_request)`` returns the fault gate and the failover."""
    publisher_down = sim.fault_schedule.publisher_down
    recovery = sim._recovery
    obs = sim.obs
    obs_on = sim._obs_on
    # With the protocol engaged a down *proxy* is its problem: sends
    # fail while it is down and a retransmission may land after recovery.
    gate_proxy = sim._delivery is None
    # The origin's state at the last publish instant looked up: one
    # lookup per publication, whichever proxies it reaches.
    origin = [None, False]

    def wrap(proxy, on_publish, on_request):
        server_id = proxy.server_id

        def fault_gate(page_id, version, size, match_count, now):
            if origin[0] != now:
                origin[0] = now
                origin[1] = publisher_down(now)
            if origin[1]:
                reason = "origin-down"
            elif gate_proxy and not proxy.up:
                reason = "proxy-down"
            else:
                return on_publish(page_id, version, size, match_count, now)
            recovery.pushes_suppressed += 1
            if obs_on:
                obs.push_suppressed(now, page_id, server_id, reason)
            return SETTLED

        def failover(page_id, version, size, match_count, now, held):
            if proxy.up:
                return on_request(page_id, version, size, match_count, now, held)
            if obs_on:
                obs.failover(
                    now, server_id, page_id, target="origin", reason="proxy-down"
                )
            return sim._settle_unserved(
                server_id, page_id, now,
                sim._origin_resolution(proxy, server_id, page_id, version, size, now),
            )

        return fault_gate, failover

    return wrap
