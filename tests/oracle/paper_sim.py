"""Table 1's nine strategies, written from the paper and nothing else.

A reference for ``repro.core`` from PAPER.md §3 and docs/algorithms.md in the
standard library alone: no import from ``repro``, no heap.  A cache is a dict;
an eviction scans it cheapest value first, and among equal values the page
pushed (stored or re-priced) earliest leaves first.  Eqs. 1-5 are stated once.
"""

from itertools import count

def gdstar_value(inflation, frequency, cost, size, beta):
    """Equation 1: ``L + (f·c/size)^(1/beta)``; a frequency <= 0 (SG2's
    ``s − a`` once ``a >= s``) predicts no use and is worth ``L``."""
    if size <= 0 or beta <= 0:
        raise ValueError(f"size and beta must be positive, got {size}, {beta}")
    base = frequency * cost / size
    return inflation if base <= 0.0 else inflation + base ** (1.0 / beta)

def sub_value(match_count, cost, size):
    """Equation 2: ``s·c/size``, SUB's push-time value."""
    if size <= 0:
        raise ValueError(f"size must be positive, got {size}")
    return match_count * cost / size

def sr_value(match_count, access_count, cost, size):
    """Equation 5: ``(s − a)·c/size``; negative once ``a > s``."""
    return sub_value(match_count - access_count, cost, size)

def sg1_frequency(match_count, access_count):
    """Equation 3: ``f = s + a``, prediction plus history."""
    return match_count + access_count

def sg2_frequency(match_count, access_count):
    """Equation 4: ``f = s − a``, the references still to come."""
    return match_count - access_count

STRATEGIES = ("gdstar", "sub", "sg1", "sg2", "sr", "dm", "dc-fp", "dc-ap", "dc-lap")
#: A dual cache's Push-Cache share at the start, and the bounds it moves in.
PC_SHARE, BOUNDS = 0.5, {"dc-fp": None, "dc-ap": (0.0, 1.0), "dc-lap": (0.25, 0.75)}
#: A proxy's counters, named as the simulator names them.
COUNTERS = """requests hits stale_hits bytes_served_local pages_fetched bytes_fetched
pages_pushed_stored pages_pushed_rejected bytes_pushed evictions bytes_evicted""".split()

class Copy:
    """A cached page; ``f`` counts its accesses while cached (In-Cache LFU)."""

    def __init__(self, page, version, size, s, f=0):
        self.page, self.version, self.size, self.s, self.f = page, version, size, s, f

class Cache:
    """A byte pool; ``order[name][page]`` is ``(prices[name](copy), tick)``."""

    def __init__(self, capacity, clock, **prices):
        self.capacity, self.clock, self.prices, self.pages = capacity, clock, prices, {}
        self.order = {name: {} for name in prices}

    def used(self):
        return sum(copy.size for copy in self.pages.values())

    def put(self, copy, names=None):
        """A push: store ``copy``, (re-)valued behind its equals in ``names``."""
        self.pages[copy.page] = copy
        for name in self.prices if names is None else names:
            self.order[name][copy.page] = (self.prices[name](copy), next(self.clock))

    def drop(self, page):
        for values in self.order.values():
            del values[page]
        return self.pages.pop(page)

    def victims(self, name, size, below=None):
        """The cheapest pages whose eviction fits ``size`` bytes, or None;
        with ``below``, only pages valued strictly lower, all or nothing."""
        need, chosen, order = size - self.capacity + self.used(), [], self.order[name]
        for page in sorted(order, key=order.get) if need > 0 else ():
            if need <= 0:
                break
            if below is not None and order[page][0] >= below:
                return None
            chosen.append(page)
            need -= self.pages[page].size
        return chosen if need <= 0 else None

class Proxy:
    """One proxy: the two placement opportunities and their counters."""

    #: A push module and the order it evicts by; a gated access-time placement.
    uses_push, push_order, gated = True, "value", False
    #: Each order of the proxy's cache, and the value that ranks it.
    orders = {"value": "gd"}

    def __init__(self, strategy, capacity, cost, beta):
        self.strategy, self.cost, self.beta, self.L = strategy, cost, beta, 0.0
        self.clock, self.stats, self.a = count(), dict.fromkeys(COUNTERS, 0), {}
        prices = {name: getattr(self, value) for name, value in self.orders.items()}
        self.caches = [Cache(capacity, self.clock, **prices)]

    def gd(self, copy):
        return gdstar_value(self.L, copy.f, self.cost, copy.size, self.beta)

    def sub(self, copy):
        return sub_value(copy.s, self.cost, copy.size)

    def home(self, page):  # the cache holding page, or None
        for cache in self.caches:
            if page in cache.pages:
                return cache

    def evict(self, cache, name, victims):
        value = None
        for page in victims:
            value = cache.order[name][page][0]
            self.stats["evictions"] += 1
            self.stats["bytes_evicted"] += cache.drop(page).size
        return value

    def make_room(self, cache, name, copy, gated):
        """Store ``copy`` in ``cache``, evicting the cheapest pages by order
        ``name`` (``gated``: only strictly cheaper ones, all or nothing); an
        order that ages sets ``L`` to its last victim's value.  The victims,
        or None when ``copy`` is not stored."""
        victims = cache.victims(name, copy.size, cache.prices[name](copy) if gated else None)
        if victims is None:
            return None
        last = self.evict(cache, name, victims)
        if victims and cache.prices[name] != self.sub:
            self.L = last
        cache.put(copy)
        return victims

    def place(self, copy):
        return self.make_room(self.caches[0], self.push_order, copy, True) is not None

    def publish(self, page, version, size, s):
        """Push time: returns (stored, refreshed)."""
        if not self.uses_push:
            return False, False
        cache = self.home(page)
        if cache is not None:  # a refresh in place is no access: a SUB value
            copy = cache.pages[page]  # follows the new s, no other value moves
            copy.version, copy.s = version, s
            cache.put(copy, [name for name, value in cache.prices.items() if value == self.sub])
        stored = cache is not None or self.place(Copy(page, version, size, s))
        self.stats["pages_pushed_stored" if stored else "pages_pushed_rejected"] += 1
        self.stats["bytes_pushed"] += size if stored else 0
        return stored, cache is not None

    def request(self, page, version, size, s):
        """Access time: returns (hit, stale)."""
        cache, stats = self.home(page), self.stats
        copy = None if cache is None else cache.pages[page]
        hit = copy is not None and copy.version == version
        stale = copy is not None and not hit
        stats["requests"] += 1
        stats["hits" if hit else "pages_fetched"] += 1
        stats["bytes_served_local" if hit else "bytes_fetched"] += size
        stats["stale_hits"] += stale
        self.a[page] = self.a.get(page, 0) + 1  # the proxy sees every request
        self.access(cache, copy, page, version, size, s)
        return hit, stale

    def access(self, cache, copy, page, version, size, s):
        """No access-time module (SUB): fetch and forward, never store."""

class GDStar(Proxy):
    """§3.1: access time only."""

    uses_push = False

    def access(self, cache, copy, page, version, size, s):
        if copy is None:
            copy = Copy(page, version, size, s, 1)
            return self.make_room(self.caches[0], "value", copy, self.gated)
        copy.version, copy.f = version, copy.f + 1
        cache.put(copy, ["value"])

class Sub(Proxy):
    """§3.2: push time only, at eq. 2's static value; a stale copy stays stale."""

    orders = {"value": "sub"}

class SingleCache(GDStar):
    """§3.3 SG1 / SG2 / SR: GD*'s cache, valued by eq. 3, 4 or 5 with the proxy's
    ``a``, gated at both opportunities.  SR's value never reads ``L``."""

    uses_push, gated, orders = True, True, {"value": "sg"}

    def sg(self, copy):
        a = self.a.get(copy.page, 0)
        if self.strategy == "sr":
            return sr_value(copy.s, a, self.cost, copy.size)
        frequency = (sg1_frequency if self.strategy == "sg1" else sg2_frequency)(copy.s, a)
        return gdstar_value(self.L, frequency, self.cost, copy.size, self.beta)

class DualMethods(GDStar):
    """§3.3 DM: GD* plus SUB's push module on one byte pool ordered twice."""

    uses_push, push_order, orders = True, "push", {"push": "sub", "value": "gd"}

class DualCaches(Proxy):
    """§3.3 DC-FP / DC-AP / DC-LAP: a Push-Cache run by SUB, an Access-Cache
    run by GD*; the adaptive two relabel bytes between them."""

    def __init__(self, strategy, capacity, cost, beta):
        super().__init__(strategy, capacity, cost, beta)
        pc = int(capacity * PC_SHARE)
        self.pc = Cache(pc, self.clock, value=self.sub)
        self.ac = Cache(capacity - pc, self.clock, value=self.gd)
        self.caches, self.bounds = [self.pc, self.ac], BOUNDS[strategy]
        self.total = max(1, capacity)
        #: AC pages admitted or accessed since the last AC replacement.
        self.referenced = set()

    def place(self, copy):
        placed = self.make_room(self.pc, "value", copy, True) is not None
        return placed or self.bounds is not None and self.donate(copy)

    def donate(self, copy):
        """DC-AP's placing rule: idle AC pages, cheapest first, donate their
        bytes to PC until ``copy`` fits; all or nothing, within the bounds."""
        ac, referenced, order = self.ac, self.referenced, self.ac.order["value"]
        if sum(c.size for p, c in ac.pages.items() if p not in referenced) < copy.size:
            return False
        need, moved, donors, aside = copy.size - self.pc.capacity + self.pc.used(), 0, [], []
        for page in sorted(order, key=order.get):
            if moved >= need:
                break
            if page in referenced:
                aside.append(page)
                continue
            if (self.pc.capacity + moved + ac.pages[page].size) / self.total > self.bounds[1]:
                aside.append(page)
                break
            donors.append(page)
            moved += ac.pages[page].size
        # The pages the scan passed over go back behind their equals.
        for page in aside + (donors if moved < need else []):
            order[page] = (order[page][0], next(self.clock))
        if moved < need:
            return False
        self.evict(ac, "value", donors)
        ac.capacity, self.pc.capacity = ac.capacity - moved, self.pc.capacity + moved
        self.pc.put(copy)
        return True

    def enter(self, copy):
        """GD* admission to AC; a round that evicts is a replacement."""
        victims = self.make_room(self.ac, "value", copy, False)
        if victims:
            self.referenced.clear()
        if victims is not None:
            self.referenced.add(copy.page)

    def access(self, cache, copy, page, version, size, s):
        if copy is None:
            return self.enter(Copy(page, version, size, s, 1))
        copy.version, copy.f = version, copy.f + 1
        if cache is self.pc:  # a pushed page's first access: AC's now
            self.pc.drop(page)
            shrunk = self.pc.capacity - copy.size
            if self.bounds is None or shrunk / self.total < self.bounds[0]:
                return self.enter(copy)  # DC-FP's move; DC-LAP's at the bound
            self.pc.capacity, self.ac.capacity = shrunk, self.ac.capacity + copy.size
        self.ac.put(copy)  # re-priced, or stored in its relabelled bytes
        self.referenced.add(page)

def make_proxy(strategy, capacity, cost, beta=2.0):
    """A reference proxy running ``strategy``, one of ``STRATEGIES``."""
    kinds = (GDStar, Sub, SingleCache, SingleCache, SingleCache, DualMethods) + (DualCaches,) * 3
    return dict(zip(STRATEGIES, kinds))[strategy](strategy, capacity, cost, beta)

def replay_order(publishes, requests):
    """``(server, page)`` per publish ``(time, page)`` (server None) and
    request ``(time, server, page)`` row, merged by time: publishes first."""
    rows = [(row[0], 0, i, None, row[1]) for i, row in enumerate(publishes)]
    rows += [(row[0], 1, i, row[1], row[2]) for i, row in enumerate(requests)]
    return [(server, page) for _, _, _, server, page in sorted(rows)]

def simulate(strategy, events, sizes, matches, costs, capacities):
    """Replay ``events`` through one proxy per server; version ``k`` of a page
    is its ``k``-th publication, pushed to each ``{server: s}`` of ``matches[page]``.
    Returns each proxy's counters and per scheme the pages and bytes pushed (§5.6):
    Always-Pushing sends every match to a push module, When-Necessary what is kept."""
    proxies = [make_proxy(strategy, c, cost) for c, cost in zip(capacities, costs)]
    current, pushed = {}, {"always": [0, 0], "when-necessary": [0, 0]}
    for server, page in events:
        if server is not None:
            s = matches.get(page, {}).get(server, 0)
            proxies[server].request(page, current[page], sizes[page], s)
            continue
        current[page] = current.get(page, -1) + 1
        for server, s in sorted(matches.get(page, {}).items()):
            if s > 0 and proxies[server].uses_push:
                stored, _ = proxies[server].publish(page, current[page], sizes[page], s)
                for scheme, sent in (("always", True), ("when-necessary", stored)):
                    pushed[scheme][0] += sent
                    pushed[scheme][1] += sent * sizes[page]
    return [proxy.stats for proxy in proxies], pushed
