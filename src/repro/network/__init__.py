"""Network topology substrate.

The paper places proxy servers and the publisher on a random graph
generated with BRITE and uses the network distance from each proxy to
the publisher as the fetch cost ``c(p)`` in the replacement policies
(§3.1, following Cao & Irani).  BRITE is a C++/Java tool; this package
reimplements its default router-level model, the Waxman probabilistic
model (:func:`~repro.network.waxman.waxman_graph`), in pure Python.

:class:`~repro.network.topology.Topology` wraps a generated graph,
designates a publisher node, assigns proxies to nodes and exposes the
hop-count distance from every proxy to the publisher.
"""

from typing import TYPE_CHECKING

from repro import lazy_exports

if TYPE_CHECKING:
    from repro.network.graph import Graph
    from repro.network.waxman import waxman_graph
    from repro.network.topology import Topology, build_topology

__all__ = [
    "Graph",
    "waxman_graph",
    "Topology",
    "build_topology",
]

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "graph": ("Graph",),
    "waxman": ("waxman_graph",),
    "topology": ("Topology", "build_topology"),
})
