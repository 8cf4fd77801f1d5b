"""The content distribution simulator (Fig. 2 of the paper).

One publisher feeds a publishing stream into the matching engine; each
of the proxy servers runs a placing module and a caching module over
its limited storage; end users issue the request stream against their
local proxy.  The simulator replays a generated
:class:`~repro.workload.trace.Workload` through the
:mod:`repro.sim` discrete-event engine and collects the paper's
metrics: the global hit ratio H (eq. 8), hourly hit ratios (Fig. 6)
and publisher-proxy traffic under both pushing schemes (Fig. 7).
"""

from typing import TYPE_CHECKING

from repro import lazy_exports

if TYPE_CHECKING:
    from repro.system.config import SimulationConfig, PushingScheme
    from repro.system.publisher import Publisher
    from repro.system.proxy import ProxyServer
    from repro.system.metrics import SimulationResult
    from repro.system.simulator import Simulation, run_simulation
    from repro.system.cooperation import CooperativeSimulation, run_cooperative_simulation

__all__ = [
    "SimulationConfig",
    "PushingScheme",
    "Publisher",
    "ProxyServer",
    "SimulationResult",
    "Simulation",
    "run_simulation",
    "CooperativeSimulation",
    "run_cooperative_simulation",
]

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "config": ("SimulationConfig", "PushingScheme"),
    "publisher": ("Publisher",),
    "proxy": ("ProxyServer",),
    "metrics": ("SimulationResult",),
    "simulator": ("Simulation", "run_simulation"),
    "cooperation": ("CooperativeSimulation", "run_cooperative_simulation"),
})
