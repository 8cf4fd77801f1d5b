"""repro — Content Distribution for Publish/Subscribe Services.

A from-scratch Python reproduction of Chen, LaPaugh & Singh,
*Content Distribution for Publish/Subscribe Services* (Middleware 2003):
hybrid push-time/access-time content placement for content-intensive
publish/subscribe systems, evaluated on an MSNBC-derived synthetic news
workload.

Package map:

* :mod:`repro.core` — the nine distribution strategies (GD*, SUB, SG1,
  SG2, SR, DM, DC-FP, DC-AP, DC-LAP) plus classic comparators.
* :mod:`repro.cache` — capacity-limited cache substrate.
* :mod:`repro.pubsub` — eq. 7's match-count table, delivery's receiver state.
* :mod:`repro.network` — BRITE-style topologies and fetch costs.
* :mod:`repro.sim` — the callback agenda and seeded RNG streams.
* :mod:`repro.workload` — the §4 synthetic workload generator.
* :mod:`repro.system` — the Fig. 2 simulator and its metrics.
* :mod:`repro.experiments` — one function per paper table/figure.

Quickstart::

    from repro.workload.presets import make_trace
    from repro.system import SimulationConfig, run_simulation

    trace = make_trace("news", scale=0.2, seed=7)
    result = run_simulation(trace, SimulationConfig(strategy="sg2"))
    print(result.summary())
"""

from importlib import import_module
from typing import TYPE_CHECKING, Dict, Sequence

if TYPE_CHECKING:
    from repro.core import make_policy, strategy_names
    from repro.system import SimulationConfig, PushingScheme, run_simulation
    from repro.workload import WorkloadConfig, generate_workload, news_config, alternative_config
    from repro.workload.presets import make_trace

__version__ = "1.0.0"


def lazy_exports(package: str, namespace: dict, exports: Dict[str, Sequence[str]]):
    """``(__getattr__, __dir__)`` for a package whose public names live in submodules.

    ``exports`` maps a submodule (relative to ``package``) to the names
    it provides (PEP 562).  A name is imported on first access and
    written into ``namespace`` — the package's ``globals()`` — so every
    later lookup, and anything that rebinds the attribute, sees that one
    binding.  Unknown names raise AttributeError, which is what
    ``getattr(pkg, name, None)`` and ``from pkg import submodule`` need.
    """
    home = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        if name not in home:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(f"{package}.{home[name]}"), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(home))

    return __getattr__, __dir__


__all__ = [
    "make_policy",
    "strategy_names",
    "SimulationConfig",
    "PushingScheme",
    "run_simulation",
    "WorkloadConfig",
    "generate_workload",
    "news_config",
    "alternative_config",
    "make_trace",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "core": ("make_policy", "strategy_names"),
    "system": ("SimulationConfig", "PushingScheme", "run_simulation"),
    "workload": ("WorkloadConfig", "generate_workload", "news_config", "alternative_config"),
    "workload.presets": ("make_trace",),
})
