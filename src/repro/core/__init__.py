"""Content distribution strategies — the paper's primary contribution.

Every strategy from Table 1 of the paper is implemented against a
single :class:`~repro.core.policy.Policy` interface:

================  =============================================  =======
Strategy          Class                                          Section
================  =============================================  =======
GD*               :class:`~repro.core.gdstar.GDStarPolicy`       3.1
SUB               :class:`~repro.core.sub.SubPolicy`             3.2
SG1 / SG2 / SR    :class:`~repro.core.single_cache.SingleCacheCombinedPolicy`  3.3
DM                :class:`~repro.core.dual_methods.DualMethodsPolicy`          3.3
DC-FP             :class:`~repro.core.dual_caches.DualCacheFixedPolicy`        3.3
DC-AP / DC-LAP    :class:`~repro.core.dual_caches.DualCacheAdaptivePolicy`     3.3
LRU / GDS / LFU-DA :mod:`repro.core.classic` (comparators)       3.1
================  =============================================  =======

Use :func:`~repro.core.registry.make_policy` (or
:data:`~repro.core.registry.STRATEGIES`) to construct policies by the
names the paper uses ("gdstar", "sub", "sg1", "sg2", "sr", "dm",
"dc-fp", "dc-ap", "dc-lap", plus "lru", "gds", "lfu-da").

The policies inline eqs. 1–5; ``tests/oracle/paper_sim.py`` states them
readably (``paper_sim.gdstar_value`` etc. in the comments here) and
``tests/core/test_values.py`` holds the two equal bit for bit.
"""

from typing import TYPE_CHECKING

from repro import lazy_exports

if TYPE_CHECKING:
    from repro.core.policy import Policy, PushOutcome, RequestOutcome
    from repro.core.gdstar import GDStarPolicy
    from repro.core.classic import LRUPolicy, GDSPolicy, LFUDAPolicy
    from repro.core.sub import SubPolicy
    from repro.core.single_cache import SingleCacheCombinedPolicy
    from repro.core.dual_methods import DualMethodsPolicy
    from repro.core.dual_caches import DualCacheFixedPolicy, DualCacheAdaptivePolicy
    from repro.core.registry import STRATEGIES, make_policy, strategy_names

__all__ = [
    "Policy",
    "PushOutcome",
    "RequestOutcome",
    "GDStarPolicy",
    "LRUPolicy",
    "GDSPolicy",
    "LFUDAPolicy",
    "SubPolicy",
    "SingleCacheCombinedPolicy",
    "DualMethodsPolicy",
    "DualCacheFixedPolicy",
    "DualCacheAdaptivePolicy",
    "STRATEGIES",
    "make_policy",
    "strategy_names",
]

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "policy": ("Policy", "PushOutcome", "RequestOutcome"),
    "gdstar": ("GDStarPolicy",),
    "classic": ("LRUPolicy", "GDSPolicy", "LFUDAPolicy"),
    "sub": ("SubPolicy",),
    "single_cache": ("SingleCacheCombinedPolicy",),
    "dual_methods": ("DualMethodsPolicy",),
    "dual_caches": ("DualCacheFixedPolicy", "DualCacheAdaptivePolicy"),
    "registry": ("STRATEGIES", "make_policy", "strategy_names"),
})
