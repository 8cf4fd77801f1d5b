"""Strategy registry: build policies by their paper names.

The registry maps the names used throughout the paper (and this
reproduction's experiment configs) to constructor callables.  Every
constructor accepts ``capacity_bytes`` and ``cost`` plus the
strategy-specific keyword arguments listed in :data:`STRATEGIES`.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.core.policy import Policy
from repro.core.gdstar import GDStarPolicy
from repro.core.classic import LRUPolicy, GDSPolicy, LFUDAPolicy
from repro.core.sub import SubPolicy
from repro.core.single_cache import SingleCacheCombinedPolicy
from repro.core.dual_methods import DualMethodsPolicy
from repro.core.dual_caches import DualCacheFixedPolicy, DualCacheAdaptivePolicy


def _make_sg1(capacity_bytes: int, cost: float = 1.0, beta: float = 2.0) -> Policy:
    return SingleCacheCombinedPolicy(capacity_bytes, cost, mode="sg1", beta=beta)


def _make_sg2(capacity_bytes: int, cost: float = 1.0, beta: float = 2.0) -> Policy:
    return SingleCacheCombinedPolicy(capacity_bytes, cost, mode="sg2", beta=beta)


def _make_sr(capacity_bytes: int, cost: float = 1.0, **_ignored) -> Policy:
    return SingleCacheCombinedPolicy(capacity_bytes, cost, mode="sr")


def _make_dc_fp(
    capacity_bytes: int,
    cost: float = 1.0,
    beta: float = 2.0,
    push_fraction: float = 0.5,
) -> Policy:
    return DualCacheFixedPolicy(
        capacity_bytes, cost, beta=beta, push_fraction=push_fraction
    )


def _make_dc_ap(
    capacity_bytes: int,
    cost: float = 1.0,
    beta: float = 2.0,
    push_fraction: float = 0.5,
) -> Policy:
    return DualCacheAdaptivePolicy(
        capacity_bytes, cost, beta=beta, push_fraction=push_fraction
    )


def _make_dc_lap(
    capacity_bytes: int,
    cost: float = 1.0,
    beta: float = 2.0,
    push_fraction: float = 0.5,
    lower_fraction: float = 0.25,
    upper_fraction: float = 0.75,
) -> Policy:
    return DualCacheAdaptivePolicy(
        capacity_bytes,
        cost,
        beta=beta,
        push_fraction=push_fraction,
        lower_fraction=lower_fraction,
        upper_fraction=upper_fraction,
    )


#: Name -> constructor.  Keys are the paper's strategy names.
STRATEGIES: Dict[str, Callable[..., Policy]] = {
    "gdstar": GDStarPolicy,
    "gd*": GDStarPolicy,
    "sub": SubPolicy,
    "sg1": _make_sg1,
    "sg2": _make_sg2,
    "sr": _make_sr,
    "dm": DualMethodsPolicy,
    "dc-fp": _make_dc_fp,
    "dc-ap": _make_dc_ap,
    "dc-lap": _make_dc_lap,
    "lru": LRUPolicy,
    "gds": GDSPolicy,
    "lfu-da": LFUDAPolicy,
}


def register_strategy(name: str, constructor: Callable[..., Policy]) -> None:
    """Register a user-defined strategy under ``name``.

    After registration the strategy is constructible through
    :func:`make_policy` and usable as ``SimulationConfig(strategy=name)``
    — see ``examples/custom_policy.py``.  A registered strategy takes no
    ``beta`` (:func:`make_policy_lenient` drops it).  Re-registering a
    built-in name is rejected to avoid silently changing the paper's
    strategies.
    """
    key = name.lower()
    if key in _BUILTIN_NAMES:
        raise ValueError(f"cannot override built-in strategy {name!r}")
    STRATEGIES[key] = constructor


def strategy_names() -> List[str]:
    """Canonical strategy names (``gd*``, an alias of ``gdstar``, left out)."""
    return [name for name in STRATEGIES if name != "gd*"]


def make_policy(name: str, capacity_bytes: int, cost: float = 1.0, **kwargs) -> Policy:
    """Construct the strategy ``name`` for one proxy.

    Args:
        name: a key of :data:`STRATEGIES` (case-insensitive).
        capacity_bytes: proxy cache capacity.
        cost: fetch cost from the proxy to the publisher.
        **kwargs: strategy-specific options (``beta``, ``push_fraction``,
            ``lower_fraction``/``upper_fraction``, ...).  Strategies
            without a ``beta`` (SUB, LRU, ...) reject unknown options —
            pass only what the strategy takes, or use
            :func:`make_policy_lenient` from experiment code.

    Raises:
        KeyError: for an unknown strategy name.
    """
    key = name.lower()
    if key not in STRATEGIES:
        raise KeyError(
            f"unknown strategy {name!r}; known: {sorted(strategy_names())}"
        )
    return STRATEGIES[key](capacity_bytes, cost, **kwargs)


#: The built-in names (guarded against re-registration).
_BUILTIN_NAMES = frozenset(STRATEGIES)

#: Strategies whose value function uses the GD* beta parameter.
BETA_STRATEGIES = frozenset(
    ["gdstar", "gd*", "sg1", "sg2", "dm", "dc-fp", "dc-ap", "dc-lap"]
)


def make_policy_lenient(
    name: str, capacity_bytes: int, cost: float = 1.0, beta: float = 2.0, **kwargs
) -> Policy:
    """Like :func:`make_policy` but silently drops ``beta`` for
    strategies that do not use it — convenient in sweeps that build
    every strategy from one parameter set."""
    if name.lower() in BETA_STRATEGIES:
        kwargs["beta"] = beta
    return make_policy(name, capacity_bytes, cost, **kwargs)
