"""The paper's two traces: NEWS (α = 1.5) and ALTERNATIVE (α = 1.0).

Both share every other parameter; only the Zipf homogeneity differs
(§4.2).  ``scale`` shrinks pages/requests/servers proportionally for
laptop-sized runs — 1.0 reproduces the paper's full-size workload.
"""

from __future__ import annotations

from repro.sim.rng import RandomStreams
from repro.workload.config import WorkloadConfig
from repro.workload.trace import Workload, generate_workload

#: Zipf α of the two traces (§4.2).
NEWS_ALPHA = 1.5
ALTERNATIVE_ALPHA = 1.0


def news_config(scale: float = 1.0) -> WorkloadConfig:
    """The NEWS trace configuration (α = 1.5)."""
    return WorkloadConfig(zipf_alpha=NEWS_ALPHA).scaled(scale)


def alternative_config(scale: float = 1.0) -> WorkloadConfig:
    """The ALTERNATIVE trace configuration (α = 1.0)."""
    return WorkloadConfig(zipf_alpha=ALTERNATIVE_ALPHA).scaled(scale)


def preset_config(name: str, scale: float = 1.0) -> WorkloadConfig:
    """The configuration of the trace called "news"/"alternative" (any case)."""
    key = name.lower()
    if key == "news":
        return news_config(scale)
    if key == "alternative":
        return alternative_config(scale)
    raise KeyError(f"unknown trace {name!r}; use 'news' or 'alternative'")


def make_trace(name: str, scale: float = 1.0, seed: int = 7) -> Workload:
    """Generate one of the paper's traces by name ("news"/"alternative")."""
    return generate_workload(
        preset_config(name, scale), RandomStreams(seed), label=name.lower()
    )
