"""Experiment grids: cartesian sweeps over the §5 knobs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.system.config import PushingScheme
from repro.system.metrics import SimulationResult

#: Default artifact-cache root, relative to the working directory (kept
#: here, not in ``artifacts``, so the CLI parser reads it without numpy).
DEFAULT_CACHE_DIR = ".repro-cache"


@dataclass(frozen=True)
class CellKey:
    """Coordinates of one simulation run inside a grid."""

    trace: str
    strategy: str
    capacity: float
    sq: float = 1.0
    pushing: str = PushingScheme.WHEN_NECESSARY.value

    def __str__(self) -> str:
        return (
            f"{self.trace}/{self.strategy}"
            f"@cap={self.capacity:g},sq={self.sq:g},{self.pushing}"
        )


@dataclass(frozen=True)
class ExperimentGrid:
    """A cartesian sweep (the paper's experiments are all grids)."""

    traces: Tuple[str, ...] = ("news",)
    strategies: Tuple[str, ...] = ("gdstar",)
    capacities: Tuple[float, ...] = (0.05,)
    sqs: Tuple[float, ...] = (1.0,)
    pushing_schemes: Tuple[str, ...] = (PushingScheme.WHEN_NECESSARY.value,)

    def cells(self) -> List[CellKey]:
        """All cells in deterministic order."""
        return [
            CellKey(trace, strategy, capacity, sq, pushing)
            for trace in self.traces
            for strategy in self.strategies
            for capacity in self.capacities
            for sq in self.sqs
            for pushing in self.pushing_schemes
        ]

    @property
    def cell_count(self) -> int:
        return (
            len(self.traces)
            * len(self.strategies)
            * len(self.capacities)
            * len(self.sqs)
            * len(self.pushing_schemes)
        )


@dataclass
class GridResult:
    """Results of a grid run, addressable by cell."""

    grid: ExperimentGrid
    scale: float
    seed: int
    results: Dict[CellKey, SimulationResult] = field(default_factory=dict)

    def get(self, **kwargs) -> SimulationResult:
        """Fetch one result by partial cell coordinates.

        Unspecified coordinates default to the grid's sole value; it is
        an error if the coordinate is ambiguous.
        """
        def sole(options, name):
            if len(options) != 1:
                raise KeyError(
                    f"{name} is ambiguous ({options}); pass {name}=..."
                )
            return options[0]

        key = CellKey(
            trace=kwargs.get("trace") or sole(self.grid.traces, "trace"),
            strategy=kwargs.get("strategy")
            or sole(self.grid.strategies, "strategy"),
            capacity=kwargs.get("capacity")
            or sole(self.grid.capacities, "capacity"),
            sq=kwargs.get("sq", None)
            if kwargs.get("sq") is not None
            else sole(self.grid.sqs, "sq"),
            pushing=kwargs.get("pushing")
            or sole(self.grid.pushing_schemes, "pushing"),
        )
        return self.results[key]

    def hit_ratio(self, **kwargs) -> float:
        return self.get(**kwargs).hit_ratio

    def relative_improvement(
        self, baseline: str = "gdstar", **kwargs
    ) -> Optional[float]:
        """Relative hit-ratio improvement over ``baseline`` (Table 2)."""
        target = self.get(**kwargs).hit_ratio
        base = self.get(**{**kwargs, "strategy": baseline}).hit_ratio
        if base == 0.0:
            return None
        return target / base - 1.0
