"""Discrete-event simulation engine.

The kernel under the pub/sub content distribution simulator:

* :class:`~repro.sim.engine.Environment` — a virtual clock and an
  agenda of callbacks (``schedule`` / ``run``), and
  :func:`~repro.sim.engine.agenda_stream`, which lets the agenda catch
  up before each record of the replay stream;
* :class:`~repro.sim.rng.RandomStreams` — named, independently seeded
  random-number streams so every stochastic component of the simulation
  is reproducible from a single root seed.

The simulation is trace driven (publish and request events are
precomputed by :mod:`repro.workload` and replayed as one sorted
stream), so the agenda holds only the dynamic events: delayed
notification arrivals and fault transitions.
"""

from typing import TYPE_CHECKING

from repro import lazy_exports

if TYPE_CHECKING:
    from repro.sim.engine import Environment, SimulationError
    from repro.sim.rng import RandomStreams

__all__ = ["Environment", "RandomStreams", "SimulationError"]

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "engine": ("Environment", "SimulationError"),
    "rng": ("RandomStreams",),
})
