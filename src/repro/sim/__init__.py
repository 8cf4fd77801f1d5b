"""Discrete-event simulation engine.

A small, self-contained SimPy-style kernel used by the pub/sub content
distribution simulator.  The engine provides:

* :class:`~repro.sim.engine.Environment` — the event loop with a virtual
  clock, ``schedule``/``run`` primitives and generator-based processes;
* :class:`~repro.sim.engine.Event`, :class:`~repro.sim.engine.Timeout`
  and :class:`~repro.sim.process.Process` — the waitable primitives;
* :class:`~repro.sim.resources.Resource` and
  :class:`~repro.sim.resources.Store` — queueing resources for
  process-style models;
* :class:`~repro.sim.rng.RandomStreams` — named, independently seeded
  random-number streams so every stochastic component of the simulation
  is reproducible from a single root seed.

The content distribution simulation itself is trace driven (publish and
request events are precomputed by :mod:`repro.workload`), so it mostly
uses the callback scheduling API; the process API exists so the same
kernel can express richer models (see ``examples/live_broker.py``).
"""

from typing import TYPE_CHECKING

from repro import lazy_exports

if TYPE_CHECKING:
    from repro.sim.engine import Environment, Event, Timeout, SimulationError
    from repro.sim.process import Process, Interrupt
    from repro.sim.resources import Resource, Store
    from repro.sim.rng import RandomStreams

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "Resource",
    "Store",
    "RandomStreams",
    "SimulationError",
]

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "engine": ("Environment", "Event", "Timeout", "SimulationError"),
    "process": ("Process", "Interrupt"),
    "resources": ("Resource", "Store"),
    "rng": ("RandomStreams",),
})
