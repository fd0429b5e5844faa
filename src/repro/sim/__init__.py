"""Deterministic discrete-event simulation engine.

All dynamic behaviour in the library — BGP propagation, MRAI timers, feed
publication latency, controller programming delay, operator reaction models —
runs on one :class:`~repro.sim.engine.Engine`.  Time is simulated seconds
(float); nothing ever reads the wall clock, so a seeded run is exactly
reproducible.
"""

from repro.sim.engine import Engine, EventHandle
from repro.sim.latency import (
    Constant,
    Delay,
    Exponential,
    LogNormal,
    Shifted,
    Uniform,
    make_delay,
)
from repro.sim.rng import SeededRNG, derive_seed

__all__ = [
    "Constant",
    "Delay",
    "Engine",
    "EventHandle",
    "Exponential",
    "LogNormal",
    "SeededRNG",
    "Shifted",
    "Uniform",
    "derive_seed",
    "make_delay",
]
