"""Latency / delay distributions.

Small value objects with a single ``sample(rng)`` method.  They parameterise
everything time-related in the simulator: per-session propagation delay,
per-router update processing, stream publication latency, looking-glass query
round trips, controller programming time, and the human operator models used
by the baselines.

``make_delay`` accepts a :class:`Delay` or a plain number (a constant).
"""

from __future__ import annotations

import math
from typing import Union

from repro.errors import SimulationError
from repro.sim.rng import SeededRNG


class Delay:
    """Base class: a non-negative random delay in seconds."""

    def __deepcopy__(self, memo) -> "Delay":
        # Delay specs are frozen after construction; checkpoint forks share
        # them (stateless samplers — all randomness lives in the RNG).
        return self

    def sample(self, rng: SeededRNG) -> float:
        raise NotImplementedError

    @property
    def mean(self) -> float:
        """Analytic mean of the distribution, used in reports."""
        raise NotImplementedError


class Constant(Delay):
    """Always the same delay."""

    def __init__(self, value: float):
        if value < 0:
            raise SimulationError(f"delay must be non-negative, got {value}")
        self.value = float(value)

    def sample(self, rng: SeededRNG) -> float:
        return self.value

    @property
    def mean(self) -> float:
        return self.value

    def __repr__(self) -> str:
        return f"Constant({self.value})"


class Uniform(Delay):
    """Uniform on [low, high]."""

    def __init__(self, low: float, high: float):
        if low < 0 or high < low:
            raise SimulationError(f"invalid uniform bounds [{low}, {high}]")
        self.low = float(low)
        self.high = float(high)

    def sample(self, rng: SeededRNG) -> float:
        return rng.uniform(self.low, self.high)

    @property
    def mean(self) -> float:
        return (self.low + self.high) / 2.0

    def __repr__(self) -> str:
        return f"Uniform({self.low}, {self.high})"


class Exponential(Delay):
    """Exponential with the given mean (memoryless inter-arrival model)."""

    def __init__(self, mean: float):
        if mean <= 0:
            raise SimulationError(f"exponential mean must be positive, got {mean}")
        self._mean = float(mean)

    def sample(self, rng: SeededRNG) -> float:
        return rng.expovariate(1.0 / self._mean)

    @property
    def mean(self) -> float:
        return self._mean

    def __repr__(self) -> str:
        return f"Exponential(mean={self._mean})"


class LogNormal(Delay):
    """Log-normal parameterised by its *actual* mean and sigma (of the log).

    Heavy-tailed; used for human reaction times (the baselines' manual
    verification / manual reconfiguration) and long-tail stream latency.
    """

    def __init__(self, mean: float, sigma: float = 0.5):
        if mean <= 0:
            raise SimulationError(f"lognormal mean must be positive, got {mean}")
        if sigma <= 0:
            raise SimulationError(f"lognormal sigma must be positive, got {sigma}")
        self._mean = float(mean)
        self.sigma = float(sigma)
        # mean of lognormal = exp(mu + sigma^2/2)  →  mu
        self.mu = math.log(self._mean) - (self.sigma**2) / 2.0

    def sample(self, rng: SeededRNG) -> float:
        return rng.lognormvariate(self.mu, self.sigma)

    @property
    def mean(self) -> float:
        return self._mean

    def __repr__(self) -> str:
        return f"LogNormal(mean={self._mean}, sigma={self.sigma})"


class Shifted(Delay):
    """A minimum floor plus another distribution (e.g. RTT floor + queueing)."""

    def __init__(self, floor: float, tail: Delay):
        if floor < 0:
            raise SimulationError(f"floor must be non-negative, got {floor}")
        self.floor = float(floor)
        self.tail = tail

    def sample(self, rng: SeededRNG) -> float:
        return self.floor + self.tail.sample(rng)

    @property
    def mean(self) -> float:
        return self.floor + self.tail.mean

    def __repr__(self) -> str:
        return f"Shifted({self.floor} + {self.tail!r})"


DelaySpec = Union[Delay, float, int]


def make_delay(spec: DelaySpec) -> Delay:
    """A :class:`Delay` as-is, or a number as a :class:`Constant`."""
    if isinstance(spec, Delay):
        return spec
    if isinstance(spec, (int, float)):
        return Constant(float(spec))
    raise SimulationError(f"cannot build a delay from {spec!r}")
