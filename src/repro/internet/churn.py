"""Background BGP churn.

The real Internet is never quiet: hundreds of thousands of prefixes flap,
re-home and re-converge continuously, which keeps per-peer MRAI timers armed
on most sessions.  That armed state is what stretches the propagation of a
*new* announcement (like ARTEMIS' de-aggregated /24s) from seconds of pure
per-hop processing into the minutes the paper measures.

:class:`BackgroundChurn` reproduces the mechanism: a pool of unrelated
prefixes, each homed at a random AS, generates announce/withdraw/re-announce
events as a Poisson process.  Every event propagates globally through the
same BGP machinery as the experiment traffic, arming MRAI timers everywhere.

Churn prefixes live in a reserved range (:data:`PREFIX_POOL`) so they
never overlap experiment prefixes; feed subscriptions filter them out
before they reach ARTEMIS.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import SimulationError
from repro.internet.network import Network
from repro.net.prefix import Prefix
from repro.sim.rng import SeededRNG


#: The reserved range churn prefixes are carved from.
PREFIX_POOL = Prefix.parse("172.16.0.0/12")

#: Probability a flapped-down prefix comes back on the next event.
ANNOUNCE_BIAS = 0.7

#: Share of the pool announced when churn starts.
WARM_FRACTION = 0.8


class ChurnConfig:
    """Background churn parameters."""

    def __init__(self, pool_size: int = 40, event_rate: float = 0.25):
        if pool_size < 1:
            raise SimulationError("churn pool needs at least one prefix")
        if event_rate <= 0:
            raise SimulationError("churn event rate must be positive")
        self.pool_size = int(pool_size)
        #: Network-wide churn events per simulated second.
        self.event_rate = float(event_rate)


class BackgroundChurn:
    """Poisson announce/withdraw noise over a pool of unrelated prefixes."""

    def __init__(
        self,
        network: Network,
        config: Optional[ChurnConfig] = None,
        seed: int = 0,
    ):
        self.network = network
        self.config = config or ChurnConfig()
        self.rng = SeededRNG(seed).substream("churn")
        # Carve /24s out of the pool range.
        children = []
        for index, child in enumerate(PREFIX_POOL.subnets(24)):
            if index >= self.config.pool_size:
                break
            children.append(child)
        self.prefixes: List[Prefix] = children
        asns = network.asns()
        #: Each churn prefix is homed at a random AS.
        self.home: Dict[Prefix, int] = {
            prefix: self.rng.choice(asns) for prefix in self.prefixes
        }
        self._announced: Dict[Prefix, bool] = {p: False for p in self.prefixes}
        self._handle = None
        self._running = False
        self.events_generated = 0

    def start(self) -> None:
        """Begin churning; :data:`WARM_FRACTION` of the pool starts announced.

        Warm-starting means MRAI timers begin arming from the first events
        rather than after a long fill-in transient.
        """
        if self._running:
            raise SimulationError("churn already started")
        self._running = True
        for prefix in self.prefixes:
            if self.rng.random() < WARM_FRACTION:
                self._announce(prefix)
        self._schedule_next()

    def stop(self) -> None:
        self._running = False
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _schedule_next(self) -> None:
        if not self._running:
            return
        gap = self.rng.expovariate(self.config.event_rate)
        self._handle = self.network.engine.schedule(gap, self._fire)

    def _fire(self) -> None:
        if not self._running:
            return
        prefix = self.rng.choice(self.prefixes)
        if self._announced[prefix]:
            # Flap down, or re-announce elsewhere-looking churn (withdraw).
            self._withdraw(prefix)
        else:
            if self.rng.random() < ANNOUNCE_BIAS:
                self._announce(prefix)
        self.events_generated += 1
        self._schedule_next()

    def _announce(self, prefix: Prefix) -> None:
        speaker = self.network.speaker(self.home[prefix])
        if not speaker.originates(prefix):
            speaker.originate(prefix)
        self._announced[prefix] = True

    def _withdraw(self, prefix: Prefix) -> None:
        speaker = self.network.speaker(self.home[prefix])
        if speaker.originates(prefix):
            speaker.withdraw_origin(prefix)
        self._announced[prefix] = False

    def __repr__(self) -> str:
        return (
            f"<BackgroundChurn pool={len(self.prefixes)} "
            f"rate={self.config.event_rate}/s events={self.events_generated}>"
        )
